"""`check_is` against a brute-force set-linearizability search.

A one-shot immediate snapshot is a set-sequential object (Neiger, PODC
1994; Castañeda, Rajsbaum and Raynal, JACM 2018): a history is correct
when its operations fall into ordered concurrency classes, each class
taking effect at one point inside every member's interval, so that each
member's view holds the pairs of its own class and of every earlier one.
Operations still pending may take effect or not. `set_linearizable`
tries every such grouping; `check_is`'s self-inclusion, validity,
containment and immediacy must all pass exactly when it finds one.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest
from corpus import OBJ, inv, mk_trace, resp

from kisnap.checkers import check_is

SAFETY = ("self_inclusion", "validity", "containment", "immediacy")


def ordered_partitions(items: list) -> list[list[tuple]]:
    """Every sequence of disjoint non-empty classes that covers `items`."""
    if not items:
        return [[]]
    return [
        [first, *tail]
        for size in range(1, len(items) + 1)
        for first in combinations(items, size)
        for tail in ordered_partitions([p for p in items if p not in first])
    ]


def fits(classes: list[tuple], invokes: dict, responds: dict) -> bool:
    """Whether `classes`, in order, set-linearize the history. Each class's
    point is placed as early as it can be: just after its latest invoke and
    after the previous point, by a step below 1/len(classes), so that every
    point may fall between the same two events."""
    step = 1 / (len(classes) + 1)
    point, seen = -1.0, set()
    for members in classes:
        point = max(point, *(invokes[p][1] for p in members)) + step
        seen |= {(p, invokes[p][0]) for p in members}
        for p in members:
            if p in responds and (responds[p][1] < point or responds[p][0] != seen):
                return False
    return True


def set_linearizable(invokes: dict, responds: dict) -> bool:
    """Search every ordered partition of the responders plus any subset of
    the pending invokers. `invokes` maps pid -> (value, step), `responds`
    pid -> (view, step)."""
    if not responds.keys() <= invokes.keys():
        return False
    pending = [p for p in invokes if p not in responds]
    return any(
        fits(classes, invokes, responds)
        for size in range(len(pending) + 1)
        for extra in combinations(pending, size)
        for classes in ordered_partitions([*responds, *extra])
    )


def agree(order: list[tuple[str, int]], views: dict[int, frozenset], n: int) -> bool:
    """Check the history whose events are `order` (kind, pid), pid p
    invoking 10p and responder p returning `views[p]`, with both `check_is`
    and the search; assert they agree and return the search's answer."""
    invokes, responds, events = {}, {}, []
    for step, (kind, p) in enumerate(order):
        if kind == "invoke":
            invokes[p] = (10 * p, step)
            events.append(inv(p, 10 * p))
        else:
            responds[p] = (views[p], step)
            events.append(resp(p, views[p]))
    report = check_is(mk_trace(events, n=n), OBJ)
    found = set_linearizable(invokes, responds)
    assert all(report.verdicts[v].ok for v in SAFETY) == found, (order, views)
    return found


def candidate_pairs(n: int) -> list[tuple[int, int]]:
    """The n true pairs and one pair with a value its pid never proposes."""
    return [(p, 10 * p) for p in range(1, n + 1)] + [(1, -1)]


def events_of(statuses: tuple[int, ...]) -> list[tuple[str, int]]:
    """Events of pids whose status is 0 (absent), 1 (invoke only) or 2
    (invoke, then respond), in pid order."""
    return [("invoke", p) for p, s in enumerate(statuses, 1) if s] + [
        ("respond", p) for p, s in enumerate(statuses, 1) if s == 2
    ]


def test_seeded_histories_up_to_n4():
    """5,000 histories at n = 2, 3, 4. Half take their views from a random
    ordered partition, and half of those then gain or lose one pair, so
    both answers are common."""
    rng = random.Random(0)
    found = 0
    for _ in range(5000):
        n = rng.randint(2, 4)
        statuses = tuple(rng.randrange(3) for _ in range(n))
        order = events_of(statuses)
        rng.shuffle(order)
        responders = [p for p, s in enumerate(statuses, 1) if s == 2]
        for p in responders:
            i, r = order.index(("invoke", p)), order.index(("respond", p))
            order[min(i, r)], order[max(i, r)] = ("invoke", p), ("respond", p)
        pairs = candidate_pairs(n)
        if rng.random() < 0.5:
            members = [p for p, s in enumerate(statuses, 1) if s and rng.random() < 0.8]
            rank = {p: rng.randrange(n) for p in sorted({*members, *responders})}
            views = {
                p: frozenset((q, 10 * q) for q in rank if rank[q] <= rank[p])
                for p in responders
            }
            if responders and rng.random() < 0.5:
                p = rng.choice(responders)
                views[p] = views[p] ^ {rng.choice(pairs)}
        else:
            views = {
                p: frozenset(q for q in pairs if rng.random() < 0.5) for p in responders
            }
        found += agree(order, views, n)
    assert 1000 < found < 4000


@pytest.mark.slow
def test_every_history_at_n3():
    """Each pid absent, invoke-only or invoke-then-respond, every event
    order, each view any subset of the candidate pairs: 397,216 histories,
    1,297 of them set-linearizable."""
    pairs = candidate_pairs(3)
    views = [frozenset(c) for r in range(5) for c in combinations(pairs, r)]
    histories = found = 0
    for statuses in product(range(3), repeat=3):
        responders = [p for p, s in enumerate(statuses, 1) if s == 2]
        for order in permutations(events_of(statuses)):
            if any(
                order.index(("respond", p)) < order.index(("invoke", p))
                for p in responders
            ):
                continue
            for chosen in product(views, repeat=len(responders)):
                histories += 1
                found += agree(order, dict(zip(responders, chosen)), 3)
    assert (histories, found) == (397_216, 1_297)
