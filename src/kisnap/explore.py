"""Exhaustive schedule exploration.

`enumerate_runs` walks the full scheduling tree of an instance by DFS and
yields one finished trace per maximal run. Two modes:

* literal (default): every distinct maximal interleaving exactly once;
* reduced: sleep-set partial-order reduction, one representative per
  equivalence class of runs that differ only in the order of independent
  adjacent actions (`independent`; the relation is listed above it).

All checked outcomes (decision sets, object histories, crash/blocked
status) are invariant under commuting independent actions, so the reduced
mode reaches the same outcome universe; tests cross-validate the two modes
on small instances. Crash actions are branched only at states that still
have an enabled non-crash action (a crash-only suffix changes no outcome),
which keeps maximal runs finite.
"""

from __future__ import annotations

from typing import Iterator

from .core import (
    Instance,
    World,
    _stamp,
    apply_action,
    crash_candidates,
    enabled_commit_actions,
    enabled_step_actions,
    finalize_trace,
    initial_world,
)
from .primitives import ConsProposeStep, ScanStep, WaitAnyStep, WriteStep
from .trace import Event, Trace

# ── Action footprints and independence ───────────────────────────────────────
#
# `independent` is the standard requirement for sleep sets: co-enabled
# independent actions commute and neither disables the other. It needs to
# know what an action touches. A commit names its object and batch and a
# crash its pid, so only a step needs more: its footprint is the step record
# the process waits on. The footprint is taken at the node where the action
# is first seen and stays valid while the action sits in a sleep set (the
# owning process cannot move, so its step is unchanged). The relation:
#
# * two crashes are dependent (crash order is kept explicit);
# * a crash of p is dependent with a step of p and with a commit whose
#   batch holds p;
# * two commits are dependent exactly when they are on the same object, and
#   a commit commutes with every step;
# * a write of array A by p is dependent with a scan of A and with a wait
#   that watches (A, p);
# * two proposes are dependent exactly when they are on the same object;
# * every other pair is independent.


def action_footprint(world: World, action: tuple):
    """The step record of a step action; None for a commit or a crash."""
    if action[0] == "step":
        return world.procs[action[1] - 1].step
    return None


def independent(a: tuple, fa, b: tuple, fb) -> bool:
    ka, kb = a[0], b[0]
    if ka == "crash" or kb == "crash":
        if ka == kb:
            return False
        (_, pid), other = (a, b) if ka == "crash" else (b, a)
        if other[0] == "step":
            return other[1] != pid
        return pid not in other[2]
    if ka == "commit" or kb == "commit":
        # A commit touches only oracle state and parked processes; any
        # process with an enabled step is not parked, and a still-pending
        # invoke cannot already sit in the committed batch, so commits
        # commute with every enabled step.
        return ka != kb or a[1] != b[1]
    # Two steps. Writes by distinct pids fill distinct cells, and one pid
    # never has two co-enabled steps, so a write commutes with every other
    # write; only a read of the written cell conflicts with it.
    if type(fb) is WriteStep:
        a, fa, b, fb = b, fb, a, fa
    if type(fa) is WriteStep:
        kind = type(fb)
        if kind is ScanStep:
            return fb.array != fa.array
        if kind is WaitAnyStep:
            return (fa.array, a[1]) not in fb.watches
        return True
    if type(fa) is ConsProposeStep and type(fb) is ConsProposeStep:
        return fa.obj != fb.obj
    return True  # reads commute; pending-set insertions commute


def _never_independent(a, fa, b, fb) -> bool:
    return False


# ── DFS enumeration ──────────────────────────────────────────────────────────


def enumerate_runs(
    instance: Instance,
    *,
    reduced: bool = False,
    depth_bound: int | None = None,
) -> Iterator[Trace]:
    """Yield every maximal run of `instance` (one trace per interleaving).

    With `reduced=True`, sleep-set pruning keeps one interleaving per
    trace-equivalence class. `depth_bound` caps the number of scheduler
    actions per run and yields the runs it cuts off as truncated traces.
    """
    indep = independent if reduced else _never_independent
    world0, init_events = initial_world(instance)
    events: list[Event] = []
    _stamp(events, init_events)

    def leaf(world: World, truncated: bool) -> Trace:
        # finalize_trace appends blocked events into the shared buffer;
        # give it a private copy of the prefix instead.
        return finalize_trace(
            world, list(events), truncated=truncated, meta=instance.meta
        )

    def dfs(world: World, sleep: dict, depth: int) -> Iterator[Trace]:
        menu = enabled_step_actions(world) + enabled_commit_actions(world)
        if not menu:
            yield leaf(world, truncated=False)
            return
        if depth_bound is not None and depth >= depth_bound:
            yield leaf(world, truncated=True)
            return
        options = menu + [("crash", p) for p in crash_candidates(world)]
        live = [a for a in options if a not in sleep]
        if not live:
            return
        fps = {a: action_footprint(world, a) for a in live}
        explored: list[tuple] = []
        for a in live:
            fa = fps[a]
            child, evs = apply_action(world, a)
            mark = len(events)
            _stamp(events, evs)
            child_sleep = {
                s: fs for s, fs in sleep.items() if indep(s, fs, a, fa)
            }
            for s, fs in explored:
                if indep(s, fs, a, fa):
                    child_sleep[s] = fs
            yield from dfs(child, child_sleep, depth + 1)
            del events[mark:]
            explored.append((a, fa))

    yield from dfs(world0, {}, 0)

