"""Exhaustive schedule exploration.

`enumerate_runs` walks the full scheduling tree of an instance by DFS and
yields one finished trace per maximal run. Two modes:

* literal (default): every distinct maximal interleaving exactly once;
* reduced: sleep-set partial-order reduction, one representative per
  equivalence class of runs that differ only in the order of independent
  adjacent actions.

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
    SimError,
    World,
    _stamp,
    apply_action,
    crash_candidates,
    current_step,
    enabled_commit_actions,
    enabled_step_actions,
    finalize_trace,
    initial_world,
)
from .primitives import (
    ConsProposeStep,
    KisInvokeStep,
    ScanStep,
    WaitAnyStep,
    WriteStep,
)
from .trace import Event, Trace

# ── Action footprints and independence ───────────────────────────────────────
#
# A footprint summarizes what an action touches; `independent` is the
# standard requirement for sleep sets: co-enabled independent actions
# commute and neither disables the other. Footprints are computed at the
# node where the action is first seen and stay valid while the action sits
# in a sleep set (the owning process cannot move, so its step is unchanged).


def action_footprint(world: World, action: tuple) -> tuple:
    kind = action[0]
    if kind == "step":
        pid = action[1]
        step = current_step(world, pid)
        cls = type(step)
        if cls is WriteStep:
            return ("w", step.array, pid)
        if cls is ScanStep:
            return ("scan", step.array)
        if cls is WaitAnyStep:
            return ("r", tuple(step.watches))
        if cls is KisInvokeStep:
            return ("kinv", step.obj)
        if cls is ConsProposeStep:
            return ("cons", step.obj)
        raise SimError(f"process {pid} yielded an unknown step {step!r}")
    if kind == "commit":
        return ("kcommit", action[1], frozenset(action[2]))
    if kind == "crash":
        return ("crash", action[1])
    raise AssertionError(f"unexpected action {action!r}")


def independent(a: tuple, fa: tuple, b: tuple, fb: tuple) -> bool:
    ka, kb = fa[0], fb[0]
    if ka == "crash" or kb == "crash":
        if ka == "crash" and kb == "crash":
            return False  # conservative: crash order kept explicit
        crash_pid = fa[1] if ka == "crash" else fb[1]
        other_action = b if ka == "crash" else a
        other_fp = fb if ka == "crash" else fa
        if other_action[0] == "step":
            return other_action[1] != crash_pid
        if other_action[0] == "commit":
            return crash_pid not in other_fp[2]
        return True
    if ka == "kcommit" and kb == "kcommit":
        return fa[1] != fb[1]
    if ka == "kcommit" or kb == "kcommit":
        # A commit touches only oracle state and parked processes; any
        # process with an enabled step is not parked, and a still-pending
        # invoke cannot already sit in the committed batch, so commits
        # commute with every enabled step.
        return True
    if ka == "cons" and kb == "cons":
        return fa[1] != fb[1]
    if ka == "w" and kb == "w":
        return not (fa[1] == fb[1] and fa[2] == fb[2])
    if ka == "w" or kb == "w":
        w, r = (fa, fb) if ka == "w" else (fb, fa)
        if r[0] == "scan":
            return w[1] != r[1]
        if r[0] == "r":
            return (w[1], w[2]) not in r[1]
        return True  # write vs object op
    return True  # reads commute; pending-set insertions commute


def _never_independent(a, fa, b, fb) -> bool:
    return False


# ── DFS enumeration ──────────────────────────────────────────────────────────


def enumerate_runs(
    instance: Instance,
    *,
    reduced: bool = False,
    depth_bound: int | None = None,
    max_runs: int | None = None,
) -> Iterator[Trace]:
    """Yield every maximal run of `instance` (one trace per interleaving).

    With `reduced=True`, sleep-set pruning keeps one interleaving per
    trace-equivalence class. `depth_bound` caps the number of scheduler
    actions per run and yields the runs it cuts off as truncated traces;
    `max_runs` stops the walk after that many yields.
    """
    indep = independent if reduced else _never_independent
    world0, init_events = initial_world(instance)
    events: list[Event] = []
    _stamp(events, init_events)
    count = 0

    def leaf(world: World, truncated: bool) -> Trace:
        # finalize_trace appends blocked events into the shared buffer;
        # give it a private copy of the prefix instead.
        return finalize_trace(
            world, list(events), truncated=truncated, meta=instance.meta
        )

    def dfs(world: World, sleep: dict, depth: int) -> Iterator[Trace]:
        nonlocal count
        if max_runs is not None and count >= max_runs:
            return
        menu = enabled_step_actions(world) + enabled_commit_actions(world)
        if not menu:
            count += 1
            yield leaf(world, truncated=False)
            return
        if depth_bound is not None and depth >= depth_bound:
            count += 1
            yield leaf(world, truncated=True)
            return
        options = menu + [("crash", p) for p in crash_candidates(world)]
        live = [a for a in options if a not in sleep]
        if not live:
            return
        fps = {a: action_footprint(world, a) for a in live}
        explored: list[tuple[tuple, tuple]] = []
        for a in live:
            if max_runs is not None and count >= max_runs:
                return
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


def count_runs(instance: Instance, **kw) -> int:
    return sum(1 for _ in enumerate_runs(instance, **kw))
