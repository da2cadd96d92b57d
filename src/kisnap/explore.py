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

from .checkers import LeafFold, TraceFold
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
from .primitives import ConsProposeStep, ScanStep, WriteStep
from .trace import Event, Trace

# ── Action footprints and independence ───────────────────────────────────────
#
# `independent` is the standard requirement for sleep sets: co-enabled
# independent actions commute and neither disables the other. It needs to
# know what an action touches. A commit names its object and batch and a
# crash its pid, so only a step needs more: its footprint is the step record
# the process takes. The footprint is taken at the node where the action
# is first seen and stays valid while the action sits in a sleep set (the
# owning process cannot move, so its step is unchanged). The relation:
#
# * two crashes are dependent (crash order is kept explicit);
# * a crash of p is dependent with a step of p and with a commit whose
#   batch holds p;
# * two commits are dependent exactly when they are on the same object, and
#   a commit commutes with every step;
# * a write of array A is dependent with a scan of A;
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
    # write; only a scan of the written array conflicts with it.
    if type(fb) is WriteStep:
        fa, fb = fb, fa
    if type(fa) is WriteStep:
        return type(fb) is not ScanStep or fb.array != fa.array
    if type(fa) is ConsProposeStep and type(fb) is ConsProposeStep:
        return fa.obj != fb.obj
    return True  # reads commute; pending-set insertions commute


# ── DFS enumeration ──────────────────────────────────────────────────────────
#
# One explicit-stack loop walks every mode. A frame is an interior node with
# at least one live action: [world, live (action, footprint) pairs, sleep
# set, index of the next child, length of the event prefix at the node,
# checkers' state of that prefix or None]. Backtracking to a frame cuts the
# shared event buffer back to its mark. Each leaf's trace gets a
# `checkers.LeafFold`: the nearest checkers' state on the path, extended
# over the leaf's events once a checker asks. Frames get states
# (`_path_fold`) at leaves only, and only while the leaves are being
# checked (the last leaf's state covers all its events), so a subtree
# without leaves, or a walk nobody checks, computes none.
# The walk calls `enabled_step_actions` once per node, `crash_candidates`
# once per interior node, `action_footprint` once per live action,
# `apply_action` once per transition and `finalize_trace` once per leaf,
# each through this module's globals: the benchmark counts nodes and times
# layers by rebinding them (`test_reduced_alg1_explore_call_pattern`). A
# crash child still gets its step menu from that call, which copies the
# memo `apply_action` derived from its parent's (`World.steps`) instead of
# running the guards again. The commit menu depends on `world.kis` alone
# and every transition that leaves the k-IS state alone passes the same
# dict on, so the walk calls `enabled_commit_actions` only when `world.kis`
# is a different object: crash children and register steps reuse it. The
# reused list is never mutated (`menu` is the fresh list of
# `enabled_step_actions`).


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
    world, events = initial_world(instance)
    root = TraceFold.empty(instance.n)
    leaf = None  # the last leaf's LeafFold
    stack: list[list] = []
    sleep: dict = {}
    kis = commits = None  # the `world.kis` that `commits` was built from
    while True:
        # Visit `world`, reached with `sleep` at depth len(stack).
        menu = enabled_step_actions(world)
        if world.kis is not kis:
            kis = world.kis
            commits = enabled_commit_actions(world)
        menu += commits
        if not menu or (depth_bound is not None and len(stack) >= depth_bound):
            # finalize_trace appends blocked events to the list it gets, so
            # it gets a copy of the shared prefix.
            trace = finalize_trace(instance, world, events[:], truncated=bool(menu))
            # Frames keep states only while the leaves are being checked,
            # that is while the last leaf's state covers all its events.
            checked = leaf is not None and leaf.state.length == len(leaf.events)
            base = _path_fold(stack, events, root) if checked else root
            trace.fold = leaf = LeafFold(trace.events, base)
            yield trace
        else:
            menu += crash_candidates(world)
            live = [(a, action_footprint(world, a)) for a in menu if a not in sleep]
            if live:
                stack.append([world, live, sleep, 0, len(events), None])
        # Take the next unexplored child of the deepest open frame.
        while stack:
            frame = stack[-1]
            parent, live, sleep, i, mark, _ = frame
            if i < len(live):
                break
            stack.pop()
        else:
            return
        frame[3] = i + 1
        del events[mark:]
        a, fa = live[i]
        world, evs = apply_action(parent, a)
        _stamp(events, evs)
        if reduced:
            # The child sleeps on every sleeping or earlier-explored action
            # independent of `a`.
            child_sleep = {
                s: fs for s, fs in sleep.items() if independent(s, fs, a, fa)
            }
            for s, fs in live[:i]:
                if independent(s, fs, a, fa):
                    child_sleep[s] = fs
            sleep = child_sleep


def _path_fold(stack: list[list], events: list[Event], root: TraceFold) -> TraceFold:
    """The checkers' state of the deepest frame on the path that keeps one,
    after giving one to each frame below the deepest frame that had one
    and with children left: only those serve later leaves. A frame on its
    last child never needs its own, so its events are folded together with
    the next ones."""
    i = len(stack)
    while i and stack[i - 1][5] is None:
        i -= 1
    fold = stack[i - 1][5] if i else root
    for frame in stack[i:]:
        if frame[3] < len(frame[1]):
            fold = frame[5] = fold.extended(events, frame[4])
    return fold
