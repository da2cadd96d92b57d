"""Shared-memory objects: k-immediate-snapshot oracle, consensus oracle, and
a wait-free immediate-snapshot routine built from SWMR registers.

The oracles are model primitives driven by the scheduler. The k-IS oracle
buffers pending invocations and releases them in adversary-chosen batches
(concurrency classes), each cumulative view at least n-k pairs. A consensus
object's whole state is its decided value: BOTTOM until the first
linearized proposal, which wins atomically and is every proposer's result.
The register-level routine is an ordinary program that implements one-shot
immediate snapshot without any oracle, by descending levels: it is
wait-free, so it cannot enforce any minimum view size.
"""

from __future__ import annotations

from typing import NamedTuple

from .primitives import (
    BOTTOM,
    Announce,
    KisInvokeStep,
    ConsProposeStep,
    ScanStep,
    WriteStep,
)


class ObjectError(ValueError):
    """Illegal object operation (double invoke, bad commit batch)."""


# ── k-immediate-snapshot oracle ──────────────────────────────────────────────


class KisState(NamedTuple):
    """Immutable state of one k-IS oracle object.

    `floor` is n-k, the size every released view must reach. `pending`
    maps each invoker not yet in any committed class to its proposal, and
    `view` is the union of the committed concurrency classes, the view the
    last commit released. A crashed process's pending invocation stays
    committable but is never released. Every invoker is either pending or
    in `view`. Transitions build new `pending` dicts and never mutate one,
    the shared empty default included.
    """

    floor: int
    pending: dict = {}
    view: frozenset = frozenset()

    def min_batch_size(self) -> int:
        """Smallest batch the gate admits next."""
        return max(1, self.floor - len(self.view))


def kis_invoke(st: KisState, pid: int, value: object) -> KisState:
    if pid in st.pending or any(p == pid for p, _ in st.view):
        raise ObjectError(f"process {pid} invoked k-IS object twice")
    return KisState(st.floor, {**st.pending, pid: value}, st.view)


def kis_commit_batch(
    st: KisState, batch: tuple[int, ...], crashed: frozenset[int]
) -> tuple[KisState, frozenset, list[tuple[int, frozenset]]]:
    """Commit `batch` as the next concurrency class.

    Returns (new state, cumulative view, releases), where releases lists the
    (pid, view) deliveries for non-crashed batch members in batch order,
    which is pid order for the sorted batches the simulator commits. Every
    released process sees the same cumulative view: the union of all classes
    committed so far, which is what makes the class sequence a valid
    set-linearization.
    """
    pending = st.pending
    if not batch:
        raise ObjectError("empty commit batch")
    members = set(batch)
    if len(members) != len(batch):
        raise ObjectError(f"duplicate pids in batch {tuple(sorted(batch))}")
    if not pending.keys() >= members:
        raise ObjectError(
            f"batch {tuple(sorted(batch))} not a subset of pending {sorted(pending)}"
        )
    if len(batch) < st.min_batch_size():
        raise ObjectError(
            f"batch of {len(batch)} violates output-size gate "
            f"(need cumulative >= {st.floor})"
        )
    view = st.view | frozenset([(p, pending[p]) for p in batch])
    releases = [(p, view) for p in batch if p not in crashed]
    rest = {p: v for p, v in pending.items() if p not in members}
    return KisState(st.floor, rest, view), view, releases


# ── Consensus oracle ─────────────────────────────────────────────────────────


def consensus_propose(decided: object, value: object) -> tuple[object, object]:
    """(decided value after the proposal, its result): the first linearized
    proposal wins, atomically. An undecided object holds BOTTOM."""
    if decided is not BOTTOM:
        return decided, decided
    return value, value


# ── Wait-free immediate snapshot from SWMR registers ────────────────────────


def is_array(obj: str) -> str:
    """Register array backing a register-level IS object."""
    return f"is.{obj}"


def is_write_snapshot(ctx, obj: str, value: object):
    """One-shot immediate snapshot via level descent (no oracle, wait-free).

    The caller starts at level n and repeats: write (value, level) to its own
    cell, scan the array, and collect the pairs whose current level is at
    most its own. When that set has exactly `level` members it is returned.
    At most level processes ever sit at or below a level, so the loop exits
    by level 1 at the latest; the returned sets satisfy all immediate
    snapshot properties but can be as small as a singleton, which is why no
    wait-free implementation can promise the k-IS minimum view size.
    """
    arr = is_array(obj)
    yield Announce("invoke", obj, "write_snapshot", args=value)
    level = ctx.n
    while True:
        yield WriteStep(arr, (value, level))
        cells = yield ScanStep(arr)
        seen = []
        for j, cell in enumerate(cells, start=1):
            if cell is not BOTTOM and cell[1] <= level:
                seen.append((j, cell[0]))
        if len(seen) == level:
            view = frozenset(seen)
            yield Announce("respond", obj, "write_snapshot", ret=view)
            return view
        level -= 1
        if level < 1:
            raise AssertionError("immediate snapshot descended below level 1")


# ── Bare single-operation programs (oracle/routine drivers) ─────────────────


def kis_once(ctx, obj: str, value: object):
    """Invoke a k-IS oracle once and return its view."""
    view = yield KisInvokeStep(obj, value)
    return view


def cons_once(ctx, obj: str, value: object):
    """Propose to a consensus object once and return the decision."""
    decision = yield ConsProposeStep(obj, value)
    return decision
