"""Shared-memory objects: k-immediate-snapshot oracle, consensus oracle, and
a wait-free immediate-snapshot routine built from SWMR registers.

The oracles are model primitives driven by the scheduler: the k-IS oracle
buffers pending invocations and releases them in adversary-chosen batches
(concurrency classes), the consensus oracle decides atomically for the first
linearized proposer. The register-level routine is an ordinary program that
implements one-shot immediate snapshot without any oracle, by descending
levels: it is wait-free, so it cannot enforce any minimum view size.
"""

from __future__ import annotations

from collections import namedtuple
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


class KisState(namedtuple("KisState", "n_obj k_obj invoked pending view")):
    """Immutable state of one k-IS oracle object.

    `invoked` maps pid to proposed value (pid-sorted pair tuple), `pending`
    holds invokers not yet in any committed class, and `view` is the union
    of the committed concurrency classes, the view the last commit
    released. A crashed process's pending invocation stays committable but
    is never released. Every invoker is either pending or in `view`.
    """

    __slots__ = ()

    def __new__(
        cls,
        n_obj: int,
        k_obj: int,
        invoked: tuple[tuple[int, object], ...] = (),
        pending: frozenset[int] = frozenset(),
        view: frozenset = frozenset(),
    ):
        if not (1 <= k_obj <= n_obj - 1):
            raise ObjectError(
                f"k-IS object requires 1 <= k <= n-1, got n={n_obj} k={k_obj}"
            )
        return tuple.__new__(cls, (n_obj, k_obj, invoked, pending, view))

    def min_batch_size(self) -> int:
        """Smallest batch the gate admits next."""
        return max(1, self.n_obj - self.k_obj - len(self.view))


def kis_invoke(st: KisState, pid: int, value: object) -> KisState:
    if any(p == pid for p, _ in st.invoked):
        raise ObjectError(f"process {pid} invoked k-IS object twice")
    invoked = tuple(sorted(st.invoked + ((pid, value),)))
    # `_make` skips the validating `__new__`: n_obj and k_obj are unchanged
    # and `st` passed it.
    return KisState._make((st.n_obj, st.k_obj, invoked, st.pending | {pid}, st.view))


def kis_commit_batch(
    st: KisState, batch: tuple[int, ...], crashed: frozenset[int]
) -> tuple[KisState, frozenset, list[tuple[int, frozenset]]]:
    """Commit `batch` as the next concurrency class.

    Returns (new state, cumulative view, releases), where releases lists the
    (pid, view) deliveries for non-crashed batch members in pid order. Every
    released process sees the same cumulative view: the union of all classes
    committed so far, which is what makes the class sequence a valid
    set-linearization.
    """
    pids = tuple(sorted(batch))
    if not pids:
        raise ObjectError("empty commit batch")
    if len(set(pids)) != len(pids):
        raise ObjectError(f"duplicate pids in batch {pids}")
    if not set(pids) <= st.pending:
        raise ObjectError(f"batch {pids} not a subset of pending {sorted(st.pending)}")
    if len(pids) < st.min_batch_size():
        raise ObjectError(
            f"batch of {len(pids)} violates output-size gate "
            f"(need cumulative >= {st.n_obj - st.k_obj})"
        )
    values = dict(st.invoked)
    view = st.view | frozenset((p, values[p]) for p in pids)
    releases = [(p, view) for p in pids if p not in crashed]
    new_st = KisState._make(
        (st.n_obj, st.k_obj, st.invoked, st.pending - set(pids), view)
    )
    return new_st, view, releases


# ── Consensus oracle ─────────────────────────────────────────────────────────


class ConsState(NamedTuple):
    """Consensus object: the first linearized proposal wins, atomically."""

    decided: object = BOTTOM


def consensus_propose(st: ConsState, value: object) -> tuple[ConsState, object]:
    if st.decided is not BOTTOM:
        return st, st.decided
    return ConsState(value), value


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
