"""Reduction algorithms between k-immediate snapshot, x-set agreement, and
consensus, written as step programs for the simulator core.

* `alg1_xsa`: x-set agreement from one k-IS object. Each process passes its
  proposal through the k-IS object, publishes the view it got, waits until
  at least n-t views are published, and decides the smallest value in the
  smallest published view. The achievable agreement degree is
  `xsa_bound(n, t, k) = max(1, t + k - (n - 2))`.
* `alg1_variant_xsa`: same guarantee from two k-IS objects and no register
  wait: the second object snapshots the views produced by the first, and a
  process decides in the smallest view found inside its second view.
* `alg2_kis`: a k-IS object from one consensus object plus a register-level
  immediate snapshot, for t <= k. Processes publish their proposals, a
  consensus instance fixes a base view of at least n-k published pairs, and
  processes missing from the base view merge in their own immediate
  snapshot before returning.
* `naive_kis`: the blocking strawman (publish, then wait for n-k cells);
  with k < t it waits forever once more than k processes crash.

SWMR cells hold whatever a program writes; views are frozensets of
(pid, value) pairs, so views of views nest without special cases.

`CATALOG` describes each runnable algorithm once (program, shared objects,
parameter range, standard checks); `make_instance` and `standard_reports`
read it, so adding an algorithm means one program plus one entry.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

from .checkers import (
    CheckReport,
    check_consensus_linearizable,
    check_is,
    check_theorem1,
    check_xsa,
)
from .core import Instance
from .objects import cons_once, is_array, is_write_snapshot, kis_once
from .primitives import (
    BOTTOM,
    Announce,
    ConsProposeStep,
    KisInvokeStep,
    ScanStep,
    WriteStep,
)
from .trace import Trace

XSA_OBJ = "xsa"  # object id under which decisions appear in traces


def paper_range(n: int, t: int, k: int | None) -> None:
    """Raise ValueError unless n >= 3 and 1 <= t <= k <= n-1, the parameter
    zone of the paper's constructions."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if k is None:
        raise ValueError("this algorithm needs k")
    if not (1 <= t <= k <= n - 1):
        raise ValueError(f"need 1 <= t <= k <= n-1, got t={t} k={k} n={n}")


@lru_cache(maxsize=128)
def xsa_bound(n: int, t: int, k: int) -> int:
    """Agreement degree x of the k-IS-to-x-SA reduction: max(1, t+k-(n-2)).

    Preconditions: `paper_range(n, t, k)`. The standard x-SA check asks for
    the bound of every trace, so each (n, t, k) is validated once; an
    out-of-range triple raises every time, as a raise is not remembered.
    """
    paper_range(n, t, k)
    return max(1, t + k - (n - 2))


def _smallest_view(views):
    """Smallest-cardinality view; equal-cardinality views must be identical
    (guaranteed by view containment), which removes any need to tie-break."""
    best = min(views, key=len)
    for w in views:
        if len(w) == len(best) and w != best:
            raise AssertionError(
                f"equal-size views differ: {sorted(w)} vs {sorted(best)}"
            )
    return best


def _min_value(view):
    return min(v for _, v in view)


def alg1_xsa(ctx, value):
    """x-set agreement from one k-IS object (object ids: kis, view array)."""
    yield Announce("invoke", XSA_OBJ, "propose", args=value)
    view = yield KisInvokeStep("kis", value)
    decision = yield from _publish_and_decide(ctx, view)
    return decision


def _publish_and_decide(ctx, view):
    """alg1's tail: publish `view`, wait until n-t views are published, and
    decide the smallest value in the smallest of them."""
    yield WriteStep("view", view)
    cells = yield ScanStep("view", min_filled=ctx.n - ctx.t)
    views = [c for c in cells if c is not BOTTOM]
    decision = _min_value(_smallest_view(views))
    yield Announce("respond", XSA_OBJ, "propose", ret=decision)
    return decision


def alg1_variant_xsa(ctx, value):
    """x-set agreement from two k-IS objects, no register wait.

    The first object turns proposals into views; the second snapshots those
    views. View containment on the first object makes the smallest view
    inside any second-level view unique, and every process holds at least
    n-k >= n-t first-level views in its second view, so the smallest-view
    argument goes through exactly as with the register-wait version.
    """
    yield Announce("invoke", XSA_OBJ, "propose", args=value)
    view1 = yield KisInvokeStep("kis1", value)
    view2 = yield KisInvokeStep("kis2", view1)
    decision = _min_value(_smallest_view([w for _, w in view2]))
    yield Announce("respond", XSA_OBJ, "propose", ret=decision)
    return decision


def _write_and_wait(ctx, value):
    """Write `value` to reg, wait until n-k cells are filled, and return the
    view of the filled cells: the shared prefix of alg2 and the strawman."""
    yield WriteStep("reg", value)
    cells = yield ScanStep("reg", min_filled=ctx.n - ctx.k)
    return frozenset((j, c) for j, c in enumerate(cells, start=1) if c is not BOTTOM)


def alg2_kis(ctx, value):
    """k-IS from consensus plus register-level immediate snapshot.

    Emits the emulated object's invoke/respond events under "ckis" so the
    produced trace contains a checkable k-IS history.
    """
    yield Announce("invoke", "ckis", "write_snapshot_k", args=value)
    aux = yield from _write_and_wait(ctx, value)
    view = yield ConsProposeStep("cs", aux)
    if (ctx.pid, value) not in view:
        extra = yield from is_write_snapshot(ctx, "is", value)
        view = frozenset(view | extra)
    yield Announce("respond", "ckis", "write_snapshot_k", ret=view)
    return view


def naive_kis(ctx, value):
    """Blocking strawman: write, then wait for n-k published values.

    Correct while at most k processes crash; with more than k crashes the
    scan guard can never be met and every survivor blocks, which is exactly
    the obstruction the k-IS oracle's batch gate models away.
    """
    yield Announce("invoke", "nkis", "write_snapshot_k", args=value)
    view = yield from _write_and_wait(ctx, value)
    yield Announce("respond", "nkis", "write_snapshot_k", ret=view)
    return view


def alg1_over_alg2_xsa(ctx, value):
    """Composition: the x-SA reduction running on the emulated k-IS object.

    Exercises the equivalence direction "consensus + IS implement k-IS,
    which implements 1-set agreement" inside a single run: the trace then
    carries both a k-IS history (obj ckis) and a decision history (obj xsa).
    """
    yield Announce("invoke", XSA_OBJ, "propose", args=value)
    view = yield from alg2_kis(ctx, value)
    decision = yield from _publish_and_decide(ctx, view)
    return decision


# ── The algorithm catalog ────────────────────────────────────────────────────

Check = Callable[[Trace], CheckReport]


def strawman_range(n: int, t: int, k: int | None) -> None:
    """The strawman exists to be run outside the t <= k zone: only n >= 3
    and 1 <= k <= n-1 are required."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if k is None or not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k} n={n}")


def no_range(n: int, t: int, k: int | None) -> None:
    """No paper range: only the instance's own n >= 2, 0 <= t < n apply."""


def _xsa(trace: Trace) -> CheckReport:
    return check_xsa(trace, xsa_bound(trace.n, trace.t, trace.k))


def _kis(obj: str) -> Check:
    return lambda trace: check_is(trace, obj, k=trace.k)


def _theorem1(obj: str) -> Check:
    return lambda trace: check_theorem1(trace, obj, k=trace.k)


def _cons(obj: str) -> Check:
    return lambda trace: check_consensus_linearizable(trace, obj)


@dataclass(frozen=True)
class AlgoSpec:
    """One catalog algorithm.

    `program` is a generator function of (ctx, value): every pid runs it
    with its own input bound as `value`. The instance declares the register
    `arrays`, the `kis` objects (n-process k-IS objects at the instance's
    k) and the `cons` objects; `objects` is the list of object ids its
    traces carry in meta, in that order.
    `check_range(n, t, k)` raises ValueError outside the algorithm's
    parameter range, and `checks` are the standard property checks of its
    traces.
    """

    program: Callable
    objects: tuple[str, ...]
    checks: tuple[Check, ...]
    check_range: Callable[[int, int, int | None], None] = paper_range
    arrays: tuple[str, ...] = ()
    kis: tuple[str, ...] = ()
    cons: tuple[str, ...] = ()


CATALOG: dict[str, AlgoSpec] = {
    "alg1": AlgoSpec(
        alg1_xsa, arrays=("view",), kis=("kis",),
        objects=("kis", "view", XSA_OBJ), checks=(_xsa, _kis("kis")),
    ),
    "alg1_variant": AlgoSpec(
        alg1_variant_xsa, kis=("kis1", "kis2"),
        objects=("kis1", "kis2", XSA_OBJ),
        checks=(_xsa, _kis("kis1"), _kis("kis2")),
    ),
    "alg2": AlgoSpec(
        alg2_kis, arrays=("reg", is_array("is")), cons=("cs",),
        objects=("reg", "cs", "is", "ckis"),
        checks=(
            _kis("ckis"), _theorem1("ckis"),
            lambda trace: check_is(trace, "is"), _cons("cs"),
        ),
    ),
    "naive": AlgoSpec(
        naive_kis, arrays=("reg",), check_range=strawman_range,
        objects=("reg", "nkis"), checks=(_kis("nkis"),),
    ),
    "alg1_over_alg2": AlgoSpec(
        alg1_over_alg2_xsa, arrays=("reg", is_array("is"), "view"), cons=("cs",),
        objects=("reg", "cs", "is", "ckis", "view", XSA_OBJ),
        checks=(_xsa, _kis("ckis"), _cons("cs")),
    ),
    "kis_oracle": AlgoSpec(
        partial(kis_once, obj="kis"), kis=("kis",),
        objects=("kis",), checks=(_kis("kis"), _theorem1("kis")),
    ),
    "is_impl": AlgoSpec(
        partial(is_write_snapshot, obj="is"), arrays=(is_array("is"),),
        check_range=no_range, objects=("is",),
        checks=(lambda trace: check_is(trace, "is", k=trace.n - 1),),
    ),
    "cons_oracle": AlgoSpec(
        partial(cons_once, obj="cs"), cons=("cs",),
        check_range=no_range, objects=("cs",), checks=(_cons("cs"),),
    ),
}


def default_inputs(n: int) -> tuple[int, ...]:
    """Distinct per-process proposals: pid i proposes 100+i."""
    return tuple(100 + i for i in range(1, n + 1))


def catalog_spec(algo: str) -> AlgoSpec:
    """The catalog entry of `algo`; ValueError for an unknown name."""
    if algo not in CATALOG:
        raise ValueError(f"unknown algorithm {algo!r}; known: {tuple(CATALOG)}")
    return CATALOG[algo]


def make_instance(
    algo: str, n: int, t: int, k: int | None, inputs: tuple | None = None
) -> Instance:
    """Build a runnable instance of a catalog algorithm at (n, t, k)."""
    spec = catalog_spec(algo)
    if inputs is None:
        inputs = default_inputs(n)
    if len(inputs) != n:
        raise ValueError(f"need {n} inputs, got {len(inputs)}")
    spec.check_range(n, t, k)
    programs = {
        pid: partial(spec.program, value=inputs[pid - 1]) for pid in range(1, n + 1)
    }
    return Instance(
        n, t, k, programs,
        arrays=spec.arrays,
        kis_objects=tuple((obj, n, k) for obj in spec.kis),
        cons_objects=spec.cons,
        meta={"algo": algo, "inputs": list(inputs), "objects": list(spec.objects)},
    )


def standard_reports(trace: Trace) -> list[CheckReport]:
    """The standard property checks of a trace, chosen by the algorithm
    named in its meta."""
    return [check(trace) for check in catalog_spec(trace.meta.get("algo")).checks]
