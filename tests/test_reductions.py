"""Reduction algorithm tests: the agreement-degree formula, scripted worked
examples of the k-IS based set-agreement reduction, and the strawman."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kisnap import (
    ReplaySchedule,
    enumerate_runs,
    make_instance,
    run,
    run_random,
    xsa_bound,
)
from kisnap.checkers import check_is, check_theorem1, check_xsa, object_history


# ── Agreement degree formula ─────────────────────────────────────────────────

# Frozen reference values of max(1, t+k-(n-2)).
BOUND_TABLE = {
    (11, 1, 1): 1,
    (11, 1, 10): 2,
    (11, 5, 10): 6,
    (11, 9, 9): 9,
    (11, 10, 10): 11,
    (3, 1, 1): 1,
    (3, 2, 2): 3,
    (4, 2, 2): 2,
    (5, 2, 2): 1,
}


def test_bound_reference_values():
    for (n, t, k), x in BOUND_TABLE.items():
        assert xsa_bound(n, t, k) == x, (n, t, k)


def test_bound_rejects_out_of_range_parameters():
    for n, t, k in [(2, 1, 1), (3, 0, 1), (3, 1, 0), (3, 2, 1), (3, 1, 3), (5, 3, 2)]:
        with pytest.raises(ValueError):
            xsa_bound(n, t, k)


@st.composite
def valid_ntk(draw):
    n = draw(st.integers(3, 40))
    t = draw(st.integers(1, n - 1))
    k = draw(st.integers(t, n - 1))
    return n, t, k


@settings(max_examples=300, deadline=None)
@given(valid_ntk())
def test_bound_properties(ntk):
    n, t, k = ntk
    x = xsa_bound(n, t, k)
    assert x == max(1, t + k - (n - 2))
    assert 1 <= x <= k + 1
    # Degenerates to consensus exactly when t + k stays below n - 1.
    assert (x == 1) == (t + k <= n - 1)
    # Monotone in both the crash budget and the concurrency degree.
    if t > 1:
        assert xsa_bound(n, t - 1, k) <= x
    if k > t:
        assert xsa_bound(n, t, k - 1) <= x


# ── Scripted worked examples of the reduction ────────────────────────────────


def park_all(n):
    return [("step", p) for p in range(1, n + 1)]


def test_reduction_worked_example_all_decide_smallest_view_minimum():
    """n=3, t=1, k=1, inputs (7, 2, 9): the first class {p1, p2} publishes
    view {(1,7),(2,2)}, which stays the smallest view every scanner sees, so
    every process decides 2."""
    inst = make_instance("alg1", 3, 1, 1, inputs=(7, 2, 9))
    v12 = frozenset({(1, 7), (2, 2)})
    v123 = frozenset({(1, 7), (2, 2), (3, 9)})
    actions = [
        ("step", 1), ("step", 2),        # park on the k-IS object
        ("commit", "kis", (1, 2)),       # first concurrency class
        ("step", 3),
        ("commit", "kis", (3,)),         # second class, cumulative view
        ("step", 1), ("step", 2), ("step", 3),   # write views
        ("step", 1), ("step", 2), ("step", 3),   # scan and decide
    ]
    trace = run(inst, ReplaySchedule(actions)).trace
    assert trace.decisions() == {1: 2, 2: 2, 3: 2}
    h = object_history(trace, "kis")
    assert h.view_of(1) == v12 and h.view_of(2) == v12
    assert h.view_of(3) == v123
    assert check_xsa(trace, 1).passed


def test_reduction_worked_example_two_decisions_without_crashes():
    """n=4, t=2, k=2: the class committed second can write and scan first.
    Group {3,4} commits first but writes late; group {1,2} sees only the
    full view and decides its minimum, then group {3,4} sees its own small
    view and decides a different value. Exactly bound = 2 decisions."""
    inst = make_instance("alg1", 4, 2, 2)  # inputs 101..104
    actions = [
        *park_all(4),
        ("commit", "kis", (3, 4)),       # first class: view {103, 104}
        ("commit", "kis", (1, 2)),       # second class: full view
        ("step", 1), ("step", 2),        # group {1,2} writes first
        ("step", 1), ("step", 2),        # scans see only the full view
        ("step", 3), ("step", 4),        # group {3,4} writes its small view
        ("step", 3), ("step", 4),        # scans see it and decide 103
    ]
    trace = run(inst, ReplaySchedule(actions)).trace
    assert trace.decisions() == {1: 101, 2: 101, 3: 103, 4: 103}
    assert len(set(trace.decisions().values())) == xsa_bound(4, 2, 2) == 2
    assert check_xsa(trace, 2).passed
    assert not check_xsa(trace, 1).passed  # tight: 2 decisions exceed x=1


def test_reduction_never_exceeds_bound_exhaustively_at_n3():
    for t, k in [(1, 1), (1, 2), (2, 2)]:
        inst = make_instance("alg1", 3, t, k)
        bound = xsa_bound(3, t, k)
        observed = 0
        for tr in enumerate_runs(inst, reduced=True):
            rep = check_xsa(tr, bound)
            assert rep.passed, (t, k, rep.failures())
            observed = max(observed, len(set(tr.decisions().values())))
        assert observed == bound  # the bound is attained, not just respected


def test_two_object_variant_matches_bound_exhaustively():
    inst = make_instance("alg1_variant", 3, 1, 1)
    bound = xsa_bound(3, 1, 1)
    for tr in enumerate_runs(inst, reduced=True):
        assert check_xsa(tr, bound).passed
        assert check_is(tr, "kis1", k=1).passed
        assert check_is(tr, "kis2", k=1).passed


# ── Consensus-based k-IS construction ────────────────────────────────────────


def test_consensus_based_construction_histories_are_kis():
    inst = make_instance("alg2", 3, 1, 1)
    for seed in range(50):
        tr = run_random(inst, seed).trace
        assert check_is(tr, "ckis", k=1).passed
        assert check_theorem1(tr, "ckis", k=1).passed


def test_composition_decides_single_value_inside_consensus_zone():
    """Reduction over the constructed object at n=5, t=k=2: x = 1."""
    inst = make_instance("alg1_over_alg2", 5, 2, 2)
    for seed in range(20):
        tr = run_random(inst, seed).trace
        assert check_xsa(tr, 1).passed
        assert check_is(tr, "ckis", k=2).passed


# ── Strawman ────────────────────────────────────────────────────────────────


def test_naive_attempt_returns_when_k_at_least_t():
    inst = make_instance("naive", 4, 1, 2)
    for seed in range(20):
        tr = run_random(inst, seed).trace
        assert tr.quiescent is False and not tr.truncated
        for pid, outcome in tr.outcomes.items():
            assert outcome[0] in ("returned", "crashed")


def test_naive_views_are_snapshots_but_not_immediate():
    """The strawman's scans satisfy containment yet break immediacy: a late
    scanner can see strictly more than an earlier scanner that it is already
    visible to. The checker must catch this on some schedule."""
    inst = make_instance("naive", 3, 1, 2)
    failures = 0
    for tr in enumerate_runs(inst, reduced=False):
        rep = check_is(tr, "nkis", k=2)
        assert rep.verdicts["containment"].ok
        assert rep.verdicts["self_inclusion"].ok
        assert rep.verdicts["validity"].ok
        if not rep.verdicts["immediacy"].ok:
            failures += 1
    assert failures > 0


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance("alg1", 3, 2, 1)  # t > k
    with pytest.raises(ValueError):
        make_instance("alg1", 2, 1, 1)  # n < 3
    with pytest.raises(ValueError):
        make_instance("unknown", 3, 1, 1)
    with pytest.raises(ValueError):
        make_instance("alg1", 3, 1, 1, inputs=(1, 2))  # wrong arity
    make_instance("naive", 4, 2, 1)  # k < t is the strawman's whole point
    for algo in ("alg1", "alg1_variant", "alg2", "alg1_over_alg2", "kis_oracle", "naive"):
        with pytest.raises(ValueError):
            make_instance(algo, 3, 1, None)  # k is needed
    make_instance("is_impl", 2, 0, None)  # no paper range
    make_instance("cons_oracle", 2, 1, None)
