"""Two-simulator emulation tests: partitions, inner trace extraction,
crash tolerance, and the concurrent-inside witness."""

from __future__ import annotations

import pytest

from kisnap import (
    Event,
    SimError,
    Trace,
    build_simulation,
    check_simulation_trace,
    enumerate_runs,
    extract_inner_trace,
    make_partition,
    max_concurrent_inside,
    run_random,
    simulate,
    validate_trace,
)
from kisnap.checkers import Verdict, object_history


# ── Partition arithmetic ─────────────────────────────────────────────────────


def test_balanced_partition_when_budget_is_half():
    part = make_partition(4, 2)
    assert part.a0 == (1, 2) and part.a1 == (3, 4) and part.d == ()


def test_majority_budget_leaves_initially_crashed_group():
    part = make_partition(4, 3)
    assert part.a0 == (1,) and part.a1 == (2,) and part.d == (3, 4)
    part = make_partition(5, 3)
    assert part.a0 == (1, 2) and part.a1 == (3, 4) and part.d == (5,)


def test_partition_covers_crash_budget():
    """The groups cover pids 1..n, |A0| = |A1| = n-t, |D| = 2t-n, and
    |D| + |A_i| = t: one simulator crash plus the initial crashes stay
    within the inner budget."""
    for n, t in [(4, 2), (4, 3), (5, 3), (6, 3), (6, 4), (6, 5)]:
        part = make_partition(n, t)
        assert sorted(part.a0 + part.a1 + part.d) == list(range(1, n + 1))
        assert len(part.a0) == len(part.a1) == n - t
        assert len(part.d) == 2 * t - n
        assert len(part.d) + len(part.a0) == t


def test_partition_rejects_minority_budget():
    with pytest.raises(SimError):
        make_partition(4, 1)  # t < n/2: two groups cannot cover the budget
    with pytest.raises(SimError):
        make_partition(3, 3)  # t > n-1


# ── Construction shape ───────────────────────────────────────────────────────


def test_simulation_instance_shape():
    inst = build_simulation("alg1_variant", 4, 2, 2)
    assert inst.n == 2 and inst.t == 1
    assert set(inst.arrays) == {"sim.kis1", "sim.kis2"}
    assert {o for o, _, _ in inst.kis_objects} == {"med.kis1", "med.kis2"}
    assert all(n_o == 2 and k_o == 1 for _, n_o, k_o in inst.kis_objects)
    assert inst.meta["inner_objects"] == ["kis1", "kis2"]
    assert inst.meta["inner_n"] == 4


def test_simulation_rejects_register_level_inner_algorithms():
    with pytest.raises(SimError):
        build_simulation("alg1", 4, 2, 2)  # uses a plain register array
    with pytest.raises(SimError):
        build_simulation("alg2", 4, 2, 2)  # uses a consensus object
    with pytest.raises(SimError):
        build_simulation("kis_oracle", 4, 2, 2)  # decides through no xsa object


# ── End-to-end runs ──────────────────────────────────────────────────────────


def test_seeded_simulations_pass_all_checks():
    for seed in range(25):
        res, chk = simulate("alg1_variant", 4, 2, 2, seed=seed)
        assert chk.passed, (seed, [r.failures() for r in chk.reports])
        assert validate_trace(res.trace) == []
        # Whoever decided, decided an inner value.
        for q, v in chk.q_decisions.items():
            assert v in (0, 1)


def test_inner_decisions_respect_agreement_bound():
    for seed in range(25):
        _, chk = simulate("alg1_variant", 4, 2, 2, seed=seed)
        decided = set(chk.inner_decisions.values())
        assert len(decided) <= 2  # xsa bound at n=4, t=k=2


def test_simulator_crash_still_lets_other_side_finish():
    """Q2 crashes immediately: Q1 must finish alone via the mediator, and
    the extracted inner trace crashes exactly A1's unreturned members."""
    inst = build_simulation("alg1_variant", 4, 2, 2)
    res = run_random(inst, 0, initial_crashes=(2,))
    trace = res.trace
    assert trace.outcomes[1][0] == "returned"
    assert trace.outcomes[2] == ("crashed",)
    chk = check_simulation_trace(trace)
    assert chk.passed
    assert set(chk.inner_decisions) <= {1, 2}  # A0 = {1, 2}
    assert chk.inner.crashed_pids() == {3, 4}  # A1's members died with Q2


def test_majority_budget_simulation_runs():
    """n=4, t=3: groups of one, two initial crashes; still checkable."""
    for seed in range(10):
        res, chk = simulate("alg1_variant", 4, 3, 3, seed=seed)
        assert chk.passed, (seed, [r.failures() for r in chk.reports])
        assert chk.inner.crashed_pids() >= {3, 4}


# ── Inner trace extraction ───────────────────────────────────────────────────


def test_extracted_trace_is_wellformed_inner_history():
    res, chk = simulate("alg1_variant", 4, 2, 2, seed=5)
    inner = chk.inner
    assert (inner.n, inner.t, inner.k) == (4, 2, 2)
    steps = [e.step for e in inner.events]
    assert steps == sorted(steps)
    assert validate_trace(inner) == []
    # All inner events talk about inner objects, none about outer plumbing.
    assert {e.obj for e in inner.events if e.obj} <= {"kis1", "kis2", "xsa"}


def test_extraction_crashes_initially_dead_group_first():
    res, _ = simulate("alg1_variant", 4, 3, 3, seed=1)
    inner = extract_inner_trace(res.trace)
    head = [e for e in inner.events if e.kind == "crash" and e.step < 2]
    assert sorted(e.pid for e in head) == [3, 4]


def test_extract_single_object_history():
    res, _ = simulate("alg1_variant", 4, 2, 2, seed=5)
    h = object_history(extract_inner_trace(res.trace), "kis1")
    assert set(h.invokes) <= set(range(1, 5))
    for pid in h.responds:
        assert (pid, h.invokes[pid][0]) in h.view_of(pid)


def test_concurrent_inside_witness():
    """In a passing simulation every responding inner object had an instant
    with at least n-k processes inside their invocations."""
    for seed in range(10):
        res, chk = simulate("alg1_variant", 4, 2, 2, seed=seed)
        for rep in chk.reports:
            if not object_history(chk.inner, rep.obj).responds:
                assert "concurrent_inside" not in rep.verdicts
                continue
            peak, at = max_concurrent_inside(chk.inner, rep.obj)
            assert peak >= 2
            assert rep.verdicts["concurrent_inside"] == Verdict(
                True,
                f"max {peak} >= n-k = 2 processes inside at once, at step {at}",
            )


def test_solo_inner_operation_fails_concurrent_inside_witness():
    """An inner operation that completes while only its caller is inside
    fails the witness (n-k = 2 at n=4, k=2), and so fails the check."""
    view = frozenset({(1, 5)})
    outer = Trace(
        n=2, t=1, k=None,
        events=[
            Event(0, "invoke", 1, "inner.kis1", "write_snapshot_k", 5),
            Event(1, "respond", 1, "inner.kis1", "write_snapshot_k", None, view),
        ],
        outcomes={1: ("blocked",), 2: ("blocked",)},
        meta={
            "inner_n": 4, "inner_t": 2, "inner_k": 2,
            "inner_objects": ["kis1"], "partition": [[1, 2], [3, 4], []],
        },
    )
    chk = check_simulation_trace(outer)
    assert chk.reports[0].verdicts["concurrent_inside"] == Verdict(
        False, "max 1 < n-k = 2 processes inside at once, at step 0"
    )
    assert not chk.passed


def test_exhaustive_outer_exploration_covers_crashes_and_passes():
    inst = build_simulation("alg1_variant", 4, 2, 2)
    total = crashed = 0
    for tr in enumerate_runs(inst, reduced=True):
        total += 1
        chk = check_simulation_trace(tr)
        assert chk.passed, [r.failures() for r in chk.reports]
        if tr.crashed_pids():
            crashed += 1
            inner = chk.inner
            h1 = object_history(inner, "kis1")
            # A dead simulator's members never respond after its crash.
            for pid in inner.crashed_pids():
                assert pid not in h1.responds or h1.responds[pid][1] < min(
                    e.step for e in inner.events
                    if e.kind == "crash" and e.pid == pid
                )
    assert total > 0 and 0 < crashed < total
