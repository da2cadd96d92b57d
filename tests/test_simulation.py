"""Two-simulator emulation tests: partitions, inner trace extraction,
crash tolerance, and the concurrent-inside witness."""

from __future__ import annotations

import dataclasses

import pytest

from kisnap import (
    Event,
    KisInvokeStep,
    ObjectError,
    SimError,
    Trace,
    build_simulation,
    check_simulation_trace,
    enumerate_runs,
    extract_inner_trace,
    make_partition,
    max_concurrent_inside,
    run_random,
    validate_trace,
    WriteStep,
)
from kisnap.checkers import Verdict, object_history
from kisnap.reductions import CATALOG
from kisnap.simulation import INNER_ALGO


def seeded(n, t, k, seed):
    """One seeded simulation of alg1_variant at (n, t, k): its outer trace,
    the extracted inner trace and the simulation check's reports."""
    outer = run_random(build_simulation(n, t, k), seed).trace
    return outer, extract_inner_trace(outer), check_simulation_trace(outer)


def passed(reports) -> bool:
    return all(rep.passed for rep in reports)


# ── Partition arithmetic ─────────────────────────────────────────────────────


def test_balanced_partition_when_budget_is_half():
    assert make_partition(4, 2) == ((1, 2), (3, 4), ())


def test_majority_budget_leaves_initially_crashed_group():
    assert make_partition(4, 3) == ((1,), (2,), (3, 4))
    assert make_partition(5, 3) == ((1, 2), (3, 4), (5,))


def test_partition_covers_crash_budget():
    """The groups cover pids 1..n, |A0| = |A1| = n-t, |D| = 2t-n, and
    |D| + |A_i| = t: one simulator crash plus the initial crashes stay
    within the inner budget."""
    for n, t in [(4, 2), (4, 3), (5, 3), (6, 3), (6, 4), (6, 5)]:
        a0, a1, d = make_partition(n, t)
        assert sorted(a0 + a1 + d) == list(range(1, n + 1))
        assert len(a0) == len(a1) == n - t
        assert len(d) == 2 * t - n
        assert len(d) + len(a0) == t


def test_partition_rejects_minority_budget():
    with pytest.raises(SimError):
        make_partition(4, 1)  # t < n/2: two groups cannot cover the budget
    with pytest.raises(SimError):
        make_partition(3, 3)  # t > n-1


# ── Construction shape ───────────────────────────────────────────────────────


def test_simulation_instance_shape():
    inst = build_simulation(4, 2, 2)
    assert inst.n == 2 and inst.t == 1
    assert set(inst.arrays) == {"sim.kis1", "sim.kis2"}
    assert dict(inst.kis_objects) == {"med.kis1": 1, "med.kis2": 1}
    assert inst.meta["inner_objects"] == ["kis1", "kis2"]
    assert inst.meta["inner_n"] == 4


@pytest.mark.parametrize("q_inputs", [(0,), (0, 1, 2)])
def test_simulation_needs_one_input_per_simulator(q_inputs):
    with pytest.raises(SimError, match="two simulators need two inputs"):
        build_simulation(4, 2, 2, q_inputs)


def _writes_a_register(ctx, value):
    yield WriteStep("view", value)
    return value


def test_simulation_runs_the_catalog_entry_and_refuses_register_steps(monkeypatch):
    """The simulated program is read from the catalog when the instance is
    built, so a patched entry is what runs; a step other than a k-IS
    invocation cannot be simulated."""
    spec = dataclasses.replace(CATALOG[INNER_ALGO], program=_writes_a_register)
    monkeypatch.setitem(CATALOG, INNER_ALGO, spec)
    with pytest.raises(SimError, match="only k-IS invocations can be simulated"):
        run_random(build_simulation(4, 2, 2), 0)


def _crossed_order(ctx, value):
    """alg1_variant's two invocations, odd pids on kis1 first and even pids
    on kis2 first."""
    first, second = ("kis1", "kis2") if ctx.pid % 2 else ("kis2", "kis1")
    view = yield KisInvokeStep(first, value)
    yield KisInvokeStep(second, view)
    return value


def test_simulation_refuses_members_waiting_on_different_objects(monkeypatch):
    """Members of a simulator that wait on different objects cannot share a
    stage, so no mediator would serve them all; the simulator raises
    instead of blocking."""
    spec = dataclasses.replace(CATALOG[INNER_ALGO], program=_crossed_order)
    monkeypatch.setitem(CATALOG, INNER_ALGO, spec)
    message = r"members wait on different unpublished objects \{1: 'kis1', 2: 'kis2'\}"
    with pytest.raises(SimError, match=message):
        run_random(build_simulation(4, 2, 2), 0)


def _invokes_kis1_twice(ctx, value):
    view = yield KisInvokeStep("kis1", value)
    yield KisInvokeStep("kis1", view)
    return value


def test_simulation_refuses_a_second_invoke_of_one_object(monkeypatch):
    """A member that invokes an object twice sends its simulator to that
    object's one-shot mediator twice, which raises."""
    spec = dataclasses.replace(CATALOG[INNER_ALGO], program=_invokes_kis1_twice)
    monkeypatch.setitem(CATALOG, INNER_ALGO, spec)
    with pytest.raises(ObjectError, match="invoked k-IS object twice"):
        run_random(build_simulation(4, 2, 2), 0)


def _p1_returns_early(ctx, value):
    """alg1_variant's two invocations, except that p1 returns after kis1."""
    view = yield KisInvokeStep("kis1", value)
    if ctx.pid == 1:
        return value
    yield KisInvokeStep("kis2", view)
    return value


def test_simulation_refuses_members_finishing_in_different_stages(monkeypatch):
    """A member that returns while the others wait on an object is reported
    as waiting on None: the simulator serves all its members in each stage."""
    spec = dataclasses.replace(CATALOG[INNER_ALGO], program=_p1_returns_early)
    monkeypatch.setitem(CATALOG, INNER_ALGO, spec)
    message = r"members wait on different unpublished objects \{1: None, 2: 'kis2'\}"
    with pytest.raises(SimError, match=message):
        run_random(build_simulation(4, 2, 2), 0)


# ── End-to-end runs ──────────────────────────────────────────────────────────


def test_seeded_simulations_pass_all_checks():
    for seed in range(25):
        outer, _, reports = seeded(4, 2, 2, seed)
        assert passed(reports), (seed, [r.failures() for r in reports])
        assert validate_trace(outer) == []
        # Whoever decided, decided an inner value.
        for v in outer.decisions().values():
            assert v in (0, 1)


def test_inner_decisions_respect_agreement_bound():
    for seed in range(25):
        _, inner, _ = seeded(4, 2, 2, seed)
        decided = set(inner.decisions().values())
        assert len(decided) <= 2  # xsa bound at n=4, t=k=2


def test_simulator_crash_still_lets_other_side_finish():
    """Q2 crashes immediately: Q1 must finish alone via the mediator, and
    the extracted inner trace crashes exactly A1's unreturned members."""
    inst = build_simulation(4, 2, 2)
    res = run_random(inst, 0, initial_crashes=(2,))
    trace = res.trace
    assert trace.outcomes[1][0] == "returned"
    assert trace.outcomes[2] == ("crashed",)
    assert passed(check_simulation_trace(trace))
    inner = extract_inner_trace(trace)
    assert set(inner.decisions()) <= {1, 2}  # A0 = {1, 2}
    assert inner.crashed_pids() == {3, 4}  # A1's members died with Q2


def test_majority_budget_simulation_runs():
    """n=4, t=3: groups of one, two initial crashes; still checkable."""
    for seed in range(10):
        _, inner, reports = seeded(4, 3, 3, seed)
        assert passed(reports), (seed, [r.failures() for r in reports])
        assert inner.crashed_pids() >= {3, 4}


# ── Inner trace extraction ───────────────────────────────────────────────────


def test_extracted_trace_is_wellformed_inner_history():
    _, inner, _ = seeded(4, 2, 2, 5)
    assert (inner.n, inner.t, inner.k) == (4, 2, 2)
    steps = [e.step for e in inner.events]
    assert steps == sorted(steps)
    assert validate_trace(inner) == []
    # All inner events talk about inner objects, none about outer plumbing.
    assert {e.obj for e in inner.events if e.obj} <= {"kis1", "kis2", "xsa"}


def test_extraction_crashes_initially_dead_group_first():
    _, inner, _ = seeded(4, 3, 3, 1)
    head = [e for e in inner.events if e.kind == "crash" and e.step < 2]
    assert sorted(e.pid for e in head) == [3, 4]


def test_truncated_outer_run_gives_truncated_not_quiescent_inner_trace():
    """A cut-off outer run leaves its inner processes unfinished, not blocked
    for good: as `core.finalize_trace` does, the inner trace is flagged
    truncated and not quiescent."""
    inst = build_simulation(4, 2, 2)
    for bound in (3, 5, 8, 12):
        inner = extract_inner_trace(run_random(inst, 0, step_bound=bound).trace)
        assert inner.truncated and not inner.quiescent, bound


def test_extract_single_object_history():
    _, inner, _ = seeded(4, 2, 2, 5)
    h = object_history(inner, "kis1")
    assert set(h.invokes) <= set(range(1, 5))
    for pid in h.responds:
        assert (pid, h.invokes[pid][0]) in h.view_of(pid)


def test_concurrent_inside_witness():
    """In a passing simulation every responding inner object had an instant
    with at least n-k processes inside their invocations."""
    for seed in range(10):
        _, inner, reports = seeded(4, 2, 2, seed)
        for rep in reports:
            if not object_history(inner, rep.obj).responds:
                assert "concurrent_inside" not in rep.verdicts
                continue
            peak, at = max_concurrent_inside(inner, rep.obj)
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
    (rep,) = check_simulation_trace(outer)
    assert rep.verdicts["concurrent_inside"] == Verdict(
        False, "max 1 < n-k = 2 processes inside at once, at step 0"
    )
    assert not rep.passed


def test_exhaustive_outer_exploration_covers_crashes_and_passes():
    inst = build_simulation(4, 2, 2)
    total = crashed = 0
    for tr in enumerate_runs(inst, reduced=True):
        total += 1
        reports = check_simulation_trace(tr)
        assert passed(reports), [r.failures() for r in reports]
        if tr.crashed_pids():
            crashed += 1
            inner = extract_inner_trace(tr)
            h1 = object_history(inner, "kis1")
            # A dead simulator's members never respond after its crash.
            for pid in inner.crashed_pids():
                assert pid not in h1.responds or h1.responds[pid][1] < min(
                    e.step for e in inner.events
                    if e.kind == "crash" and e.pid == pid
                )
    assert total > 0 and 0 < crashed < total


def test_simulator_crash_can_fall_between_two_members_answers():
    """Each member's answer follows its own write of the published union,
    an outer step, so in some reduced leaves a simulator crashed after one
    of its members returned and before the other did."""
    split = 0
    for tr in enumerate_runs(build_simulation(4, 2, 2), reduced=True):
        inner = extract_inner_trace(tr)
        for q in tr.crashed_pids():
            fates = {inner.outcomes[p][0] for p in tr.meta["partition"][q - 1]}
            split += fates == {"returned", "crashed"}
    assert split == 18


# Reduced outer leaves of every zone cell with n = 3..6, n/2 <= t <= k <= n-1.
ZONE_LEAVES = {
    (3, 2, 2): 89,
    (4, 2, 2): 113,
    (4, 2, 3): 113,
    (4, 3, 3): 89,
    (5, 3, 3): 113,
    (5, 3, 4): 113,
    (5, 4, 4): 89,
    (6, 3, 3): 137,
    (6, 3, 4): 137,
    (6, 3, 5): 137,
    (6, 4, 4): 113,
    (6, 4, 5): 113,
    (6, 5, 5): 89,
}


def test_exhaustive_simulation_of_every_zone_cell_passes():
    """Every reduced outer leaf of every cell, the ones with an initially
    crashed group included, passes the simulation check, and both its outer
    and its inner trace are well formed."""
    leaves = {}
    for n, t, k in ZONE_LEAVES:
        leaves[n, t, k] = 0
        for tr in enumerate_runs(build_simulation(n, t, k), reduced=True):
            leaves[n, t, k] += 1
            reports = check_simulation_trace(tr)
            assert passed(reports), ((n, t, k), [r.failures() for r in reports])
            assert validate_trace(tr) == [], (n, t, k)
            assert validate_trace(extract_inner_trace(tr)) == [], (n, t, k)
    assert leaves == ZONE_LEAVES
    assert sum(leaves.values()) == 1445
