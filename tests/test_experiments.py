"""Experiment driver tests: the agreement matrix, the blocking demo, the
equivalence suite, and the per-algorithm check dispatcher."""

from __future__ import annotations

import gc
import os
import tracemalloc
import types

import pytest

import kisnap
from kisnap import (
    CATALOG,
    blocking_traces,
    enumerate_runs,
    equivalence_zone,
    make_instance,
    render_matrix,
    run_blocking_demo,
    run_equivalence_suite,
    run_matrix,
    run_random,
    standard_reports,
    sweep,
    trial_seed,
    xsa_bound,
)
from kisnap.checkers import check_xsa
from kisnap.core import ProgramState


def test_trial_seeds_are_stable_and_distinct():
    assert trial_seed(0, "a", 1) == "0:a:1"
    seeds = {trial_seed(0, "cell", t, k, i) for t in (1, 2) for k in (2, 3) for i in range(5)}
    assert len(seeds) == 20


# ── Agreement matrix ─────────────────────────────────────────────────────────


def test_exhaustive_matrix_attains_every_bound_at_n3():
    report = run_matrix(3, exhaustive=True)
    assert report.passed
    for (t, k), expect in {(1, 1): 1, (1, 2): 2, (2, 2): 3}.items():
        cell = report.cell(t, k)
        assert cell.bound == expect
        assert cell.observed_max == expect  # attained, not just respected
        assert cell.violations == 0
    with pytest.raises(KeyError):
        report.cell(2, 1)  # outside t <= k: no such cell


def test_random_matrix_respects_bounds():
    report = run_matrix(5, trials=40, seed=0, exhaustive=False)
    assert report.passed
    assert len(report.cells) == 10  # pairs 1 <= t <= k <= 4
    for cell in report.cells:
        assert cell.trials == 40
        assert cell.observed_max <= cell.bound


def _live_program_states() -> list:
    """Graph nodes and suspended generators of kisnap code still in memory."""
    package = os.path.dirname(kisnap.__file__) + os.sep
    return [
        o
        for o in gc.get_objects()
        if isinstance(o, ProgramState)
        or (
            isinstance(o, types.GeneratorType)
            and o.gi_code.co_filename.startswith(package)
            and o.gi_frame is not None
        )
    ]


def test_no_program_state_outlives_a_run():
    """Each run or walk owns its program-state graph, so once a sweep or an
    exhaustive walk is done no node and no paused program is left."""
    gc.collect()
    assert _live_program_states() == []
    run_matrix(6, trials=5)
    assert _live_program_states() == []
    runs = sum(1 for _ in enumerate_runs(make_instance("alg1", 3, 1, 1), reduced=True))
    assert runs > 0
    assert _live_program_states() == []


def test_memory_stays_flat_over_many_runs():
    """2,000 seeded runs on one instance: of what the runs after the first
    500 allocate, nothing stays."""
    inst = make_instance("alg1", 5, 2, 2)
    for i in range(500):
        run_random(inst, i)
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(500, 2000):
            run_random(inst, i)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 16 * 1024


def test_matrix_report_renders_and_serializes():
    report = run_matrix(3, exhaustive=True)
    text = render_matrix(report)
    assert "1/1" in text and "2/2" in text and "3/3" in text
    assert "PASS" in text
    d = report.to_dict()
    assert d["n"] == 3 and len(d["cells"]) == 3


def test_matrix_auto_mode_picks_exhaustive_for_small_n():
    report = run_matrix(3, trials=5)
    assert report.mode == "exhaustive"


# ── Blocking demo ────────────────────────────────────────────────────────────


def test_blocking_demo_blocks_all_survivors():
    found = run_blocking_demo(4, 2, 1, seeds=15)
    assert found.runs == 15 and found.failed == 0
    assert found.decision_sets == {frozenset()}
    assert found.outcomes == {"returned": 0, "crashed": 30, "blocked": 30}
    traces = list(blocking_traces(4, 2, 1, 15))
    # different seeds pick different victims
    assert len({frozenset(tr.crashed_pids()) for tr in traces}) > 1
    assert all(tr.quiescent for tr in traces)


def test_blocking_demo_negative_control():
    """With k >= t the same strawman makes progress, so the demo must
    report failure: the blocking really is caused by k < t."""
    found = run_blocking_demo(4, 1, 2, seeds=10)
    assert found.runs == 10 and found.failed == 10
    (rep,) = found.failures[0][1]
    assert not rep.verdicts["nothing_decided"].ok
    assert "returned" in rep.verdicts["nothing_decided"].witness


# ── Equivalence suite ────────────────────────────────────────────────────────


def test_equivalence_zone_membership():
    assert equivalence_zone(5, 2, 2)
    assert equivalence_zone(5, 1, 3)
    assert not equivalence_zone(4, 2, 2)  # t = n/2
    assert not equivalence_zone(5, 3, 3)  # crash majority
    assert not equivalence_zone(5, 2, 1)  # k < t
    assert not equivalence_zone(5, 1, 4)  # k > (n-1) - t


def test_equivalence_suite_rejects_out_of_zone_parameters():
    with pytest.raises(ValueError):
        run_equivalence_suite(4, 2, 2, trials=1)


def test_equivalence_suite_passes_small():
    sweeps = run_equivalence_suite(5, 2, 2, trials=25)
    assert {key: (found.runs, found.failed) for key, found in sweeps.items()} == {
        "alg2_kis_histories": (25, 0),
        "alg1_single_decision": (25, 0),
        "composed_runs": (25, 0),
    }


# ── Standard check dispatch ──────────────────────────────────────────────────


@pytest.mark.parametrize("algo", sorted(CATALOG))
def test_standard_reports_pass_on_correct_algorithms(algo):
    inst = make_instance(algo, 3, 1, 1)
    for seed in range(10):
        trace = run_random(inst, seed).trace
        reports = standard_reports(trace)
        assert reports
        for rep in reports:
            assert rep.passed, (algo, seed, rep.failures())


def test_standard_reports_check_agreement_against_the_bound():
    inst = make_instance("alg1", 4, 2, 2)
    assert xsa_bound(4, 2, 2) == 2
    kinds = {r.kind for r in standard_reports(run_random(inst, 0).trace)}
    assert "2-sa" in kinds


# ── The sweep loop ───────────────────────────────────────────────────────────


def test_sweep_tallies_runs_and_keeps_a_bounded_failure_record():
    inst = make_instance("alg1", 4, 2, 3)
    traces = [run_random(inst, seed).trace for seed in range(30)]
    strict = sweep(traces, lambda tr: [check_xsa(tr, 1)])
    multi = [i for i, tr in enumerate(traces) if len(set(tr.decisions().values())) > 1]
    assert strict.runs == 30
    assert strict.failed == len(multi) > 0
    assert strict.witness is traces[multi[0]]
    assert [i for i, _ in strict.failures] == multi[:20]
    assert strict.observed_max == 2
    assert sum(strict.outcomes.values()) == 30 * 4
    always = sweep(traces, lambda tr: [check_xsa(tr, 0)])
    assert always.failed == 30 and len(always.failures) == 20
    unchecked = sweep(traces)
    assert unchecked.failed == 0 and unchecked.witness is None
    assert unchecked.decision_sets == strict.decision_sets


def test_sweep_rejects_truncated_traces():
    inst = make_instance("alg1", 3, 1, 1)
    with pytest.raises(RuntimeError, match="step bound"):
        sweep([run_random(inst, 1, step_bound=4).trace])
