"""Acceptance gate: one test per primary deliverable criterion, each
printing a single PASS line (pytest -v adds the per-test verdict).

Criteria:
1. Exhaustive exploration at n=3 and n=4 never exceeds the agreement bound,
   and a (4, 2, 2) schedule attains exactly 2 distinct decisions.
2. Full 55-cell matrix at n=11, 1000 seeded trials per cell, zero
   violations, frozen spot values, under 10 minutes.
3. k-IS histories (oracle and consensus-based construction) satisfy all
   five properties plus the minimum-view theorem, exhaustively at n=3 and
   over 1000 seeded trials at n=5.
4. The register-level immediate snapshot is wait-free and correct for every
   schedule and crash budget at n=3.
5. Both equivalence directions hold at n=5, t=k=2 over 1000 trials each.
6. The naive attempt at k < t blocks every survivor for 100 distinct seeds.
7. Exhaustive two-simulator runs (including one-simulator crashes) yield
   inner histories passing the k-IS checker and the concurrent-inside
   witness.
8. Every checked property rejects a hand-built violating history with a
   concrete witness.
"""

from __future__ import annotations

import time

import pytest

from kisnap import (
    build_simulation,
    check_simulation_trace,
    enumerate_runs,
    extract_inner_trace,
    make_instance,
    run_blocking_demo,
    run_equivalence_suite,
    run_matrix,
    run_random,
    trial_seed,
    xsa_bound,
)
from kisnap.checkers import check_is, check_theorem1, check_xsa, object_history

from corpus import AGREEMENT_CORPUS, IS_PROPERTY_CORPUS


def ok(line: str) -> None:
    print(f"PASS: {line}")


def cells(n: int):
    return [(t, k) for t in range(1, n) for k in range(t, n)]


@pytest.mark.slow
def test_acceptance_1_exhaustive_bound_small_n():
    witness_hit = False
    for n in (3, 4):
        for t, k in cells(n):
            inst = make_instance("alg1", n, t, k)
            bound = xsa_bound(n, t, k)
            worst = 0
            for tr in enumerate_runs(inst, reduced=True):
                decided = len(set(tr.decisions().values()))
                assert decided <= bound, (n, t, k, decided, bound)
                worst = max(worst, decided)
            assert worst == bound, (n, t, k, worst, bound)
            if (n, t, k) == (4, 2, 2) and worst == 2:
                witness_hit = True
    assert witness_hit
    ok(
        "exhaustive n=3 and n=4 sweeps never exceed max(1, t+k-(n-2)) and "
        "attain it; (4,2,2) reaches exactly 2 decisions"
    )


@pytest.mark.slow
def test_acceptance_2_full_matrix_n11():
    started = time.monotonic()
    report = run_matrix(11, trials=1000, seed=0, exhaustive=False)
    elapsed = time.monotonic() - started
    assert report.passed
    assert len(report.cells) == 55
    assert all(c.trials == 1000 and c.violations == 0 for c in report.cells)
    assert report.cell(5, 10).bound == 6
    assert report.cell(5, 10).observed_max <= 6
    assert report.cell(1, 1).observed_max == 1
    assert elapsed < 600, f"matrix took {elapsed:.0f}s"
    ok(
        f"n=11 matrix: 55 cells x 1000 trials, zero bound violations, "
        f"cell (5,10) observed {report.cell(5, 10).observed_max} <= 6, "
        f"cell (1,1) observed 1, in {elapsed:.0f}s"
    )


def test_acceptance_3_kis_property_suite():
    checked = 0
    for algo, obj in (("kis_oracle", "kis"), ("alg2", "ckis")):
        for t, k in cells(3):
            inst = make_instance(algo, 3, t, k)
            for tr in enumerate_runs(inst, reduced=True):
                rep = check_is(tr, obj, k=k)
                thm = check_theorem1(tr, obj, k=k)
                assert rep.passed, (algo, t, k, rep.failures())
                assert thm.passed, (algo, t, k, thm.failures())
                checked += 1
    exhaustive = checked
    for algo, obj in (("kis_oracle", "kis"), ("alg2", "ckis")):
        inst = make_instance(algo, 5, 2, 3)
        for i in range(1000):
            tr = run_random(inst, trial_seed(0, "accept3", algo, i)).trace
            rep = check_is(tr, obj, k=3)
            thm = check_theorem1(tr, obj, k=3)
            assert rep.passed, (algo, i, rep.failures())
            assert thm.passed, (algo, i, thm.failures())
            checked += 1
    ok(
        f"all five k-IS properties plus the minimum-view theorem hold on "
        f"{exhaustive} exhaustive n=3 histories and 2000 seeded n=5 trials, "
        f"for the oracle and the consensus-based construction"
    )


def test_acceptance_4_wait_free_snapshot():
    histories = 0
    for budget in (0, 1, 2):
        inst = make_instance("is_impl", 3, budget, None)
        for tr in enumerate_runs(inst, reduced=True):
            rep = check_is(tr, "is", k=2)
            assert rep.passed, (budget, rep.failures())
            for pid, outcome in tr.outcomes.items():
                assert outcome[0] in ("returned", "crashed"), (budget, pid)
            histories += 1
    ok(
        f"register-level immediate snapshot: {histories} exhaustive n=3 "
        f"histories across crash budgets 0..2, all properties hold and "
        f"every correct process returns"
    )


def test_acceptance_5_equivalence_both_directions():
    sweeps = run_equivalence_suite(5, 2, 2, trials=1000)
    assert list(sweeps) == [
        "alg2_kis_histories", "alg1_single_decision", "composed_runs",
    ]
    for key, found in sweeps.items():
        assert found.runs == 1000 and found.failed == 0, (key, found.failures[:5])
    ok(
        "equivalence zone n=5, t=k=2: consensus-built k-IS histories pass "
        "all checks and the k-IS-based reduction decides one value, 1000 "
        "trials per direction plus 1000 composed runs"
    )


def test_acceptance_6_blocking_strawman():
    found = run_blocking_demo(4, 2, 1, seeds=100)
    assert found.runs == 100 and found.failed == 0
    assert found.outcomes == {"returned": 0, "crashed": 200, "blocked": 200}
    ok(
        "naive attempt at n=4, t=2, k=1: with 2 initial crashes both "
        "survivors block in all 100 seeded runs"
    )


def test_acceptance_7_two_simulator_emulation():
    inst = build_simulation(4, 2, 2)
    total = with_crash = 0
    for tr in enumerate_runs(inst, reduced=True):
        reports = check_simulation_trace(tr)
        assert all(rep.passed for rep in reports), [r.failures() for r in reports]
        inner = extract_inner_trace(tr)
        for rep in reports:
            if object_history(inner, rep.obj).responds:
                assert rep.verdicts["concurrent_inside"].ok  # peak >= n-k = 2
        assert check_xsa(inner, 2).passed
        total += 1
        if tr.crashed_pids():
            with_crash += 1
    assert total > 0 and 0 < with_crash < total
    ok(
        f"two-simulator emulation of the n=4, t=k=2 algorithm: {total} "
        f"exhaustive outer schedules ({with_crash} with a simulator crash), "
        f"every inner history passes the k-IS checker and the "
        f"concurrent-inside witness"
    )


def test_acceptance_8_negative_corpus():
    rejected = []
    for name, builder, checker, verdict in IS_PROPERTY_CORPUS + AGREEMENT_CORPUS:
        report = checker(builder())
        assert not report.passed, name
        assert not report.verdicts[verdict].ok, name
        assert report.verdicts[verdict].witness, name
        rejected.append(name)
    ok(
        f"negative corpus: {len(rejected)} violating histories each "
        f"rejected with a concrete witness ({', '.join(rejected[:6])}, ...)"
    )
