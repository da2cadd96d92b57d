"""Golden trace digests, checker reports and sweep outputs: a speed-up or a
rewrite must not change a trace or a report.

Each trace digest is the sha256 of the JSONL bytes of fixed seeded runs (trace
followed by schedule, run after run) or of every leaf of one reduced
exhaustive walk, in yield order. The values are fixed: a change to
scheduling, the random menu order, event order or encoding fails here, so
an optimization of the simulator must leave them as they are. The report
digests do the same for the checkers: the `to_dict()` of every standard
report plus the `validate_trace` problem list, run after run.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from kisnap import (
    RandomSchedule,
    ReplaySchedule,
    build_simulation,
    enumerate_runs,
    make_instance,
    run,
    run_random,
    standard_reports,
    trace_to_jsonl,
    validate_trace,
)
from kisnap.checkers import check_is, check_theorem1
from kisnap.cli import main
from kisnap.experiments import trial_seed
from kisnap.trace import schedule_to_jsonl

from corpus import (
    AGREEMENT_CORPUS,
    IS_PROPERTY_CORPUS,
    OBJ,
    UNORDERED_VIEW_CORPUS,
)

SEEDS = range(12)

# case -> (algo, n, t, k, crash-first pids, sha256). A case with pids to
# crash first runs `_seeded_run`'s crash-first route, every other case
# `run_random`.
SEEDED = {
    "alg1_11_5_10": (
        "alg1", 11, 5, 10, (),
        "444b47b0d76e7b5c872abff695cdd7493f8d1d80ab3b04bad7d42e517239945a",
    ),
    "alg1_over_alg2_7_3_3": (
        "alg1_over_alg2", 7, 3, 3, (),
        "9a5e031769cbcf37739874fa2cbbc6ffcfa05d8bf470408a37a5fd8a32bba741",
    ),
    "alg2_5_2_2": (
        "alg2", 5, 2, 2, (),
        "888c46f08c176836f3434c2cbe66febbc56f2fac5f2ab67155a5c7e90a3b1b20",
    ),
    "alg1_variant_5_2_3": (
        "alg1_variant", 5, 2, 3, (),
        "da2bdf9701bda7c6230511eb2723fd91daeb64168727ccdcd454378a51b22ac1",
    ),
    "naive_4_2_1_crash_2": (
        "naive", 4, 2, 1, (2,),
        "85e62a9987f2e61ef9edb2f0fe20870996111bb1ddad7bbd84b2b43dc0f18623",
    ),
    "kis_oracle_4_1_2": (
        "kis_oracle", 4, 1, 2, (),
        "77fd8b5930f30a3a16aba90e841646fcc62745dd5f93d825c38a6011615231d5",
    ),
    "cons_oracle_4_1_2": (
        "cons_oracle", 4, 1, 2, (),
        "785d15640bd4b79dfd03e79d8852fa2831ac72d00e79e41c4060bc1da3bdd7f4",
    ),
    "is_impl_3_1_none": (
        "is_impl", 3, 1, None, (),
        "96df51d9a00709e865155bb2c60f50e8a05e7f1fd53a33f7f31fcf528e8c9bc2",
    ),
}

EXHAUSTIVE_ALG1_3_2_2 = (
    "9a64222765ba56e4fca9fe8cd949f52556aa49e35c7868a224c2fa3c7fe03df4"
)
# Every leaf of the literal alg1 walk at (3,1,1), and of the reduced alg1
# walk at (3,2,2) cut at 6 actions, truncated leaves included.
LITERAL_ALG1_3_1_1 = (
    "4b163df633837a341f17c04cf1896441e9259158ddc587ca46b101859be53e4a"
)
DEPTH_BOUNDED_ALG1_3_2_2 = (
    "71f32c3236b1ba3103e31a5a780758147420505f5973d868ead1ea054041118d"
)

# Trials 0 and 1 of all 55 cells of the seeded n=11 alg1 sweep, by the
# trial seeds of `run_matrix` at seed 0, cell after cell.
MATRIX_N11_TRIALS = (
    "3148245f6baf7c3455ae716dc5a0ef6aaf5d2047f0c57744e7937e08e8b9ca4e"
)

# Two-simulator runs of alg1_variant: the seeded runs of every (n, t, k)
# below, case after case, and the reduced exhaustive leaves at (4, 2, 2).
SIMULATION_CASES = ((4, 2, 2), (4, 3, 3), (5, 3, 3))
SEEDED_SIMULATION = (
    "ca836c6782938c559f3ec632fc7670224abe4581d717af7f7db74fca53f7aa2a"
)
EXHAUSTIVE_SIMULATION_4_2_2 = (
    "51e6cb8551eb25bb47c9f9ec7417157a6f30d124caced005672904fd7a3248f0"
)


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()


def _seeded_run(inst, seed, crash_first):
    """`run_random`, or with pids to crash first, a schedule that crashes
    them and then draws every action from the seed, crashing no more."""
    if not crash_first:
        return run_random(inst, seed)
    crashes = [("crash", p) for p in crash_first]
    return run(inst, ReplaySchedule(crashes, RandomSchedule(random.Random(seed), ())))


def _seeded_chunks(algo, n, t, k, crash_first):
    inst = make_instance(algo, n, t, k)
    for seed in SEEDS:
        res = _seeded_run(inst, seed, crash_first)
        yield trace_to_jsonl(res.trace)
        yield schedule_to_jsonl(res.actions)


@pytest.mark.parametrize("case", sorted(SEEDED))
def test_seeded_runs_match_golden_digest(case):
    *spec, want = SEEDED[case]
    assert _sha(_seeded_chunks(*spec)) == want


def _matrix_n11_chunks():
    n = 11
    for t in range(1, n):
        for k in range(t, n):
            inst = make_instance("alg1", n, t, k)
            for i in range(2):
                res = run_random(inst, trial_seed(0, n, t, k, i))
                yield trace_to_jsonl(res.trace)
                yield schedule_to_jsonl(res.actions)


def test_seeded_matrix_n11_trials_match_golden_digest():
    assert _sha(_matrix_n11_chunks()) == MATRIX_N11_TRIALS


def test_reduced_exhaustive_leaves_match_golden_digest():
    inst = make_instance("alg1", 3, 2, 2)
    leaves = (trace_to_jsonl(tr) for tr in enumerate_runs(inst, reduced=True))
    assert _sha(leaves) == EXHAUSTIVE_ALG1_3_2_2


@pytest.mark.slow
def test_literal_exhaustive_leaves_match_golden_digest():
    inst = make_instance("alg1", 3, 1, 1)
    leaves = [trace_to_jsonl(tr) for tr in enumerate_runs(inst)]
    assert len(leaves) == 30120
    assert _sha(leaves) == LITERAL_ALG1_3_1_1


def test_depth_bounded_reduced_leaves_match_golden_digest():
    inst = make_instance("alg1", 3, 2, 2)
    traces = list(enumerate_runs(inst, reduced=True, depth_bound=6))
    assert (len(traces), sum(tr.truncated for tr in traces)) == (561, 555)
    assert _sha(trace_to_jsonl(tr) for tr in traces) == DEPTH_BOUNDED_ALG1_3_2_2


def _simulation_chunks():
    for n, t, k in SIMULATION_CASES:
        inst = build_simulation(n, t, k)
        for seed in SEEDS:
            res = run_random(inst, seed)
            yield trace_to_jsonl(res.trace)
            yield schedule_to_jsonl(res.actions)


def test_seeded_simulations_match_golden_digest():
    assert _sha(_simulation_chunks()) == SEEDED_SIMULATION


def test_reduced_exhaustive_simulation_leaves_match_golden_digest():
    inst = build_simulation(4, 2, 2)
    leaves = [trace_to_jsonl(tr) for tr in enumerate_runs(inst, reduced=True)]
    assert len(leaves) == 113
    assert _sha(leaves) == EXHAUSTIVE_SIMULATION_4_2_2


# ── Checker outputs: the standard reports and validator problems of the same
# runs, and the exact report of every hand-built negative history.

# case of SEEDED -> sha256 of its 12 runs' reports and problems
SEEDED_REPORTS = {
    "alg1_11_5_10": "4daa1eaf6cabaf0ee32d893ed89be2444fbde1a9198d7aa2ae188a704f3ba18d",
    "alg1_over_alg2_7_3_3": "ee6b2f125a6a5b75fff9af03101938edba000b17baa5cc8ea0f06b00e1c32883",
    "alg2_5_2_2": "0933829d3288f4c32eab77fda401d9588202686d2a20c2384711a1096ac56bb7",
    "alg1_variant_5_2_3": "a1174f941111ca03942005424d1ea3ecdd666788b4e2db5e8f4f3193549517cb",
    "naive_4_2_1_crash_2": "9bfe704e0a573f9179406f947cc1ac777957ca2ce0e5cd30c9eb5ca5ef3dee2a",
    "kis_oracle_4_1_2": "afef67f79cfaaba0a8608ef8f755bc51704f7a3425cf239cdc449d8d393d1142",
    "cons_oracle_4_1_2": "1d2011cb8f63fe09c6b3a648beeef57109950eb8d4811c068934e3cf4e78a009",
    "is_impl_3_1_none": "d5f42c058adf2cd3229c25bcfbf09f92661a2711311560604b431f7743f9b087",
}

EXHAUSTIVE_ALG1_3_2_2_REPORTS = (
    "c3796cfcf04c1817bcde3efb07c4cfbce65d4f1cd5c904977b70f8826cbb3a98"
)


def _report_chunk(trace) -> str:
    reports = [r.to_dict() for r in standard_reports(trace)]
    return json.dumps([reports, validate_trace(trace)])


@pytest.mark.parametrize("case", sorted(SEEDED))
def test_seeded_reports_match_golden_digest(case):
    algo, n, t, k, crash_first, _ = SEEDED[case]
    inst = make_instance(algo, n, t, k)
    chunks = (
        _report_chunk(_seeded_run(inst, seed, crash_first).trace) for seed in SEEDS
    )
    assert _sha(chunks) == SEEDED_REPORTS[case]


def test_reduced_exhaustive_reports_match_golden_digest():
    inst = make_instance("alg1", 3, 2, 2)
    chunks = (_report_chunk(tr) for tr in enumerate_runs(inst, reduced=True))
    assert _sha(chunks) == EXHAUSTIVE_ALG1_3_2_2_REPORTS


IS_VERDICTS = (
    "termination", "self_inclusion", "validity", "containment", "immediacy",
    "immediacy_symmetric", "output_size",
)
THEOREM1_VERDICTS = ("min_view_size", "min_view_members")
XSA_VERDICTS = ("validity", "agreement", "termination")
CONSENSUS_VERDICTS = ("termination", "agreement", "validity")

# corpus entry -> (report kind, verdict names in order, failing verdict ->
# witness); every other verdict passes with no witness, and no entry has notes
CORPUS_REPORTS = {
    "termination": ("2-is", IS_VERDICTS, {
        "termination": "process 1 invoked o and neither responded nor crashed",
    }),
    "self_inclusion": ("2-is", IS_VERDICTS, {
        "self_inclusion": "view of process 1 misses its own pair (1, 'a'): [(2, 'b')]",
    }),
    "validity": ("2-is", IS_VERDICTS, {
        "validity": "view of process 1 contains (2, 'b') but 2 never invoked",
    }),
    "validity_real_time": ("2-is", IS_VERDICTS, {
        "validity": "view of process 1 contains (2, 'b') but 2 invoked at "
        "step 2, after the respond at step 1",
    }),
    "containment": ("2-is", IS_VERDICTS, {
        "containment": "incomparable views [(3, 'c')] and [(1, 'a'), (2, 'b')]",
    }),
    "immediacy": ("2-is", IS_VERDICTS, {
        "immediacy": "(2,-) in view of 1 but view of 2 not contained: "
        "[(1, 'a'), (2, 'b'), (3, 'c')] vs [(1, 'a'), (2, 'b')]",
        "immediacy_symmetric": "processes 1 and 2 see each other but views "
        "differ: [(1, 'a'), (2, 'b')] vs [(1, 'a'), (2, 'b'), (3, 'c')]",
    }),
    "output_size": ("1-is", IS_VERDICTS, {
        "output_size": "view of process 1 has 1 < n-k = 2 pairs: [(1, 'a')]",
    }),
    "min_view_size": ("theorem1", THEOREM1_VERDICTS, {
        "min_view_size": "smallest view has 1 < n-k = 2 members: [(1, 'a')]",
    }),
    "min_view_members": ("theorem1", THEOREM1_VERDICTS, {
        "min_view_members": "2 returned [(1, 'a'), (2, 'b'), (3, 'c')] != smallest view",
    }),
    "min_view_alive_unreturned": ("theorem1", THEOREM1_VERDICTS, {
        "min_view_members": "2 is in the smallest view, alive, unreturned",
    }),
    "min_view_never_invoked": ("theorem1", THEOREM1_VERDICTS, {
        "min_view_members": "2 is in the smallest view but never invoked",
    }),
    "xsa_validity": ("1-sa", XSA_VERDICTS, {
        "validity": "process 1 decided 99 which nobody proposed",
    }),
    "xsa_validity_real_time": ("1-sa", XSA_VERDICTS, {
        "validity": "process 1 decided 7 at step 1 but 7 was first proposed "
        "at step 2",
    }),
    "xsa_agreement": ("1-sa", XSA_VERDICTS, {
        "agreement": "2 > x = 1 distinct decisions: [7, 8]",
    }),
    "xsa_termination": ("1-sa", XSA_VERDICTS, {
        "termination": "process 1 invoked o and neither responded nor crashed",
    }),
    "cons_agreement": ("consensus", CONSENSUS_VERDICTS, {
        "agreement": "distinct decisions: ['x', 'y']",
    }),
    "cons_validity": ("consensus", CONSENSUS_VERDICTS, {
        "validity": "decided 'z' was never proposed",
    }),
    "cons_linearization": ("consensus", CONSENSUS_VERDICTS, {
        "validity": "decided 'y' was proposed only after the first response",
    }),
}


@pytest.mark.parametrize(
    "name,builder,checker",
    [row[:3] for row in IS_PROPERTY_CORPUS + AGREEMENT_CORPUS],
    ids=[row[0] for row in IS_PROPERTY_CORPUS + AGREEMENT_CORPUS],
)
def test_negative_corpus_reports_match_golden(name, builder, checker):
    _assert_report(checker(builder()), *CORPUS_REPORTS[name])


def _assert_report(report, kind: str, names: tuple, failing: dict) -> None:
    """`report` is of `kind` with `names` in order, fails exactly `failing`
    (verdict -> witness) and has no notes."""
    got = report.to_dict()
    assert list(got["verdicts"]) == list(names)
    assert got == {
        "obj": OBJ,
        "kind": kind,
        "passed": not failing,
        "verdicts": {
            v: {"ok": v not in failing, "witness": failing.get(v)} for v in names
        },
        "notes": [],
    }


# unordered-view entry -> failing verdicts (verdict -> witness) of
# `check_is` at k=2, then of `check_theorem1` at k=1
UNORDERED_VIEW_REPORTS = {
    "repeated_pid_unordered": (
        {"validity": "view of process 1 contains (1, 'a') but 1 invoked with 0"},
        {},
    ),
    "repeated_pid_nested_view": (
        {
            "validity": "view of process 1 contains (1, frozenset({(1, 0)})) "
            "but 1 invoked with 0",
        },
        {
            "min_view_size": "smallest view has 2 < n-k = 3 members: "
            "[(1, frozenset({(1, 0)})), (1, 0)]",
        },
    ),
    "string_pid": (
        {"validity": "view of process 1 contains (x, 'a') but x never invoked"},
        {"min_view_members": "x is in the smallest view but never invoked"},
    ),
}


@pytest.mark.parametrize(
    "name,builder",
    UNORDERED_VIEW_CORPUS,
    ids=[row[0] for row in UNORDERED_VIEW_CORPUS],
)
def test_unordered_view_reports_match_golden(name, builder):
    """Views whose pairs do not order get reports, ordered by pid, then by
    the value's type name and `repr`."""
    is_failing, theorem1_failing = UNORDERED_VIEW_REPORTS[name]
    _assert_report(check_is(builder(), OBJ, k=2), "2-is", IS_VERDICTS, is_failing)
    _assert_report(
        check_theorem1(builder(), OBJ, k=1),
        "theorem1",
        THEOREM1_VERDICTS,
        theorem1_failing,
    )
    assert validate_trace(builder()) == []


# ── Sweep front-ends: the CLI outputs of explore, matrix, equivalence,
# simulate (seeded and --exhaustive) and demo-blocking, pinned so a rewrite
# of their loops keeps them.

EXPLORE_ALG1_3_2_2 = {
    "algo": "alg1", "n": 3, "t": 2, "k": 2, "mode": "reduced", "runs": 2140,
    "decision_sets": [
        [101, 102, 103], [101, 102], [101, 103], [101], [102, 103], [102], [103],
    ],
    "outcomes": {"returned": 3285, "crashed": 3135, "blocked": 0},
    "check_failures": 0,
}

CELL_KEYS = ["t", "k", "bound", "observed_max", "trials", "violations", "ok"]

# case -> (CLI arguments, mode, trials_per_cell, one (t, k, bound,
# observed_max, trials, violations, ok) row per cell)
MATRIX = {
    "n3_exhaustive": (("--n", "3", "--exhaustive"), "exhaustive", 0, [
        (1, 1, 1, 1, 139, 0, True),
        (1, 2, 2, 2, 451, 0, True),
        (2, 2, 3, 3, 2140, 0, True),
    ]),
    "n5_random": (("--n", "5", "--trials", "20"), "random", 20, [
        (1, 1, 1, 1, 20, 0, True), (1, 2, 1, 1, 20, 0, True),
        (1, 3, 1, 1, 20, 0, True), (1, 4, 2, 1, 20, 0, True),
        (2, 2, 1, 1, 20, 0, True), (2, 3, 2, 1, 20, 0, True),
        (2, 4, 3, 1, 20, 0, True), (3, 3, 3, 1, 20, 0, True),
        (3, 4, 4, 2, 20, 0, True), (4, 4, 5, 1, 20, 0, True),
    ]),
}

EQUIVALENCE_TRIALS_20 = {
    "n": 5, "t": 2, "k": 2, "trials": 20, "passed": True,
    "checked": {
        "alg2_kis_histories": 20, "alg1_single_decision": 20, "composed_runs": 20,
    },
    "failures": [],
}

SIMULATE_EXHAUSTIVE_4_2_2 = (
    "simulation alg1_variant n=4 t=2 k=2: 113 outer schedules, 0 check failures"
)

IS_PASSES = [f"  {v}: pass" for v in IS_VERDICTS]

# full stdout of `simulate --n 4 --t 2 --k 2 --seed 1`
SIMULATE_SEED_1_4_2_2 = [
    "simulators decided: {1: 0, 2: 0}",
    "inner decisions:    {1: 0, 2: 0, 3: 0, 4: 0}",
    "[2-is] object kis1: PASS",
    *IS_PASSES,
    "  concurrent_inside: pass -- max 4 >= n-k = 2 processes inside at once, "
    "at step 7",
    "[2-is] object kis2: PASS",
    *IS_PASSES,
    "  concurrent_inside: pass -- max 4 >= n-k = 2 processes inside at once, "
    "at step 15",
]

BLOCKING_PREDICTED = (
    "as predicted: with k < t the wait for n-k published values can never "
    "finish once t processes crash first"
)

# case -> (CLI arguments, full stdout lines) of a demo that passes
DEMO_BLOCKING = {
    "default": ((), [
        "naive k-IS attempt at n=4 t=2 k=1: 100/100 seeded runs ended with "
        "every survivor blocked",
        BLOCKING_PREDICTED,
    ]),
    "n5_t3_k2": (("--n", "5", "--t", "3", "--k", "2", "--seeds", "20"), [
        "naive k-IS attempt at n=5 t=3 k=2: 20/20 seeded runs ended with "
        "every survivor blocked",
        BLOCKING_PREDICTED,
    ]),
}


def test_explore_summary_matches_golden(tmp_path, capsys):
    out = tmp_path / "summary.json"
    rc = main([
        "explore", "--algo", "alg1", "--n", "3", "--t", "2", "--k", "2",
        "--check", "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text()) == EXPLORE_ALG1_3_2_2


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_matrix_report_matches_golden(tmp_path, capsys, case):
    args, mode, per_cell, rows = MATRIX[case]
    out = tmp_path / "matrix.json"
    assert main(["matrix", *args, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    del report["elapsed_seconds"]
    assert report == {
        "n": int(args[1]), "mode": mode, "seed": 0, "trials_per_cell": per_cell,
        "passed": True, "cells": [dict(zip(CELL_KEYS, row)) for row in rows],
    }


def test_equivalence_report_matches_golden(capsys):
    assert main(["equivalence", "--trials", "20"]) == 0
    assert json.loads(capsys.readouterr().out) == EQUIVALENCE_TRIALS_20


def test_simulate_exhaustive_summary_matches_golden(capsys):
    rc = main(["simulate", "--n", "4", "--t", "2", "--k", "2", "--exhaustive"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == SIMULATE_EXHAUSTIVE_4_2_2


def test_simulate_seeded_output_matches_golden(capsys):
    assert main(["simulate", "--n", "4", "--t", "2", "--k", "2", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == SIMULATE_SEED_1_4_2_2


@pytest.mark.parametrize("case", sorted(DEMO_BLOCKING))
def test_demo_blocking_output_matches_golden(capsys, case):
    args, lines = DEMO_BLOCKING[case]
    assert main(["demo-blocking", *args]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_demo_blocking_negative_control_count_matches_golden(capsys):
    """With k >= t the survivors decide: every run fails, and only the
    failure details below the count line are free to change."""
    assert main(["demo-blocking", "--n", "4", "--t", "1", "--k", "2",
                 "--seeds", "10"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "naive k-IS attempt at n=4 t=1 k=2: 0/10 seeded runs ended with every "
        "survivor blocked"
    )
