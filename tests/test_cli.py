"""CLI tests: every subcommand runs, writes what it promises, and exits 0
exactly when all checks pass."""

from __future__ import annotations

import dataclasses
import json

import pytest

from kisnap import (
    Event,
    Trace,
    cli,
    read_schedule,
    read_trace,
    simulation,
    write_schedule,
    write_trace,
)
from kisnap.cli import main
from kisnap.reductions import CATALOG

from test_reductions import _alg1_decides_own_input


def test_run_writes_trace_and_schedule(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    sched_file = tmp_path / "s.jsonl"
    rc = main([
        "run", "--algo", "alg1", "--n", "3", "--t", "1", "--k", "1",
        "--seed", "7", "--check",
        "--out", str(trace_file), "--save-schedule", str(sched_file),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "returned" in out
    trace = read_trace(str(trace_file))
    assert trace.n == 3
    assert sched_file.exists()


def test_run_replays_saved_schedule(tmp_path, capsys):
    sched_file = tmp_path / "s.jsonl"
    assert main([
        "run", "--algo", "alg1", "--n", "3", "--t", "1", "--k", "1",
        "--seed", "7", "--save-schedule", str(sched_file),
    ]) == 0
    first = capsys.readouterr().out
    assert main([
        "run", "--algo", "alg1", "--n", "3", "--t", "1", "--k", "1",
        "--schedule", f"replay:{sched_file}",
    ]) == 0
    second = capsys.readouterr().out
    # Identical outcomes under replay.
    assert [l for l in first.splitlines() if "p" in l and ":" in l][:3] == \
           [l for l in second.splitlines() if "p" in l and ":" in l][:3]
    # A prefix stops while processes can still move: truncated, exit 1.
    prefix = tmp_path / "prefix.jsonl"
    prefix.write_text(sched_file.read_text().splitlines(keepends=True)[0])
    assert main([
        "run", "--algo", "alg1", "--n", "3", "--t", "1", "--k", "1",
        "--schedule", f"replay:{prefix}",
    ]) == 1
    assert "flags: truncated" in capsys.readouterr().out


def test_truncated_run_prints_unscheduled_processes_as_unfinished(tmp_path, capsys):
    """One step of p1 leaves every process able to move: the CLI says they
    are unfinished, while the trace's end line keeps `blocked`, the only
    outcome the format has for them."""
    prefix = tmp_path / "one_step.jsonl"
    write_schedule(str(prefix), [("step", 1)])
    trace_file = tmp_path / "t.jsonl"
    assert main([
        "run", "--algo", "alg1", "--n", "3", "--t", "1", "--k", "1",
        "--schedule", f"replay:{prefix}", "--out", str(trace_file),
    ]) == 1
    out = capsys.readouterr().out
    for pid in (1, 2, 3):
        assert f"p{pid}: unfinished (run truncated)" in out
    assert "blocked" not in out
    trace = read_trace(str(trace_file))
    assert trace.truncated and not trace.quiescent
    assert trace.outcomes == {1: ("blocked",), 2: ("blocked",), 3: ("blocked",)}


def test_blocked_run_prints_quiescent(capsys):
    """At seed 30 the strawman's two crashes leave its survivors waiting for
    n-k values forever: the run ends quiescent, which is not a failure."""
    assert main([
        "run", "--algo", "naive", "--n", "4", "--t", "2", "--k", "1",
        "--seed", "30",
    ]) == 0
    out = capsys.readouterr().out
    assert "p1: blocked" in out and "p3: crashed" in out
    assert "flags: quiescent" in out


def test_explore_reports_counts_and_summary(tmp_path, capsys):
    out_file = tmp_path / "summary.json"
    rc = main([
        "explore", "--algo", "kis_oracle", "--n", "3", "--t", "1", "--k", "1",
        "--check", "--out", str(out_file),
    ])
    assert rc == 0
    assert "distinct decision sets" in capsys.readouterr().out
    summary = json.loads(out_file.read_text())
    assert summary["runs"] > 0 and summary["check_failures"] == 0


def test_explore_counts_failing_runs(tmp_path, capsys, monkeypatch):
    """`check_failures` counts failing runs, not failing reports, and only
    the first 20 failing runs are printed, after the walk."""
    from kisnap.checkers import CheckReport, Verdict

    def always_fails(trace):
        return [
            CheckReport(obj, "stub", {"ok": Verdict(False, "stub failure")})
            for obj in ("a", "b")
        ]

    monkeypatch.setattr("kisnap.cli.standard_reports", always_fails)
    out_file = tmp_path / "summary.json"
    rc = main([
        "explore", "--algo", "alg1", "--n", "3", "--t", "1", "--k", "1",
        "--check", "--out", str(out_file),
    ])
    assert rc == 1
    out = capsys.readouterr().out
    summary = json.loads(out_file.read_text())
    runs = summary["runs"]
    assert runs > 20 and summary["check_failures"] == runs
    assert f"checked runs: {runs}, failures: {runs}" in out
    assert "run 1: FAIL" in out and "run 20: FAIL" in out
    assert "run 21: FAIL" not in out
    assert out.count("stub failure") == 40
    assert out.index("run 20: FAIL") < out.index("distinct decision sets")


def test_explore_literal_matches_contract(capsys):
    rc = main([
        "explore", "--algo", "kis_oracle", "--n", "3", "--t", "1", "--k", "1",
        "--literal",
    ])
    assert rc == 0
    assert "literal runs" in capsys.readouterr().out


def test_matrix_exhaustive(tmp_path, capsys):
    out_file = tmp_path / "matrix.json"
    rc = main(["matrix", "--n", "3", "--exhaustive", "--out", str(out_file)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads(out_file.read_text())
    assert report["passed"] is True


def test_matrix_progress_prints_each_cell(capsys):
    assert main(["matrix", "--n", "3", "--exhaustive", "--progress"]) == 0
    out = capsys.readouterr().out
    assert "  cell t=2 k=2: bound=3 observed=3 trials=2140 violations=0" in out


def test_check_subcommand_on_stored_trace(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    main([
        "run", "--algo", "kis_oracle", "--n", "3", "--t", "1", "--k", "1",
        "--seed", "3", "--out", str(trace_file),
    ])
    capsys.readouterr()
    rc = main([
        "check", "--trace", str(trace_file), "--kind", "is",
        "--obj", "kis", "--k", "1",
    ])
    assert rc == 0
    rc = main([
        "check", "--trace", str(trace_file), "--kind", "theorem1",
        "--obj", "kis", "--k", "1",
    ])
    assert rc == 0


def test_check_fails_on_wrong_claim(tmp_path, capsys):
    """Claiming a stricter bound than the trace satisfies must exit nonzero."""
    trace_file = tmp_path / "t.jsonl"
    main([
        "run", "--algo", "alg1", "--n", "4", "--t", "2", "--k", "3",
        "--seed", "12", "--out", str(trace_file),
    ])
    capsys.readouterr()
    trace = read_trace(str(trace_file))
    distinct = len(set(trace.decisions().values()))
    assert distinct > 1  # seed chosen to produce a multi-valued run
    rc = main([
        "check", "--trace", str(trace_file), "--kind", "xsa",
        "--obj", "xsa", "--x", "1",
    ])
    assert rc == 1


def test_check_consensus_writes_its_report(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    report_file = tmp_path / "r.json"
    assert main([
        "run", "--algo", "cons_oracle", "--n", "3", "--t", "1",
        "--seed", "2", "--out", str(trace_file),
    ]) == 0
    capsys.readouterr()
    rc = main([
        "check", "--trace", str(trace_file), "--kind", "consensus",
        "--obj", "cs", "--out", str(report_file),
    ])
    assert rc == 0
    assert "[consensus] object cs: PASS" in capsys.readouterr().out
    report = json.loads(report_file.read_text())
    assert report["passed"] is True
    assert (report["obj"], report["kind"]) == ("cs", "consensus")
    assert set(report["verdicts"]) == {"termination", "agreement", "validity"}


def test_run_decides_from_the_given_inputs(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    assert main([
        "run", "--algo", "alg1", "--n", "3", "--t", "1", "--k", "1",
        "--inputs", "7,8,9", "--seed", "0", "--out", str(trace_file),
    ]) == 0
    trace = read_trace(str(trace_file))
    proposals = {
        e.pid: e.args for e in trace.events if e.kind == "invoke" and e.obj == "xsa"
    }
    assert proposals == {1: 7, 2: 8, 3: 9}
    assert trace.decisions()
    assert set(trace.decisions().values()) <= {7, 8, 9}


def test_matrix_writes_a_witness_that_check_rejects(tmp_path, capsys, monkeypatch):
    """Under an alg1 mutant that decides its own input, the exhaustive
    matrix fails and writes a failing run, which `check` rejects too."""
    mutant = dataclasses.replace(CATALOG["alg1"], program=_alg1_decides_own_input)
    monkeypatch.setitem(CATALOG, "alg1", mutant)
    witness = tmp_path / "w.jsonl"
    assert main(["matrix", "--n", "3", "--exhaustive", "--witness", str(witness)]) == 1
    assert f"violation witness written to {witness}" in capsys.readouterr().out
    rc = main([
        "check", "--trace", str(witness), "--kind", "xsa",
        "--obj", "xsa", "--x", "1",
    ])
    assert rc == 1
    assert "agreement: FAIL" in capsys.readouterr().out


def test_simulate_seeded(tmp_path, capsys, monkeypatch):
    """The seeded run checks the inner trace it prints and writes:
    `check_simulation_trace` extracts one copy and the command another,
    and the two are equal."""
    extracted = []
    extract = simulation.extract_inner_trace

    def counted(outer):
        extracted.append(extract(outer))
        return extracted[-1]

    monkeypatch.setattr(cli, "extract_inner_trace", counted)
    monkeypatch.setattr(simulation, "extract_inner_trace", counted)
    prefix = tmp_path / "sim"
    rc = main([
        "simulate", "--n", "4", "--t", "2", "--k", "2", "--seed", "1",
        "--out-prefix", str(prefix),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "simulators decided" in out
    assert len(extracted) == 2
    assert extracted[0] == extracted[1] == read_trace(f"{prefix}.inner.jsonl")


def test_simulate_prints_decisions_in_pid_order(capsys):
    """At seed 1 simulator 2 responds before simulator 1; both decision
    lines still list pids in ascending order, as the traces' outcomes do."""
    assert main(["simulate", "--n", "4", "--t", "2", "--k", "2", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "simulators decided: {1: 0, 2: 0}",
        "inner decisions:    {1: 0, 2: 0, 3: 0, 4: 0}",
    ]


def test_simulate_exhaustive(capsys):
    rc = main(["simulate", "--n", "4", "--t", "2", "--k", "2", "--exhaustive"])
    assert rc == 0
    assert "0 check failures" in capsys.readouterr().out


def test_demo_blocking(capsys):
    rc = main(["demo-blocking", "--seeds", "5"])
    assert rc == 0
    assert "every survivor blocked" in capsys.readouterr().out.replace("\n", " ")


def test_equivalence(capsys):
    rc = main(["equivalence", "--trials", "5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_equivalence_lists_failing_trials(capsys, monkeypatch):
    """Under an alg1 mutant that decides its own input, direction B's runs
    disagree: the report lists each failing trial and the command exits 1."""
    mutant = dataclasses.replace(CATALOG["alg1"], program=_alg1_decides_own_input)
    monkeypatch.setitem(CATALOG, "alg1", mutant)
    assert main(["equivalence", "--trials", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["failures"]
    assert all(
        line.startswith("alg1_single_decision trial ") for line in report["failures"]
    )


def test_bad_parameters_exit_2(capsys):
    rc = main(["run", "--algo", "alg1", "--n", "3", "--t", "5", "--k", "1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    # --k omitted for an algorithm that needs it
    for cmd in ("run", "explore"):
        for algo in ("alg1", "alg1_variant", "alg2", "alg1_over_alg2", "kis_oracle"):
            rc = main([cmd, "--algo", algo, "--n", "3", "--t", "1"])
            assert rc == 2, (cmd, algo)
            assert "needs k" in capsys.readouterr().err
    # sweeps that would check nothing
    for argv in (
        ["matrix", "--n", "1"],
        ["matrix", "--n", "5", "--trials", "0"],
        ["equivalence", "--trials", "0"],
        ["demo-blocking", "--seeds", "0"],
    ):
        assert main(argv) == 2, argv
        assert "error" in capsys.readouterr().err


ALG1_3 = ("--algo", "alg1", "--n", "3", "--t", "1", "--k", "1")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", *ALG1_3, "--inputs", "1,2"], "--inputs needs 3 comma-separated"),
        (["run", *ALG1_3, "--schedule", "foo"], "unknown schedule 'foo'"),
        (["check", "--kind", "theorem1", "--obj", "o"], "theorem1 check needs --k"),
        (["check", "--kind", "xsa", "--obj", "o"], "xsa check needs --x"),
        (
            ["simulate", "--n", "4", "--t", "2", "--k", "2", "--inputs", "1"],
            "--inputs needs 2 comma-separated",
        ),
    ],
    ids=["run_inputs", "run_schedule", "check_theorem1_k", "check_xsa_x",
         "simulate_inputs"],
)
def test_usage_errors_exit_2(tmp_path, capsys, argv, message):
    """A usage error exits 2 with its message on stderr; exit 1 means a
    check failed."""
    if argv[0] == "check":
        trace_file = tmp_path / "t.jsonl"
        trace_file.write_text(
            '{"kind":"config","n":3,"t":1,"k":1,"meta":{}}\n'
            '{"kind":"end","outcomes":{}}\n'
        )
        argv = [*argv, "--trace", str(trace_file)]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "theorem1"], "theorem1 check needs --k"),
        (["--kind", "xsa"], "xsa check needs --x"),
    ],
    ids=["theorem1_k", "xsa_x"],
)
@pytest.mark.parametrize(
    "text",
    [
        None,
        '{"kind":"config","t":1,"k":1}\n',
        '{"kind":"config","n":3,"t":1,"k":1,"meta":{"objects":["o"]}}\n'
        '{"step":0,"kind":"respond","pid":1,"obj":"o","op":"snap","args":null,'
        '"ret":null}\n'
        '{"kind":"end","outcomes":{}}\n',
    ],
    ids=["missing", "unparsable", "invalid"],
)
def test_check_flags_are_checked_before_the_trace(
    tmp_path, capsys, argv, message, text
):
    """A missing --k or --x is reported alone, whatever the trace file holds."""
    trace_file = tmp_path / "t.jsonl"
    if text is not None:
        trace_file.write_text(text)
    assert main(["check", "--trace", str(trace_file), "--obj", "o", *argv]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "theorem1", "--k", "9"], "--k must be in 1..n-1 = 1..3, got 9"),
        (["--kind", "is", "--k", "9"], "--k must be in 1..n-1 = 1..3, got 9"),
        (["--kind", "is", "--k", "4"], "--k must be in 1..n-1 = 1..3, got 4"),
        (["--kind", "theorem1", "--k", "0"], "--k must be in 1..n-1 = 1..3, got 0"),
        (["--kind", "is", "--k", "-3"], "--k must be in 1..n-1 = 1..3, got -3"),
        (["--kind", "xsa", "--x", "0"], "--x must be at least 1, got 0"),
    ],
    ids=["theorem1_k_9", "is_k_9", "is_k_n", "theorem1_k_0", "is_k_-3", "xsa_x_0"],
)
def test_check_rejects_out_of_range_parameters(tmp_path, capsys, argv, message):
    """On an n=4 trace, a --k outside 1..n-1 or an --x below 1 is a usage
    error, not a vacuous pass or an invented property failure."""
    trace_file = tmp_path / "t.jsonl"
    assert main([
        "run", "--algo", "alg1", "--n", "4", "--t", "2", "--k", "2",
        "--seed", "1", "--out", str(trace_file),
    ]) == 0
    capsys.readouterr()
    obj = "xsa" if "xsa" in argv else "kis"
    assert main(["check", "--trace", str(trace_file), "--obj", obj, *argv]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
    assert main([
        "check", "--trace", str(trace_file), "--obj", "kis", "--kind", "is",
        "--k", "3",
    ]) == 0


def test_matrix_modes_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--n", "3", "--exhaustive", "--random"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_malformed_files_exit_2(tmp_path, capsys):
    sched_file = tmp_path / "s.jsonl"
    sched_file.write_text('{"a": "step", "pid": "1"}\n')
    rc = main([
        "run", "--algo", "alg1", "--n", "3", "--t", "1", "--k", "1",
        "--schedule", f"replay:{sched_file}",
    ])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text('{"kind":"config","t":1,"k":1}\n{"kind":"end"}\n')
    rc = main(["check", "--trace", str(trace_file), "--kind", "is", "--obj", "kis"])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err
    for ret in ("[1,2]", "[[1,5]]"):
        trace_file.write_text(
            '{"kind":"config","n":3,"t":1,"k":1,"meta":{"objects":["kis"]}}\n'
            '{"step":0,"kind":"invoke","pid":1,"obj":"kis","op":"snap","args":5,"ret":null}\n'
            '{"step":1,"kind":"respond","pid":1,"obj":"kis","op":"snap","args":null,'
            f'"ret":{ret}}}\n'
            '{"kind":"end","outcomes":{"1":["returned",5]}}\n'
        )
        for kind in ("is", "theorem1"):
            rc = main([
                "check", "--trace", str(trace_file), "--kind", kind, "--obj", "kis",
                "--k", "1",
            ])
            assert rc == 2
            assert "respond of process 1 on kis at step 1" in capsys.readouterr().err


def test_check_gives_a_verdict_on_a_view_that_names_a_pid_twice(tmp_path, capsys):
    """A decodable view whose pairs do not order, (1, 0) and (1, 'a'): the
    `is` check fails validity and exits 1, `theorem1` passes, and neither
    raises."""
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text(
        '{"kind":"config","n":3,"t":1,"k":1,"meta":{"objects":["o"]}}\n'
        '{"step":0,"kind":"invoke","pid":1,"obj":"o","op":"snap","args":0,"ret":null}\n'
        '{"step":1,"kind":"respond","pid":1,"obj":"o","op":"snap","args":null,'
        '"ret":{"view":[[1,0],[1,"a"]]}}\n'
        '{"kind":"end","outcomes":{"1":["returned",0]}}\n'
    )
    check = ["check", "--trace", str(trace_file), "--obj", "o", "--k", "1"]
    assert main([*check, "--kind", "is"]) == 1
    out, err = capsys.readouterr()
    assert "[1-is] object o: FAIL" in out
    assert (
        "validity: FAIL -- view of process 1 contains (1, 'a') but 1 invoked with 0"
        in out
    )
    assert err == ""
    assert main([*check, "--kind", "theorem1"]) == 0
    assert "[theorem1] object o: PASS" in capsys.readouterr().out


def test_run_step_bound_truncates(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    sched_file = tmp_path / "s.jsonl"
    rc = main([
        "run", "--algo", "alg1", "--n", "4", "--t", "2", "--k", "2",
        "--step-bound", "3",
        "--out", str(trace_file), "--save-schedule", str(sched_file),
    ])
    assert rc == 1
    assert "truncated" in capsys.readouterr().out
    assert read_trace(str(trace_file)).truncated
    assert len(read_schedule(str(sched_file))) == 3


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_run_step_bound_below_1_exits_2(bound, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "run", "--algo", "alg1", "--n", "4", "--t", "2", "--k", "2",
            "--step-bound", bound,
        ])
    assert exc.value.code == 2
    assert "--step-bound: must be at least 1" in capsys.readouterr().err


def _views(*views):
    return [{"view": [list(pair) for pair in v]} for v in views]


ALL, P12, P13, P1, P2 = (
    ((1, 101), (2, 102), (3, 103)), ((1, 101), (2, 102)), ((1, 101), (3, 103)),
    ((1, 101),), ((2, 102),),
)

# The summaries of the first 10 runs of kis_oracle at (3,1,2) in each mode.
EXPLORE_KIS_ORACLE_3_1_2_MAX_10 = {
    "reduced": {
        "runs": 10,
        "decision_sets": [
            _views(ALL, P12, P1), _views(ALL, P12, P2), _views(ALL, P13, P1),
            _views(ALL, P1), _views(P12, P1), _views(P13, P1),
        ],
        "outcomes": {"returned": 24, "crashed": 6, "blocked": 0},
    },
    "literal": {
        "runs": 10,
        "decision_sets": [
            _views(ALL, P12, P1), _views(ALL, P13, P1), _views(ALL, P1),
            _views(P12, P1), _views(P13, P1),
        ],
        "outcomes": {"returned": 23, "crashed": 7, "blocked": 0},
    },
}


@pytest.mark.parametrize("mode", sorted(EXPLORE_KIS_ORACLE_3_1_2_MAX_10))
def test_explore_max_runs_stops_after_n_runs(mode, tmp_path, capsys):
    out_file = tmp_path / "summary.json"
    rc = main([
        "explore", "--algo", "kis_oracle", "--n", "3", "--t", "1", "--k", "2",
        "--max-runs", "10", "--check", "--out", str(out_file),
        *(["--literal"] if mode == "literal" else []),
    ])
    assert rc == 0
    assert json.loads(out_file.read_text()) == {
        "algo": "kis_oracle", "n": 3, "t": 1, "k": 2, "mode": mode,
        **EXPLORE_KIS_ORACLE_3_1_2_MAX_10[mode],
        "check_failures": 0,
    }


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_explore_max_runs_below_1_exits_2(bound, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "explore", "--algo", "alg1", "--n", "3", "--t", "1", "--k", "1",
            "--max-runs", bound, "--check",
        ])
    assert exc.value.code == 2
    assert "--max-runs: must be at least 1" in capsys.readouterr().err


def test_unknown_algorithm_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--algo", "nope", "--n", "3", "--t", "1", "--k", "1"])


def test_run_replays_a_matrix_trial_seed(tmp_path, capsys):
    """`run --seed` takes the string seed of a matrix trial and writes the
    very trace that trial ran."""
    from kisnap import make_instance, run_random, trace_to_jsonl, trial_seed

    seed = trial_seed(0, 11, 3, 5, 12)
    assert seed == "0:11:3:5:12"
    trace_file = tmp_path / "t.jsonl"
    assert main([
        "run", "--algo", "alg1", "--n", "11", "--t", "3", "--k", "5",
        "--seed", seed, "--out", str(trace_file),
    ]) == 0
    assert f"seed={seed}" in capsys.readouterr().out
    inst = make_instance("alg1", 11, 3, 5)
    assert trace_file.read_text() == trace_to_jsonl(run_random(inst, seed).trace)


def test_run_integer_seed_stays_an_integer(tmp_path, capsys):
    """`--seed 7` seeds with the int 7, not the string "7"."""
    from kisnap import make_instance, run_random, trace_to_jsonl

    trace_file = tmp_path / "t.jsonl"
    assert main([
        "run", "--algo", "alg1", "--n", "4", "--t", "2", "--k", "2",
        "--seed", "7", "--out", str(trace_file),
    ]) == 0
    inst = make_instance("alg1", 4, 2, 2)
    assert trace_file.read_text() == trace_to_jsonl(run_random(inst, 7).trace)
    assert trace_file.read_text() != trace_to_jsonl(run_random(inst, "7").trace)


def test_run_seed_that_is_neither_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algo", "alg1", "--n", "4", "--t", "2", "--k", "2",
              "--seed", "seven"])
    assert exc.value.code == 2
    assert "expected an integer or a trial seed" in capsys.readouterr().err


def test_explore_check_applies_the_validator(capsys, monkeypatch):
    """`explore --check` fails a run whose trace `validate_trace` rejects,
    even when every standard report passes."""
    monkeypatch.setattr(
        "kisnap.checkers.validate_trace", lambda trace: ["stub problem"]
    )
    rc = main([
        "explore", "--algo", "kis_oracle", "--n", "3", "--t", "1", "--k", "1",
        "--check", "--max-runs", "2",
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[well-formed] object trace: FAIL" in out
    assert "well_formed: FAIL -- stub problem" in out
    assert "checked runs: 2, failures: 2" in out


def test_run_check_applies_the_validator(capsys, monkeypatch):
    """`run --check` fails a run whose trace `validate_trace` rejects, even
    when every standard report passes."""
    monkeypatch.setattr(
        "kisnap.checkers.validate_trace", lambda trace: ["stub problem"]
    )
    rc = main([
        "run", "--algo", "kis_oracle", "--n", "3", "--t", "1", "--k", "1",
        "--seed", "0", "--check",
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[well-formed] object trace: FAIL" in out
    assert "well_formed: FAIL -- stub problem" in out


def test_check_rejects_an_invoke_without_a_pid(tmp_path, capsys):
    """Only a commit is made by no process: a trace where p1 and a null pid
    both invoke `o` and get {(1, 0)} writes, but reading it back fails at
    the null pid's invoke, and `check` exits 2 naming that line."""
    view = frozenset({(1, 0)})
    trace = Trace(
        n=3, t=1, k=1,
        events=[
            Event(0, "invoke", 1, "o", "write_snapshot_k", 0),
            Event(1, "invoke", None, "o", "write_snapshot_k", 0),
            Event(2, "respond", 1, "o", "write_snapshot_k", None, view),
            Event(3, "respond", None, "o", "write_snapshot_k", None, view),
        ],
        outcomes={},
        meta={"objects": ["o"]},
    )
    trace_file = tmp_path / "t.jsonl"
    write_trace(trace_file, trace)
    for kind in ("is", "theorem1"):
        argv = ["check", "--trace", str(trace_file), "--kind", kind, "--obj", "o"]
        assert main([*argv, "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert "error: line 3: bad event" in err
        assert "pid None an int or null (null only on a commit_batch)" in err


@pytest.mark.parametrize(
    "event,rc,message",
    [
        (
            '{"step":"a","kind":"crash","pid":1}',
            2,
            "error: line 2: bad event: step 'a' must be an int",
        ),
        (
            '{"step":0,"kind":"invoke","pid":1,"obj":5,"op":"snap","args":5}',
            2,
            "obj 5 and op 'snap' strings or null",
        ),
        (
            '{"step":0,"kind":"invoke","pid":[1],"obj":"kis","op":"snap","args":5}',
            2,
            "pid [1] an int or null",
        ),
        (
            '{"step":0,"kind":"reg_read","pid":1,"obj":"kis","op":"scan","ret":5}',
            1,
            "malformed trace: step 0: scan of kis returned 5, "
            "registers hold (None, None, None)",
        ),
    ],
    ids=["step_not_int", "obj_not_str", "pid_not_hashable", "scan_ret_not_tuple"],
)
def test_check_rejects_outside_input_without_a_traceback(
    tmp_path, capsys, event, rc, message
):
    """A one-event trace whose fields the checkers cannot read is a parse
    error (exit 2); a scan that returns no tuple is a malformed trace."""
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text(
        '{"kind":"config","n":3,"t":1,"k":1,"meta":{"objects":["kis"]}}\n'
        f"{event}\n"
        '{"kind":"end","outcomes":{}}\n'
    )
    argv = ["check", "--trace", str(trace_file), "--kind", "is", "--obj", "kis"]
    assert main(argv) == rc
    out, err = capsys.readouterr()
    assert message in (err if rc == 2 else out)
