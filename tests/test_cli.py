"""CLI tests: every subcommand runs, writes what it promises, and exits 0
exactly when all checks pass."""

from __future__ import annotations

import json

import pytest

from kisnap import read_schedule, read_trace
from kisnap.cli import main


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


def test_simulate_seeded(capsys):
    rc = main(["simulate", "--n", "4", "--t", "2", "--k", "2", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "simulators decided" in out


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
    # an inner algorithm that does not decide through xsa cannot be simulated
    rc = main([
        "simulate", "--inner-algo", "kis_oracle", "--n", "4", "--t", "2", "--k", "2",
    ])
    assert rc == 2
    assert "cannot be simulated" in capsys.readouterr().err


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
