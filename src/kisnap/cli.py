"""Command-line interface.

Subcommands:

* `run`           one seeded or replayed run of a catalog algorithm
* `explore`       exhaustive enumeration of all schedules, with checks
* `matrix`        the (t, k) agreement-bound sweep
* `check`         run a property checker over a stored trace
* `simulate`      the two-simulator emulation of a k-IS algorithm
* `demo-blocking` the blocking strawman under initial crashes

Every subcommand exits 0 exactly when everything it verified passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from .checkers import (
    check_consensus_linearizable,
    check_is,
    check_theorem1,
    check_xsa,
    trace_report,
    validate_trace,
)
from .core import DEFAULT_STEP_BOUND, ReplaySchedule, run, run_random
from .experiments import (
    render_matrix,
    run_blocking_demo,
    run_equivalence_suite,
    run_matrix,
    sweep,
)
from .explore import enumerate_runs
from .reductions import CATALOG, make_instance, standard_reports
from .simulation import (
    INNER_ALGO,
    build_simulation,
    check_simulation_trace,
    extract_inner_trace,
)
from .trace import (
    BLOCKED,
    RETURNED,
    read_schedule,
    read_trace,
    value_to_json,
    view_to_json,
    write_schedule,
    write_trace,
)


def _parse_inputs(text: str | None, n: int):
    if text is None:
        return None
    vals = tuple(int(x) for x in text.split(","))
    if len(vals) != n:
        raise ValueError(f"--inputs needs {n} comma-separated values")
    return vals


def _print_outcomes(trace) -> None:
    for pid in sorted(trace.outcomes):
        out = trace.outcomes[pid]
        if out[0] == RETURNED:
            print(f"  p{pid}: returned {out[1]!r}")
        elif out[0] == BLOCKED and trace.truncated:
            print(f"  p{pid}: unfinished (run truncated)")
        else:
            print(f"  p{pid}: {out[0]}")
    flags = []
    if trace.quiescent:
        flags.append("quiescent")
    if trace.truncated:
        flags.append("truncated")
    if flags:
        print("  flags:", ", ".join(flags))


def _cmd_run(args) -> int:
    inputs = _parse_inputs(args.inputs, args.n)
    inst = make_instance(args.algo, args.n, args.t, args.k, inputs)
    if args.schedule.startswith("replay:"):
        actions = read_schedule(args.schedule[len("replay:") :])
        res = run(inst, ReplaySchedule(actions), step_bound=args.step_bound)
    elif args.schedule == "random":
        res = run_random(inst, args.seed, step_bound=args.step_bound)
    else:
        raise ValueError(f"unknown schedule {args.schedule!r}")
    trace = res.trace
    print(f"{args.algo} n={args.n} t={args.t} k={args.k} seed={args.seed}")
    _print_outcomes(trace)
    ok = not trace.truncated
    if args.check:
        for rep in _full_reports(trace):
            print(rep)
            ok = ok and rep.passed
    if args.out:
        write_trace(args.out, trace)
        print(f"trace written to {args.out}")
    if args.save_schedule:
        write_schedule(args.save_schedule, res.actions)
        print(f"schedule written to {args.save_schedule}")
    return 0 if ok else 1


def _print_failures(found) -> None:
    for i, reports in found.failures:
        print(f"run {i + 1}: FAIL")
        for rep in reports:
            print(rep)


def _full_reports(trace) -> list:
    """The standard reports of a trace and its well-formedness report."""
    return [*standard_reports(trace), trace_report(trace)]


def _cmd_explore(args) -> int:
    inputs = _parse_inputs(args.inputs, args.n)
    inst = make_instance(args.algo, args.n, args.t, args.k, inputs)
    runs = islice(enumerate_runs(inst, reduced=not args.literal), args.max_runs)
    found = sweep(runs, _full_reports) if args.check else sweep(runs)
    _print_failures(found)
    mode = "literal" if args.literal else "reduced"
    print(
        f"{args.algo} n={args.n} t={args.t} k={args.k}: {found.runs} {mode} "
        f"runs, {len(found.decision_sets)} distinct decision sets, "
        f"max decisions {found.observed_max}"
    )
    print(f"per-process outcomes: {found.outcomes}")
    if args.check:
        print(f"checked runs: {found.runs}, failures: {found.failed}")
    if args.out:
        summary = {
            "algo": args.algo,
            "n": args.n,
            "t": args.t,
            "k": args.k,
            "mode": mode,
            "runs": found.runs,
            "decision_sets": sorted(
                [sorted(d, key=value_to_json) for d in found.decision_sets],
                key=value_to_json,
            ),
            "outcomes": found.outcomes,
            "check_failures": found.failed,
        }
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, default=view_to_json)
        print(f"summary written to {args.out}")
    return 0 if found.failed == 0 else 1


def _cmd_matrix(args) -> int:
    exhaustive = True if args.exhaustive else (False if args.random else None)
    report = run_matrix(
        args.n,
        trials=args.trials,
        seed=args.seed,
        exhaustive=exhaustive,
        progress=args.progress,
    )
    print(render_matrix(report))
    print(f"elapsed: {report.elapsed:.1f}s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.out}")
    if args.witness:
        bad = next((c for c in report.cells if not c.ok and c.witness), None)
        if bad:
            write_trace(args.witness, bad.witness)
            print(f"violation witness written to {args.witness}")
    return 0 if report.passed else 1


def _cmd_check(args) -> int:
    kind = args.kind
    if kind == "theorem1" and args.k is None:
        raise ValueError("theorem1 check needs --k")
    if kind == "xsa" and args.x is None:
        raise ValueError("xsa check needs --x")
    if args.x is not None and args.x < 1:
        raise ValueError(f"--x must be at least 1, got {args.x}")
    trace = read_trace(args.trace)
    if args.k is not None and not 1 <= args.k <= trace.n - 1:
        raise ValueError(f"--k must be in 1..n-1 = 1..{trace.n - 1}, got {args.k}")
    problems = validate_trace(trace)
    for p in problems:
        print(f"malformed trace: {p}")
    if kind == "is":
        rep = check_is(trace, args.obj, k=args.k)
    elif kind == "theorem1":
        rep = check_theorem1(trace, args.obj, k=args.k)
    elif kind == "xsa":
        rep = check_xsa(trace, args.x, obj=args.obj)
    else:  # consensus; argparse admits no other kind
        rep = check_consensus_linearizable(trace, args.obj)
    print(rep)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rep.to_dict(), fh, indent=2)
    return 0 if rep.passed and not problems else 1


def _cmd_simulate(args) -> int:
    q_inputs = _parse_inputs(args.inputs, 2) or (0, 1)
    inst = build_simulation(args.n, args.t, args.k, q_inputs)
    if args.exhaustive:
        found = sweep(enumerate_runs(inst, reduced=True), check_simulation_trace)
        _print_failures(found)
        print(
            f"simulation {INNER_ALGO} n={args.n} t={args.t} k={args.k}: "
            f"{found.runs} outer schedules, {found.failed} check failures"
        )
        return 0 if found.failed == 0 else 1
    outer = run_random(inst, args.seed).trace
    reports = check_simulation_trace(outer)
    inner = extract_inner_trace(outer)
    print(f"simulators decided: {outer.decisions()}")
    print(f"inner decisions:    {inner.decisions()}")
    for rep in reports:
        print(rep)
    if args.out_prefix:
        write_trace(f"{args.out_prefix}.outer.jsonl", outer)
        write_trace(f"{args.out_prefix}.inner.jsonl", inner)
        print(
            f"traces written to {args.out_prefix}.outer.jsonl "
            f"and {args.out_prefix}.inner.jsonl"
        )
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_demo_blocking(args) -> int:
    found = run_blocking_demo(args.n, args.t, args.k, seeds=args.seeds)
    print(
        f"naive k-IS attempt at n={args.n} t={args.t} k={args.k}: "
        f"{found.runs - found.failed}/{found.runs} seeded runs ended with every "
        "survivor blocked"
    )
    if found.failed:
        _print_failures(found)
        return 1
    print(
        "as predicted: with k < t the wait for n-k published values can "
        "never finish once t processes crash first"
    )
    return 0


def _cmd_equivalence(args) -> int:
    sweeps = run_equivalence_suite(
        args.n, args.t, args.k, trials=args.trials, seed=args.seed
    )
    failures = [
        f"{key} trial {i}: {rep.failures()}"
        for key, found in sweeps.items()
        for i, reports in found.failures
        for rep in reports
    ]
    report = {
        "n": args.n,
        "t": args.t,
        "k": args.k,
        "trials": args.trials,
        "passed": not failures,
        "checked": {key: found.runs for key, found in sweeps.items()},
        "failures": failures[:20],
    }
    print(json.dumps(report, indent=2))
    return 1 if failures else 0


def _seed(text: str) -> int | str:
    """An integer literal as an int; otherwise a per-trial seed string as
    `experiments.trial_seed` writes it, such as 0:11:3:5:12."""
    try:
        return int(text)
    except ValueError:
        if ":" not in text:
            raise argparse.ArgumentTypeError(
                f"expected an integer or a trial seed such as 0:11:3:5:12, "
                f"got {text!r}"
            ) from None
        return text


def _at_least_1(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kisnap",
        description=(
            "Deterministic simulator and checkers for crash-prone "
            "shared-memory agreement objects"
        ),
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--algo", choices=tuple(CATALOG), required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--inputs", help="comma-separated per-process inputs")

    p = sub.add_parser("run", help="one seeded or replayed run")
    common(p)
    p.add_argument(
        "--seed",
        type=_seed,
        default=0,
        help="an integer, or a matrix trial seed such as 0:11:3:5:12 "
        "(seed:n:t:k:trial) to rerun that trial",
    )
    p.add_argument(
        "--schedule",
        default="random",
        help="'random' (default) or 'replay:<schedule.jsonl>'",
    )
    p.add_argument("--out", help="write the trace to this JSONL file")
    p.add_argument("--save-schedule", help="write the adversary choices here")
    p.add_argument(
        "--check", action="store_true", help="run standard checks and validate_trace"
    )
    p.add_argument(
        "--step-bound",
        type=_at_least_1,
        default=DEFAULT_STEP_BOUND,
        help="truncate the run after this many scheduler actions "
        f"(default {DEFAULT_STEP_BOUND})",
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("explore", help="enumerate all schedules exhaustively")
    common(p)
    p.add_argument(
        "--literal",
        action="store_true",
        help="enumerate every interleaving (default: partial-order reduced)",
    )
    p.add_argument("--max-runs", type=_at_least_1, default=None)
    p.add_argument("--check", action="store_true", help="check every run")
    p.add_argument("--out", help="write a JSON summary here")
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("matrix", help="agreement-bound sweep over (t, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", action="store_true")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--witness", help="write a violation witness trace here")
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("check", help="check a stored trace")
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--kind", choices=("is", "theorem1", "xsa", "consensus"), required=True
    )
    p.add_argument("--obj", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("simulate", help="two-simulator emulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--inputs", help="two comma-separated simulator inputs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--out-prefix", help="write outer/inner traces here")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("demo-blocking", help="naive k<t attempt blocks")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seeds", type=int, default=100)
    p.set_defaults(fn=_cmd_demo_blocking)

    p = sub.add_parser("equivalence", help="consensus/k-IS equivalence suite")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_equivalence)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
