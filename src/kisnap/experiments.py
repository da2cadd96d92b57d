"""Experiment drivers: the (t, k) agreement matrix, the blocking strawman
demo, and the consensus/k-IS equivalence suite, plus `sweep`, the one loop
that runs checks over a stream of traces for them and for the CLI.

The matrix driver sweeps every cell 1 <= t <= k <= n-1, runs the k-IS-based
set-agreement reduction under adversarial schedules (exhaustively for small
n, seeded-random otherwise), and compares the observed maximum number of
distinct decisions against the closed-form bound max(1, t+k-(n-2)). Reports
are plain data (JSON-ready dicts plus a text table); rendering figures is
out of scope.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from .checkers import PASS, CheckReport, Verdict, check_xsa
from .core import RandomSchedule, ReplaySchedule, run, run_random
from .explore import enumerate_runs
from .reductions import make_instance, standard_reports, xsa_bound
from .trace import BLOCKED, CRASHED, RETURNED, Trace


def trial_seed(seed: int, *parts) -> str:
    """Deterministic per-trial seed string (stable across platforms)."""
    return ":".join(str(p) for p in (seed, *parts))


# ── The sweep loop ───────────────────────────────────────────────────────────

KEPT_FAILURES = 20  # failing runs whose reports a sweep keeps


@dataclass
class Sweep:
    """What one pass over a stream of traces saw.

    `failures` holds (index in the stream, failing reports) of the first
    KEPT_FAILURES failing runs only, so a long sweep stays small; `failed`
    counts them all and `witness` is the first failing trace.
    """

    runs: int = 0
    decision_sets: set[frozenset] = field(default_factory=set)
    outcomes: dict[str, int] = field(
        default_factory=lambda: {RETURNED: 0, CRASHED: 0, BLOCKED: 0}
    )
    failed: int = 0
    witness: Trace | None = None
    failures: list[tuple[int, list[CheckReport]]] = field(default_factory=list)

    @property
    def observed_max(self) -> int:
        """Most distinct decisions in one run."""
        return max(map(len, self.decision_sets), default=0)


def sweep(
    traces: Iterable[Trace],
    check: Callable[[Trace], Iterable[CheckReport]] = lambda trace: (),
) -> Sweep:
    """Tally the decisions and outcomes of every trace and apply `check` to
    each; a run fails when one of its reports does. A truncated trace
    raises RuntimeError: it shows where a run stopped, not what it does."""
    found = Sweep()
    for tr in traces:
        if tr.truncated:
            raise RuntimeError(
                f"run {found.runs} of {tr.meta.get('algo')} at "
                f"n={tr.n} t={tr.t} k={tr.k} hit the step bound"
            )
        found.decision_sets.add(frozenset(tr.decisions().values()))
        for out in tr.outcomes.values():
            found.outcomes[out[0]] += 1
        bad = [rep for rep in check(tr) if not rep.passed]
        if bad:
            found.failed += 1
            if found.witness is None:
                found.witness = tr
            if len(found.failures) < KEPT_FAILURES:
                found.failures.append((found.runs, bad))
        found.runs += 1
    return found


# ── Agreement matrix ─────────────────────────────────────────────────────────


@dataclass
class MatrixCell:
    t: int
    k: int
    bound: int
    observed_max: int
    trials: int
    violations: int
    witness: Trace | None

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.observed_max <= self.bound

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "k": self.k,
            "bound": self.bound,
            "observed_max": self.observed_max,
            "trials": self.trials,
            "violations": self.violations,
            "ok": self.ok,
        }


@dataclass
class MatrixReport:
    n: int
    mode: str
    seed: int
    trials_per_cell: int
    cells: list[MatrixCell] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cells)

    def cell(self, t: int, k: int) -> MatrixCell:
        for c in self.cells:
            if c.t == t and c.k == k:
                return c
        raise KeyError((t, k))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "seed": self.seed,
            "trials_per_cell": self.trials_per_cell,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "cells": [c.to_dict() for c in self.cells],
        }


def run_matrix(
    n: int,
    trials: int = 1000,
    seed: int = 0,
    *,
    exhaustive: bool | None = None,
    progress: bool = False,
) -> MatrixReport:
    """Sweep alg1 over all cells 1 <= t <= k <= n-1 and compare against the
    bound.

    `exhaustive=None` picks exhaustive (reduced) enumeration for n <= 4 and
    seeded-random trials otherwise. A sweep that would check nothing (n < 3,
    or fewer than one random trial per cell) raises ValueError.
    """
    if n < 3:
        raise ValueError(f"the matrix needs n >= 3, got n={n}")
    if exhaustive is None:
        exhaustive = n <= 4
    if not exhaustive and trials < 1:
        raise ValueError(f"need at least one trial per cell, got {trials}")
    mode = "exhaustive" if exhaustive else "random"
    report = MatrixReport(
        n=n, mode=mode, seed=seed, trials_per_cell=0 if exhaustive else trials
    )
    start = time.time()
    for t in range(1, n):
        for k in range(t, n):
            bound = xsa_bound(n, t, k)
            inst = make_instance("alg1", n, t, k)
            if exhaustive:
                traces = enumerate_runs(inst, reduced=True)
            else:
                traces = (
                    run_random(inst, trial_seed(seed, n, t, k, i)).trace
                    for i in range(trials)
                )
            found = sweep(traces, lambda tr: [check_xsa(tr, bound)])
            cell = MatrixCell(
                t, k, bound, found.observed_max, found.runs, found.failed,
                found.witness,
            )
            report.cells.append(cell)
            if progress:
                print(
                    f"  cell t={t} k={k}: bound={cell.bound} "
                    f"observed={cell.observed_max} trials={cell.trials} "
                    f"violations={cell.violations}",
                    flush=True,
                )
    report.elapsed = time.time() - start
    return report


def render_matrix(report: MatrixReport) -> str:
    """Text table of observed/bound per cell (rows t, columns k)."""
    n = report.n
    width = 6
    header = "t\\k".ljust(4) + "".join(str(k).rjust(width) for k in range(1, n))
    lines = [
        f"n={n} mode={report.mode} "
        f"(entries: observed max distinct decisions / bound)",
        header,
    ]
    for t in range(1, n):
        row = [str(t).ljust(4)]
        for k in range(1, n):
            if k < t:
                row.append(" " * width)
            else:
                c = report.cell(t, k)
                mark = "" if c.ok else "!"
                row.append(f"{c.observed_max}/{c.bound}{mark}".rjust(width))
        lines.append("".join(row))
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


# ── Blocking strawman demo ───────────────────────────────────────────────────


def blocking_traces(n: int, t: int, k: int, seeds: int) -> Iterator[Trace]:
    """The blocking demo's runs of the naive k-IS attempt, one per seed: the
    schedule first crashes t seeded victims, which uses up the crash budget,
    then runs the survivors under a seeded random schedule."""
    if seeds < 1:
        raise ValueError(f"need at least one seed, got {seeds}")
    inst = make_instance("naive", n, t, k)
    for s in range(seeds):
        rng = random.Random(trial_seed(0, "blocking", n, t, k, s))
        crashes = [("crash", p) for p in sorted(rng.sample(range(1, n + 1), t))]
        survivors = RandomSchedule(
            random.Random(trial_seed(0, "blocking-run", n, t, k, s)), ()
        )
        yield run(inst, ReplaySchedule(crashes, survivors)).trace


def _nothing_decided(tr: Trace) -> list[CheckReport]:
    """The blocking demo's check: no process returned."""
    decided = tr.decisions()
    verdict = PASS
    if decided:
        returned = ", ".join(f"p{p} returned {v!r}" for p, v in decided.items())
        verdict = Verdict(False, f"{returned}; crashed {sorted(tr.crashed_pids())}")
    return [CheckReport("nkis", "blocking", {"nothing_decided": verdict})]


def run_blocking_demo(n: int = 4, t: int = 2, k: int = 1, seeds: int = 100) -> Sweep:
    """Demonstrate why k < t cannot be implemented without the oracle.

    Over `blocking_traces`, the survivors wait for n-k published values
    while only n-t < n-k can ever appear. A run fails when any process
    returns; since `sweep` rejects truncated runs and the crashes that open
    each run use up the budget, a run that passes ends quiescent with every
    survivor blocked.
    """
    return sweep(blocking_traces(n, t, k, seeds), _nothing_decided)


# ── Consensus / k-IS equivalence suite ───────────────────────────────────────


def equivalence_zone(n: int, t: int, k: int) -> bool:
    """The parameter zone where consensus and k-IS are interreducible:
    a minority of crashes and t <= k <= (n-1)-t."""
    return 0 < t < n / 2 and t <= k <= (n - 1) - t


# (direction, algorithm, trial-seed tag) per direction
EQUIVALENCE_RUNS = (
    ("alg2_kis_histories", "alg2", "eqA"),
    ("alg1_single_decision", "alg1", "eqB"),
    ("composed_runs", "alg1_over_alg2", "eqC"),
)


def run_equivalence_suite(
    n: int = 5,
    t: int = 2,
    k: int = 2,
    trials: int = 1000,
    seed: int = 0,
) -> dict[str, Sweep]:
    """Exercise both reduction directions inside the equivalence zone and
    return one sweep per direction, keyed as in EQUIVALENCE_RUNS.

    Direction A (consensus -> k-IS): every sampled run of the consensus-based
    construction must yield a history satisfying all k-IS properties and the
    minimum-view theorem. Direction B (k-IS -> consensus): every sampled run
    of the set-agreement reduction over a k-IS oracle must decide a single
    value, since t+k <= n-1 forces x = 1. The composed program (reduction
    running on the constructed object instead of the oracle) is sampled as
    well, checking both layers inside one trace. Every sampled trace gets
    its algorithm's full `standard_reports`.
    """
    if not equivalence_zone(n, t, k):
        raise ValueError(
            f"(n,t,k)=({n},{t},{k}) is outside the equivalence zone "
            "0 < t < n/2, t <= k <= (n-1)-t"
        )
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    sweeps = {}
    for key, algo, tag in EQUIVALENCE_RUNS:
        inst = make_instance(algo, n, t, k)
        traces = (
            run_random(inst, trial_seed(seed, tag, i)).trace for i in range(trials)
        )
        sweeps[key] = sweep(traces, standard_reports)
    return sweeps
