"""The three benchmark workloads, run against kisnap's public API.

Each workload has a `setup` (build the first instance: the part every CLI
invocation pays before work starts) and a `run` that does the timed work,
checks every run it makes, and returns its outputs for the pinned-output
gate. The benchmark seed only chooses the generated inputs: trial seeds for
the seeded workloads, process proposals for the exhaustive one.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field

from tracer import rebind

MATRIX_N = 11
MATRIX_TRIALS = 20  # per cell; 55 cells
EXPLORE_N = 4
EXPLORE_CELLS = ((1, 1), (1, 2), (1, 3), (2, 2))
REPLAY_NTK = (7, 3, 3)
REPLAY_RUNS = 500


# The shared host this benchmark was defined on runs the same code at
# speeds up to 1.7x apart, switching every few seconds in a mix that changes
# from minute to minute, so raw times of one commit spread by more than
# any useful bound. A fixed piece of pure-Python work, read between runs,
# slows by the same factor as kisnap (the ratio of the two stayed within 3 %
# while each alone moved by 50 %), so each timed segment is scaled by
# GAUGE_S over the gauge's reading at that moment.
GAUGE_LOOPS = 3000
GAUGE_S = 0.00033  # the gauge's time on that host when nothing contended
GAUGE_EVERY_S = 0.02  # of timed work between readings
GAUGE_SPAN = 2  # readings each side of a segment in its median


def gauge() -> float:
    """Seconds the host takes now for a fixed piece of pure-Python work."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(GAUGE_LOOPS):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - started


class Meter:
    """One clock read when a run starts and one when it ends; nothing else
    is timed inside the work. Between runs, every GAUGE_EVERY_S of timed
    work, it reads the gauge; its clock leaves the gauge's time out. With a
    tracer, the end of a run also folds that run's spans."""

    def __init__(self, tracer=None):
        self.marks: list[float] = []
        self.gauges: list[tuple[float, float]] = []  # (clock, gauge seconds)
        self.tracer = tracer
        self.paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def start(self) -> None:
        self.marks.append(self.clock())

    def stop(self) -> None:
        now = self.clock()
        self.marks.append(now)
        if self.tracer is not None:
            self.tracer.end_run()
        if not self.gauges or now - self.gauges[-1][0] >= GAUGE_EVERY_S:
            self.read_gauge()

    def read_gauge(self) -> None:
        paused = time.perf_counter()
        self.gauges.append((self.clock(), gauge()))
        self.paused += time.perf_counter() - paused

    def scaled_segments(self, begin: float, end: float) -> list[float]:
        """The timed part from `begin` to `end` cut at the run marks into
        segments (gap, run, gap, run, ..., gap), each scaled by GAUGE_S over
        the median of the gauge readings nearest it."""
        self.read_gauge()
        at = [t for t, _ in self.gauges]
        readings = [g for _, g in self.gauges]
        cuts = [begin, *self.marks, end]
        out = []
        for a, b in zip(cuts, cuts[1:]):
            i = bisect.bisect_left(at, a)
            near = readings[max(0, i - GAUGE_SPAN) : i + GAUGE_SPAN + 1]
            out.append((b - a) * GAUGE_S / statistics.median(near))
        return out


@dataclass
class Result:
    runs: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(outputs: dict) -> str:
    return sha256(json.dumps(outputs, sort_keys=True, separators=(",", ":")))


# ── matrix_n11: the paper's (t, k) agreement sweep ───────────────────────────


def matrix_setup(kisnap, seed: int):
    return kisnap.make_instance("alg1", MATRIX_N, 1, 1)


def matrix_run(kisnap, seed: int, instance, meter: Meter) -> Result:
    res = Result()
    run_random = kisnap.run_random

    def timed_run_random(*args, **kwargs):
        meter.start()
        out = run_random(*args, **kwargs)
        meter.stop()
        return out

    rebind("kisnap.core", "run_random", timed_run_random)
    try:
        report = kisnap.run_matrix(
            MATRIX_N, trials=MATRIX_TRIALS, seed=seed, exhaustive=False
        )
    except (kisnap.SimError, kisnap.ObjectError, RuntimeError) as exc:
        # an illegal action or a trial at the step bound ends the sweep
        res.runs = len(meter.marks) // 2
        res.fail(f"run_matrix raised {exc!r}")
        return res
    res.runs = sum(c.trials for c in report.cells)
    for c in report.cells:
        if c.trials != MATRIX_TRIALS:
            res.fail(f"cell ({c.t},{c.k}) ran {c.trials} trials")
        if c.violations or c.observed_max > c.bound:
            res.failed += c.violations or 1
            res.problems.append(
                f"cell ({c.t},{c.k}): observed {c.observed_max} > bound "
                f"{c.bound} or {c.violations} violations"
            )
    if len(report.cells) != MATRIX_N * (MATRIX_N - 1) // 2:
        res.fail(f"matrix has {len(report.cells)} cells")
    elif report.cell(1, 1).observed_max != 1:
        res.fail(f"cell (1,1) observed {report.cell(1, 1).observed_max} != 1")
    elif report.cell(5, 10).bound != 6 or report.cell(5, 10).observed_max > 6:
        res.fail("cell (5,10) is not within its bound of 6")
    res.outputs = {"cells": [[c.t, c.k, c.observed_max] for c in report.cells]}
    return res


# ── explore_n4: exhaustive reduced enumeration, every leaf checked ──────────


def explore_instance(kisnap, seed: int, t: int, k: int):
    """alg1 at (EXPLORE_N, t, k) with distinct proposals drawn from the seed."""
    inputs = random.Random(f"explore_n4:{seed}").sample(range(1, 1000), EXPLORE_N)
    return kisnap.make_instance("alg1", EXPLORE_N, t, k, tuple(inputs))


def explore_setup(kisnap, seed: int):
    return explore_instance(kisnap, seed, *EXPLORE_CELLS[0])


def explore_run(kisnap, seed: int, first, meter: Meter) -> Result:
    res = Result()
    cells = []
    for t, k in EXPLORE_CELLS:
        if (t, k) == EXPLORE_CELLS[0]:
            inst = first
        else:
            inst = explore_instance(kisnap, seed, t, k)
        outcomes = set()
        meter.start()
        for tr in kisnap.enumerate_runs(inst, reduced=True):
            res.runs += 1
            bad = [r for r in kisnap.standard_reports(tr) if not r.passed]
            broken = kisnap.validate_trace(tr)
            if bad or broken or tr.truncated:
                res.fail(
                    f"({t},{k}) leaf {res.runs}: truncated={tr.truncated} "
                    f"{[r.failures() for r in bad]} {broken[:2]}"
                )
            outcomes.add(
                (
                    tuple(sorted(set(tr.decisions().values()))),
                    tuple(sorted(tr.crashed_pids())),
                )
            )
            meter.stop()
            meter.start()
        meter.marks.pop()  # the walk past the last leaf starts no run
        worst = max(len(d) for d, _ in outcomes)
        bound = kisnap.xsa_bound(EXPLORE_N, t, k)
        if worst != bound:
            res.fail(f"({t},{k}): worst distinct decisions {worst} != bound {bound}")
        cells.append([t, k, worst, sha256(json.dumps(sorted(outcomes)))])
    res.outputs = {"cells": cells}
    return res


# ── replay_n7: run, save, load, replay, byte-compare, check ─────────────────


def replay_setup(kisnap, seed: int):
    return kisnap.make_instance("alg1_over_alg2", *REPLAY_NTK)


def replay_run(kisnap, seed: int, instance, meter: Meter) -> Result:
    from kisnap.trace import schedule_from_jsonl, schedule_to_jsonl

    res = Result()
    hashes = []
    for i in range(REPLAY_RUNS):
        meter.start()
        res.runs += 1
        try:
            trial = kisnap.trial_seed(seed, "replay", *REPLAY_NTK, i)
            first = kisnap.run_random(instance, trial)
            text = kisnap.trace_to_jsonl(first.trace)
            schedule = schedule_to_jsonl(first.actions)
            saved = kisnap.trace_from_jsonl(text)
            actions = schedule_from_jsonl(schedule)
            again = kisnap.run(instance, kisnap.ReplaySchedule(actions))
            same = kisnap.trace_to_jsonl(again.trace) == text
            bad = [r for r in kisnap.standard_reports(saved) if not r.passed]
            broken = kisnap.validate_trace(saved)
        except (kisnap.SimError, kisnap.ObjectError, kisnap.TraceParseError) as exc:
            res.fail(f"run {i}: {exc!r}")
            hashes.append(None)
            meter.stop()
            continue
        if not same or bad or broken or saved.truncated:
            res.fail(
                f"run {i}: replay identical={same} truncated={saved.truncated} "
                f"{[r.failures() for r in bad]} {broken[:2]}"
            )
        hashes.append(sha256(text))
        meter.stop()
    res.outputs = {"trace_sha256": hashes}
    return res


WORKLOADS = {
    "matrix_n11": (matrix_setup, matrix_run),
    "explore_n4": (explore_setup, explore_run),
    "replay_n7": (replay_setup, replay_run),
}
