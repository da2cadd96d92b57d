"""kisnap benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. A closed loop with one run in flight: the
parent starts one repetition of the workload at a time, each in a fresh
interpreter (kisnap's replay cache is process-global, so a second
repetition in one process would measure only cache hits; every CLI
invocation pays the cold cache). Repetitions repeat, at least two, while
the next one should end within --seconds; each does the same work on the
inputs the seed generates. End-to-end times are gauge-scaled (see
workloads.GAUGE_S): each timed segment is scaled by how fast the host ran
a fixed piece of pure-Python work at that moment, then the median of each
segment over the repetitions is taken.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics, with the tracing overhead. Human-readable lines come first; the
last line is one JSON object. Exits 1 when any run fails its checks or an
output differs from the pins (bench/pins.json, for the pinned seed) or
between repetitions, and 2 when ./src/kisnap is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import GAUGE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
SETUP_PROBES = 6  # extra set-ups per run, so setup_s is a median of many
CHILD_TIMEOUT_S = 150


class RepFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, *flags: str) -> dict:
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{' '.join(cmd)} took over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RepFailed(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = (out["ready"] - spawned) * GAUGE_S / out["gauge_s"]
    return out


def mismatches(got: dict, pinned: dict) -> list[str]:
    """Pinned items (cells or traces) whose output differs."""
    bad = []
    for key, want in pinned.items():
        have = got.get(key, [])
        for i in range(max(len(want), len(have))):
            a = want[i] if i < len(want) else None
            b = have[i] if i < len(have) else None
            if a != b:
                bad.append(f"{key}[{i}]: pinned {a}, got {b}")
    return bad


def segment_times(reps: list[dict]) -> list[float]:
    """The median over the repetitions of each segment's gauge-scaled time.
    Every repetition of a run does the same work in the same cache state,
    so segment j is the same work in each."""
    columns = zip(*(r["segments"] for r in reps))
    return [statistics.median(column) for column in columns]


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "kisnap", "__init__.py")):
        print(f"no kisnap sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)

    w, seed = args.workload, args.seed
    try:
        spawn(w, seed, "--setup-only")  # warm-up: bytecode and file cache
        setups = [spawn(w, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        started = time.monotonic()
        longest = 0.0
        # at least two repetitions; another only if it should end in time
        while len(plain) < 2 or time.monotonic() - started + longest <= args.seconds:
            begun = time.monotonic()
            plain.append(spawn(w, seed))
            if args.trace:
                traced.append(spawn(w, seed, "--trace"))
            longest = max(longest, time.monotonic() - begun)
    except RepFailed as exc:
        print(f"repetition failed: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["runs"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    if len({r["digest"] for r in reps}) != 1:
        failed += 1
        problems.append("outputs differ between repetitions (or traced vs untraced)")
    if len({len(r["segments"]) for r in reps}) != 1:
        failed += 1
        problems.append("repetitions made different numbers of runs")
    if seed == pins["seed"]:
        bad = mismatches(plain[0]["outputs"], pins[w])
        failed += len(bad)
        problems += bad
    correct = failed == 0

    print(f"workload {w} seed {seed}: {len(plain)} untraced + {len(traced)} traced "
          f"repetitions, {attempted} runs, {failed} failed")
    print(f"digest {plain[0]['digest']}"
          + (" (pinned seed)" if seed == pins["seed"] else ""))
    for p in problems[:20]:
        print(f"FAIL {p}")
    print(f"{'failed_frac':32} {failed / attempted if attempted else 1.0:>14.6g} ratio")

    if args.trace:
        entries = spec["per_layer"]
        for name in sorted({m for r in traced for m in r["missing"]}):
            print(f"note: {name} not found, its metrics read 0")
        values = {
            m["name"]: statistics.median(r["layers"].get(m["name"], 0.0) for r in traced)
            for m in entries
        }
        values["trace.overhead_s"] = statistics.median(
            sum(r["segments"]) for r in traced
        ) - statistics.median(sum(r["segments"]) for r in plain)
    else:
        entries = spec["end_to_end"]
        segments = segment_times(plain)
        latency = [x * 1e3 for x in segments[1::2]]
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "wall_s": sum(segments),
            "runs_per_s": plain[0]["runs"] / sum(segments),
            "run_p50_ms": percentile(latency, 50),
            "run_p99_ms": percentile(latency, 99),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        print(f"raw wall seconds of the repetitions: median "
              f"{statistics.median(r['wall_s'] for r in plain):.4g}, fastest "
              f"{min(r['wall_s'] for r in plain):.4g}; {len(segments)} segments, "
              f"{len(latency)} runs, {len(setups) + len(plain)} set-ups")
    metrics = {}
    for m in entries:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
