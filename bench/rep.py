"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N [--trace] [--setup-only]

Run from the repository root; kisnap is imported from ./src. Prints one
JSON object: the monotonic clock reading when the first instance was ready
(the parent subtracts its spawn time to get the set-up time) and the speed
gauge read just after, and unless --setup-only the timed wall seconds, run
count, failures, the gauge-scaled times of the segments the run marks cut
the timed part into, peak RSS, the outputs for the pinned-output gate and,
with --trace, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import kisnap

    import_s = time.perf_counter() - started
    if not os.path.abspath(kisnap.__file__).startswith(SRC + os.sep):
        print(f"kisnap imported from {kisnap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS, Meter, digest, gauge

    setup, run = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    first = setup(kisnap, args.seed)
    ready = time.monotonic()
    out = {"ready": ready, "gauge_s": statistics.median(gauge() for _ in range(5))}
    if not args.setup_only:
        meter = Meter(tracer)
        t0 = meter.clock()
        res = run(kisnap, args.seed, first, meter)
        t1 = meter.clock()
        out["wall_s"] = t1 - t0
        out.update(
            runs=res.runs,
            failed=res.failed,
            problems=res.problems,
            outputs=res.outputs,
            digest=digest(res.outputs),
            segments=meter.scaled_segments(t0, t1),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            layers = tracer.metrics()
            layers["import.s"] = import_s
            peek = getattr(kisnap.core, "_peek_cached", None)
            if peek is None:
                tracer.missing.append("kisnap.core._peek_cached")
            else:
                info = peek.cache_info()
                lookups = info.hits + info.misses
                layers["core.replay.hits"] = info.hits
                layers["core.replay.misses"] = info.misses
                layers["core.replay.hit_ratio"] = info.hits / lookups if lookups else 0.0
                layers["core.replay.entries"] = info.currsize
            out["layers"] = layers
            out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
