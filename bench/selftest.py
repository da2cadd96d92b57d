"""Self-test of the benchmark's explore counters.

    python3 bench/selftest.py

Run from the repository root. Enumerates alg1 at (n,t,k) = (4,2,2) with the
sleep-set reduction under the tracer and checks that the counters taken
from outside reproduce the figures the explore layer is known to give at
this commit: 24,445 leaves, 76,922 interior nodes and 30,348 sleep-blocked
nodes. A change to the reduction that legitimately cuts these numbers
updates EXPECTED together with the evidence for the new figures.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import kisnap  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPECTED = {
    "explore.leaves": 24_445,
    "explore.interior": 76_922,
    "explore.sleep_blocked": 30_348,
}


def main() -> int:
    tracer = Tracer()
    tracer.install()
    inst = kisnap.make_instance("alg1", 4, 2, 2)
    for _ in kisnap.enumerate_runs(inst, reduced=True):
        tracer.end_run()
    got = tracer.metrics()
    ok = True
    for name, want in EXPECTED.items():
        mark = "ok" if got[name] == want else "MISMATCH"
        ok = ok and got[name] == want
        print(f"{name:24} {got[name]:>8} expected {want:>8} {mark}")
    print(f"explore.nodes            {got['explore.nodes']:>8}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
