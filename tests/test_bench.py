"""The benchmark's own self-test, run as part of the suite."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_bench_selftest_reproduces_the_explore_counters():
    """`bench/selftest.py` walks alg1 at (4,2,2) under the benchmark's
    tracer and exits 0 only when the leaf, interior-node and sleep-blocked
    counts it takes from outside are the pinned ones."""
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
