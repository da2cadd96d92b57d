"""Golden trace digests: a speed-up must not change a trace.

Each digest is the sha256 of the JSONL bytes of fixed seeded runs (trace
followed by schedule, run after run) or of every leaf of one reduced
exhaustive walk, in yield order. The values are fixed: a change to
scheduling, the random menu order, event order or encoding fails here, so
an optimization of the simulator must leave them as they are.
"""

from __future__ import annotations

import hashlib

import pytest

from kisnap import enumerate_runs, make_instance, run_random, trace_to_jsonl
from kisnap.trace import schedule_to_jsonl

SEEDS = range(12)

# case -> (algo, n, t, k, initial crashes, sha256)
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
        "c5961e4421966246cf1186fd6ab26898ec47417d6a368b0fc9c90a9eab5fd819",
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


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()


def _seeded_chunks(algo, n, t, k, initial_crashes):
    inst = make_instance(algo, n, t, k)
    for seed in SEEDS:
        res = run_random(inst, seed, initial_crashes=initial_crashes)
        yield trace_to_jsonl(res.trace)
        yield schedule_to_jsonl(res.actions)


@pytest.mark.parametrize("case", sorted(SEEDED))
def test_seeded_runs_match_golden_digest(case):
    *spec, want = SEEDED[case]
    assert _sha(_seeded_chunks(*spec)) == want


def test_reduced_exhaustive_leaves_match_golden_digest():
    inst = make_instance("alg1", 3, 2, 2)
    leaves = (trace_to_jsonl(tr) for tr in enumerate_runs(inst, reduced=True))
    assert _sha(leaves) == EXHAUSTIVE_ALG1_3_2_2
