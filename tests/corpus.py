"""Hand-built negative histories: one minimal trace per checked property,
violating exactly that property, with everything else clean.

Shared by the checker unit tests and the acceptance gate, together with
`run_python`, which runs a snippet under a fixed string hash seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import kisnap
from kisnap import Event, Trace
from kisnap.checkers import (
    check_consensus_linearizable,
    check_is,
    check_theorem1,
    check_xsa,
)

OBJ = "o"

_PATH = os.pathsep.join(
    [str(Path(kisnap.__file__).resolve().parents[1]), str(Path(__file__).parent)]
)


def run_python(code: str, hash_seed: int) -> str:
    """Stdout of `code` in a fresh interpreter with PYTHONHASHSEED set, so
    that set iteration order over strings differs between seeds; kisnap and
    this module are importable there."""
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": _PATH}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout


def view(*pairs) -> frozenset:
    return frozenset(pairs)


def inv(pid, value, obj=OBJ) -> Event:
    return Event(-1, "invoke", pid, obj, "snap", value)


def resp(pid, ret, obj=OBJ) -> Event:
    return Event(-1, "respond", pid, obj, "snap", None, ret)


def crash(pid) -> Event:
    return Event(-1, "crash", pid)


def mk_trace(events, n=3, t=1, k=1) -> Trace:
    stamped = []
    for i, e in enumerate(events):
        e.step = i
        stamped.append(e)
    return Trace(
        n=n,
        t=t,
        k=k,
        events=stamped,
        outcomes={},
        meta={"objects": [OBJ]},
    )


def bad_termination() -> Trace:
    """p1 invoked, never responded, never crashed, yet the run is over."""
    return mk_trace([inv(1, "a")])


def bad_self_inclusion() -> Trace:
    """p1's view misses p1's own pair."""
    return mk_trace(
        [
            inv(1, "a"),
            inv(2, "b"),
            resp(1, view((2, "b"))),
            resp(2, view((2, "b"))),
        ]
    )


def bad_validity() -> Trace:
    """p1's view invents a pair for p2, who never invoked."""
    return mk_trace([inv(1, "a"), resp(1, view((1, "a"), (2, "b")))])


def bad_validity_value() -> Trace:
    """p1's view reports p2 with a value p2 did not propose."""
    return mk_trace(
        [
            inv(1, "a"),
            inv(2, "c"),
            resp(1, view((1, "a"), (2, "b"))),
            crash(2),
        ]
    )


def bad_validity_real_time() -> Trace:
    """p1's view names p2's pair before p2 invokes: clairvoyant, though
    every pair is eventually invoked."""
    return mk_trace(
        [
            inv(1, "a"),
            resp(1, view((1, "a"), (2, "b"))),
            inv(2, "b"),
            resp(2, view((1, "a"), (2, "b"))),
        ]
    )


def bad_containment() -> Trace:
    """Two incomparable views (no shared responder, so immediacy is clean)."""
    return mk_trace(
        [
            inv(1, "a"),
            inv(2, "b"),
            inv(3, "c"),
            resp(1, view((1, "a"), (2, "b"))),
            resp(3, view((3, "c"))),
            crash(2),
        ]
    )


def bad_immediacy() -> Trace:
    """p2 appears in p1's view but p2's own view is strictly larger: the
    nested-views shape that plain (non-immediate) snapshots produce."""
    return mk_trace(
        [
            inv(1, "a"),
            inv(2, "b"),
            inv(3, "c"),
            resp(1, view((1, "a"), (2, "b"))),
            resp(2, view((1, "a"), (2, "b"), (3, "c"))),
            crash(3),
        ]
    )


def bad_output_size() -> Trace:
    """A singleton view where k = 1 demands at least n-k = 2 members."""
    return mk_trace(
        [
            inv(1, "a"),
            inv(2, "b"),
            inv(3, "c"),
            resp(1, view((1, "a"))),
            resp(2, view((1, "a"), (2, "b"))),
            resp(3, view((1, "a"), (2, "b"), (3, "c"))),
        ]
    )


def bad_min_view_members() -> Trace:
    """The smallest view contains p2, but p2 returned a larger view and did
    not crash: the minimum-view theorem's membership clause fails."""
    return mk_trace(
        [
            inv(1, "a"),
            inv(2, "b"),
            inv(3, "c"),
            resp(1, view((1, "a"), (2, "b"))),
            resp(2, view((1, "a"), (2, "b"), (3, "c"))),
            resp(3, view((1, "a"), (2, "b"), (3, "c"))),
        ]
    )


def bad_min_view_alive_unreturned() -> Trace:
    """The smallest view contains p2, who invoked but neither returned nor
    crashed."""
    return mk_trace(
        [
            inv(1, "a"),
            inv(2, "b"),
            inv(3, "c"),
            resp(1, view((1, "a"), (2, "b"))),
            resp(3, view((1, "a"), (2, "b"), (3, "c"))),
        ]
    )


def bad_min_view_never_invoked() -> Trace:
    """The smallest view contains p2, who never invoked."""
    return mk_trace(
        [
            inv(1, "a"),
            inv(3, "c"),
            resp(1, view((1, "a"), (2, "b"))),
            resp(3, view((1, "a"), (2, "b"), (3, "c"))),
        ]
    )


def bad_xsa_validity() -> Trace:
    return mk_trace([inv(1, 7), resp(1, 99)])


def bad_xsa_validity_real_time() -> Trace:
    """p1 decides 7 before p2 proposes it."""
    return mk_trace([inv(1, 8), resp(1, 7), inv(2, 7), resp(2, 7)])


def bad_xsa_agreement() -> Trace:
    return mk_trace([inv(1, 7), inv(2, 8), resp(1, 7), resp(2, 8)])


def bad_xsa_termination() -> Trace:
    return mk_trace([inv(1, 7)])


def bad_consensus_agreement() -> Trace:
    return mk_trace([inv(1, "x"), resp(1, "x"), inv(2, "y"), resp(2, "y")])


def bad_consensus_validity() -> Trace:
    return mk_trace([inv(1, "x"), resp(1, "z")])


def bad_consensus_linearization() -> Trace:
    """The decided value was proposed only after the first response, so no
    linearization point exists."""
    return mk_trace([inv(1, "x"), resp(1, "y"), inv(2, "y"), resp(2, "y")])


def repeated_pid_unordered() -> Trace:
    """p1's view names p1 twice, with an int and a string, which do not
    order: only validity fails, and the witnesses still get an order."""
    return mk_trace([inv(1, 0), resp(1, view((1, 0), (1, "a")))])


def repeated_pid_nested_view() -> Trace:
    """p1's view names p1 twice, with an int and a view, as a program that
    invokes one object twice can make a one-shot object answer. At n=4 the
    view is also too small for the minimum-view theorem at k=1."""
    return mk_trace([inv(1, 0), resp(1, view((1, 0), (1, view((1, 0)))))], n=4)


def string_pid() -> Trace:
    """p1's view names a pid that is a string, which a decoded view may
    hold, beside int pids, which it does not order with."""
    return mk_trace([inv(1, 0), resp(1, view((1, 0), ("x", "a")))])


# Views whose pairs do not order by themselves, so the checkers order them
# by `checkers._pair_key`: (name, trace builder).
UNORDERED_VIEW_CORPUS = [
    ("repeated_pid_unordered", repeated_pid_unordered),
    ("repeated_pid_nested_view", repeated_pid_nested_view),
    ("string_pid", string_pid),
]


# One entry per checked immediate-snapshot/k-IS property:
# (property name, trace builder, checker, verdict that must fail).
IS_PROPERTY_CORPUS = [
    ("termination", bad_termination, lambda tr: check_is(tr, OBJ, k=2), "termination"),
    ("self_inclusion", bad_self_inclusion, lambda tr: check_is(tr, OBJ, k=2), "self_inclusion"),
    ("validity", bad_validity, lambda tr: check_is(tr, OBJ, k=2), "validity"),
    ("validity_real_time", bad_validity_real_time, lambda tr: check_is(tr, OBJ, k=2), "validity"),
    ("containment", bad_containment, lambda tr: check_is(tr, OBJ, k=2), "containment"),
    ("immediacy", bad_immediacy, lambda tr: check_is(tr, OBJ, k=2), "immediacy"),
    ("output_size", bad_output_size, lambda tr: check_is(tr, OBJ, k=1), "output_size"),
]

AGREEMENT_CORPUS = [
    ("min_view_size", bad_output_size, lambda tr: check_theorem1(tr, OBJ, k=1), "min_view_size"),
    ("min_view_members", bad_min_view_members, lambda tr: check_theorem1(tr, OBJ, k=1), "min_view_members"),
    ("min_view_alive_unreturned", bad_min_view_alive_unreturned, lambda tr: check_theorem1(tr, OBJ, k=1), "min_view_members"),
    ("min_view_never_invoked", bad_min_view_never_invoked, lambda tr: check_theorem1(tr, OBJ, k=1), "min_view_members"),
    ("xsa_validity", bad_xsa_validity, lambda tr: check_xsa(tr, 1, obj=OBJ), "validity"),
    ("xsa_validity_real_time", bad_xsa_validity_real_time, lambda tr: check_xsa(tr, 1, obj=OBJ), "validity"),
    ("xsa_agreement", bad_xsa_agreement, lambda tr: check_xsa(tr, 1, obj=OBJ), "agreement"),
    ("xsa_termination", bad_xsa_termination, lambda tr: check_xsa(tr, 1, obj=OBJ), "termination"),
    ("cons_agreement", bad_consensus_agreement, lambda tr: check_consensus_linearizable(tr, OBJ), "agreement"),
    ("cons_validity", bad_consensus_validity, lambda tr: check_consensus_linearizable(tr, OBJ), "validity"),
    ("cons_linearization", bad_consensus_linearization, lambda tr: check_consensus_linearizable(tr, OBJ), "validity"),
]
