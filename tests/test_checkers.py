"""Checker tests: every property rejection fires on its minimal negative
witness and nothing else, plus trace well-formedness validation."""

from __future__ import annotations

import pytest

from kisnap import Event, make_instance, read_trace, run_random, validate_trace
from kisnap.checkers import check_is, object_history

from corpus import (
    AGREEMENT_CORPUS,
    IS_PROPERTY_CORPUS,
    OBJ,
    bad_validity_value,
    crash,
    inv,
    mk_trace,
    resp,
    run_python,
    view,
)


# ── Negative corpus: one rejection per property ──────────────────────────────


@pytest.mark.parametrize(
    "name,builder,checker,verdict",
    IS_PROPERTY_CORPUS,
    ids=[row[0] for row in IS_PROPERTY_CORPUS],
)
def test_is_property_rejected_with_witness(name, builder, checker, verdict):
    report = checker(builder())
    assert not report.passed
    bad = report.verdicts[verdict]
    assert not bad.ok
    assert bad.witness  # concrete, human-readable counterexample


@pytest.mark.parametrize(
    "name,builder,checker,verdict",
    IS_PROPERTY_CORPUS,
    ids=[row[0] for row in IS_PROPERTY_CORPUS],
)
def test_is_negatives_are_minimal(name, builder, checker, verdict):
    """Each negative violates only its targeted property (immediacy negatives
    necessarily fail both reported forms of immediacy)."""
    report = checker(builder())
    allowed = {verdict}
    if verdict == "immediacy":
        allowed.add("immediacy_symmetric")
    assert set(report.failures()) == allowed


@pytest.mark.parametrize(
    "name,builder,checker,verdict",
    AGREEMENT_CORPUS,
    ids=[row[0] for row in AGREEMENT_CORPUS],
)
def test_agreement_property_rejected_with_witness(name, builder, checker, verdict):
    report = checker(builder())
    assert not report.passed
    assert not report.verdicts[verdict].ok
    assert report.verdicts[verdict].witness


def test_validity_value_mismatch_rejected():
    report = check_is(bad_validity_value(), OBJ, k=2)
    assert set(report.failures()) == {"validity"}
    assert "invoked with" in report.verdicts["validity"].witness


CONTAINMENT_TIE = """
from corpus import OBJ, crash, inv, mk_trace, resp, view
from kisnap.checkers import check_is
trace = mk_trace([
    inv(1, "a"), inv(2, "b"), inv(3, "c"),
    resp(2, view((1, "a"), (2, "b"))),
    resp(3, view((1, "a"), (3, "c"))),
    crash(1),
])
print(check_is(trace, OBJ).verdicts["containment"].witness)
"""


def test_containment_witness_orders_ties_by_responder_pid():
    """Equal-size incomparable views are reported lowest responder first,
    whatever order the string hash seed gives their sets."""
    witnesses = {run_python(CONTAINMENT_TIE, seed) for seed in (0, 1)}
    assert witnesses == {
        "incomparable views [(1, 'a'), (2, 'b')] and [(1, 'a'), (3, 'c')]\n"
    }


def test_respond_that_is_not_a_view_raises_value_error():
    trace = mk_trace([inv(1, "a"), resp(1, (1, 2))])
    with pytest.raises(ValueError, match="respond of process 1 on o at step 1"):
        check_is(trace, OBJ)


NON_VIEWS = [((1, "a"),), [(1, "a")], frozenset({1}), frozenset({(1, "a", 2)})]
NON_VIEW_IDS = ["tuple of pairs", "list of pairs", "set of ints", "set of triples"]


@pytest.mark.parametrize("ret", NON_VIEWS, ids=NON_VIEW_IDS)
def test_respond_of_pairs_not_in_a_frozenset_raises_value_error(ret):
    trace = mk_trace([inv(1, "a"), resp(1, ret)])
    with pytest.raises(ValueError, match="respond of process 1 on o at step 1"):
        check_is(trace, OBJ)


# ── Report plumbing ──────────────────────────────────────────────────────────


def test_clean_history_passes_everything():
    trace = mk_trace(
        [
            inv(1, "a"),
            inv(2, "b"),
            inv(3, "c"),
            resp(1, view((1, "a"), (2, "b"))),
            resp(2, view((1, "a"), (2, "b"))),
            resp(3, view((1, "a"), (2, "b"), (3, "c"))),
        ]
    )
    report = check_is(trace, OBJ, k=1)
    assert report.passed
    assert set(report.verdicts) == {
        "termination",
        "self_inclusion",
        "validity",
        "containment",
        "immediacy",
        "immediacy_symmetric",
        "output_size",
    }


def test_empty_history_passes_vacuously():
    report = check_is(mk_trace([]), OBJ, k=1)
    assert report.passed
    assert any("vacuous" in note for note in report.notes)


def test_double_invoke_flagged():
    report = check_is(mk_trace([inv(1, "a"), inv(1, "a2")]), OBJ, k=2)
    assert not report.verdicts["one_shot"].ok


def test_unknown_object_raises():
    trace = mk_trace([inv(1, "a")])
    with pytest.raises(ValueError):
        object_history(trace, "nonexistent")


def test_report_serializes():
    report = check_is(mk_trace([inv(1, "a")]), OBJ, k=2)
    d = report.to_dict()
    assert d["passed"] is False
    assert d["verdicts"]["termination"]["ok"] is False
    assert "FAIL" in str(report)


# ── Trace well-formedness validation ─────────────────────────────────────────


def test_validator_accepts_real_runs():
    for algo in ("alg1", "alg2", "naive", "is_impl"):
        inst = make_instance(algo, 3, 1, 1)
        assert validate_trace(run_random(inst, 5).trace) == []


def test_validator_rejects_single_writer_violation():
    """A scan reporting a value nobody wrote."""
    trace = mk_trace(
        [
            Event(-1, "reg_write", 1, "a", "write", 10),
            Event(-1, "reg_read", 2, "a", "scan", None, (10, 99, None)),
        ]
    )
    assert validate_trace(trace) == [
        "step 1: scan of a returned (10, 99, None), registers hold (10, None, None)"
    ]


def test_validator_rejects_stale_read():
    trace = mk_trace(
        [
            Event(-1, "reg_write", 1, "a", "write", 10),
            Event(-1, "reg_read", 2, "a", "read", 1, None),
        ]
    )
    assert validate_trace(trace) == [
        "step 1: read of a[1] returned None, register holds 10"
    ]


def test_validator_rejects_read_of_unwritten_array():
    trace = mk_trace(
        [
            Event(-1, "reg_read", 2, "a", "read", 1, 5),
            Event(-1, "reg_read", 2, "a", "read", 3, None),
        ]
    )
    assert validate_trace(trace) == [
        "step 0: read of a[1] returned 5, register holds None"
    ]


def test_validator_rejects_scan_of_unwritten_array():
    trace = mk_trace(
        [
            Event(-1, "reg_read", 2, "a", "scan", None, (None, 4, None)),
            Event(-1, "reg_read", 1, "b", "scan", None, (None, None, None)),
        ]
    )
    assert validate_trace(trace) == [
        "step 0: scan of a returned (None, 4, None), registers hold (None, None, None)"
    ]


def test_validator_out_of_range_writer_is_seen_by_reads_not_scans():
    """A write by a pid outside 1..n lands in a cell that scans (pids 1..n)
    never show but a read of that index does."""
    trace = mk_trace(
        [
            Event(-1, "reg_write", 4, "a", "write", 9),
            Event(-1, "reg_write", 0, "a", "write", 7),
            Event(-1, "reg_read", 1, "a", "scan", None, (None, None, None)),
            Event(-1, "reg_read", 1, "a", "read", 4, 9),
            Event(-1, "reg_read", 1, "a", "read", 0, None),
        ]
    )
    assert validate_trace(trace) == [
        "step 4: read of a[0] returned None, register holds 7"
    ]


def test_validator_skips_inner_events():
    """Events embedded from a simulated system use inner pids, so the
    per-pid and register rules skip them."""
    trace = mk_trace(
        [
            crash(1),
            Event(-1, "reg_read", 1, "inner.a", "scan", None, (1, 2, 3)),
            Event(-1, "respond", 1, "inner.o", "snap", None, 5),
            Event(-1, "invoke", 4, "inner.o", "snap", 6),
        ]
    )
    assert validate_trace(trace) == []


def test_validator_rejects_crash_budget_overrun():
    trace = mk_trace([crash(1), crash(2)], t=1)
    assert validate_trace(trace) == ["2 crashes exceed budget t=1"]


def test_validator_rejects_act_after_crash():
    trace = mk_trace([inv(1, "a"), crash(1), resp(1, view((1, "a")))], t=1)
    assert validate_trace(trace) == ["step 2: crashed process 1 acts (respond)"]


def test_validator_rejects_respond_without_invoke():
    trace = mk_trace([resp(1, view((1, "a")))])
    assert validate_trace(trace) == ["step 0: respond by 1 on o without invoke"]


@pytest.mark.parametrize("op", ["write_snapshot_k", "write_snapshot"])
@pytest.mark.parametrize("ret", NON_VIEWS, ids=NON_VIEW_IDS)
def test_validator_rejects_snapshot_respond_that_is_not_a_view(ret, op):
    """The values `check_is` refuses as views (the table above)."""
    trace = mk_trace(
        [
            Event(-1, "invoke", 1, OBJ, op, "a"),
            Event(-1, "respond", 1, OBJ, op, None, ret),
        ]
    )
    assert validate_trace(trace) == [
        f"step 1: respond by 1 on o returned {ret!r}, which is not a view"
    ]


def test_validator_rejects_decoded_array_of_pairs(tmp_path):
    """`"ret":[[1,5]]` decodes as the tuple ((1, 5),), not as a view."""
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"kind":"config","n":3,"t":1,"k":1,"meta":{"objects":["kis"]}}\n'
        '{"step":0,"kind":"invoke","pid":1,"obj":"kis","op":"write_snapshot_k",'
        '"args":5,"ret":null}\n'
        '{"step":1,"kind":"respond","pid":1,"obj":"kis","op":"write_snapshot_k",'
        '"args":null,"ret":[[1,5]]}\n'
        '{"kind":"end","outcomes":{"1":["returned",5]}}\n'
    )
    assert validate_trace(read_trace(str(path))) == [
        "step 1: respond by 1 on kis returned ((1, 5),), which is not a view"
    ]


def test_validator_rejects_nonmonotone_steps():
    events = [inv(1, "a"), inv(2, "b")]
    events[0].step = 5
    events[1].step = 5
    trace = mk_trace([])
    trace.events = events
    assert validate_trace(trace) == ["step 5 not increasing after 5"]
