"""Checker tests: every property rejection fires on its minimal negative
witness and nothing else, plus trace well-formedness validation."""

from __future__ import annotations

import dataclasses
import json
import random
import re
from functools import partial

import pytest

from kisnap import (
    Event,
    Trace,
    TraceParseError,
    build_simulation,
    enumerate_runs,
    make_instance,
    read_trace,
    run_random,
    standard_reports,
    trace_from_jsonl,
    trace_to_jsonl,
    validate_trace,
)
from kisnap.checkers import (
    CheckReport,
    TraceFold,
    Verdict,
    _record,
    _scan,
    check_consensus_linearizable,
    check_is,
    check_theorem1,
    check_xsa,
    object_history,
    trace_report,
)
from kisnap.reductions import CATALOG
from kisnap.simulation import check_simulation_trace, extract_inner_trace

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


@pytest.mark.parametrize(
    "checker",
    [
        partial(check_theorem1, obj=OBJ, k=1),
        partial(check_consensus_linearizable, obj=OBJ),
    ],
    ids=["theorem1", "consensus"],
)
def test_unanswered_object_passes_vacuously(checker):
    """An object invoked but never answered, its invoker crashed, gives the
    response checks nothing to judge."""
    report = checker(mk_trace([inv(1, "a"), crash(1)]))
    assert report.passed
    assert "no responses" in report.notes[0] and "vacuously" in report.notes[0]


def test_respond_without_invoke_fails_self_inclusion():
    report = check_is(mk_trace([resp(1, view((1, "a")))]), OBJ)
    assert report.verdicts["self_inclusion"] == Verdict(
        False, "process 1 responded on o without invoking"
    )


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


# ── Views that name a pid twice ──────────────────────────────────────────────
#
# A decoded trace may hold any view, including one that names a pid twice
# with values that do not order. The checkers must judge it, not raise.


def _repeated_pid_mutants(trace: Trace):
    """(object, mutant) per respond of `trace` that returns a view: a copy
    whose view gains a pair of the responder with a value of another type
    than the responder's own, a string or else an int."""
    for i, e in enumerate(trace.events):
        if e.kind != "respond" or type(e.ret) is not frozenset:
            continue
        own = [v for q, v in e.ret if q == e.pid]
        extra = 0 if own and type(own[0]) is str else "x"
        mutated = dataclasses.replace(e, ret=e.ret | {(e.pid, extra)})
        events = [*trace.events[:i], mutated, *trace.events[i + 1 :]]
        yield e.obj, dataclasses.replace(trace, events=events)


# The ValueErrors the checkers document: a checked respond that is not a
# view, and an object the trace does not have.
DOCUMENTED = "which is not a view|unknown object id"


def _report_or_documented_error(check, *args):
    try:
        return check(*args)
    except ValueError as err:
        assert re.search(DOCUMENTED, str(err)), err
        return None


def test_checkers_judge_views_that_name_a_pid_twice():
    """Seeded runs of every catalog algorithm, each view mutated in turn:
    `standard_reports`, `check_theorem1` and `validate_trace` answer, and
    validity rejects the foreign pair."""
    mutants = 0
    for algo in sorted(CATALOG):
        inst = make_instance(algo, 4, 2, 3)
        for seed in range(10):
            trace = run_random(inst, seed).trace
            for obj, mutant in _repeated_pid_mutants(trace):
                mutants += 1
                reports = _report_or_documented_error(standard_reports, mutant)
                assert reports is None or all(
                    isinstance(r, CheckReport) for r in reports
                )
                k = mutant.k or 1
                report = _report_or_documented_error(check_theorem1, mutant, obj, k)
                assert report is None or isinstance(report, CheckReport)
                assert all(isinstance(p, str) for p in validate_trace(mutant))
                assert not check_is(mutant, obj).verdicts["validity"].ok
    assert mutants == 353


# ── Edited trace files ───────────────────────────────────────────────────────
#
# A trace file from outside may hold any edit of a real run. Each edit
# either fails to decode or is judged: no checker raises past its
# documented errors.

# What an edit writes into an args or ret: scalars, arrays, an empty view,
# views that repeat a pid, carry a string pid or nest a view.
EDIT_VALUES = (
    0, 7, "x", None, True, 1.5, [1, 2], [[1, 0]], {"view": []},
    {"view": [[1, 0], [1, "x"]]}, {"view": [["1", 0]]},
    {"view": [[2, {"view": [[1, 0]]}]]},
)


def _edit(rng: random.Random, events: list[dict], n: int) -> None:
    """One random edit of a run's parsed event lines, in place: an args or
    ret replaced by another JSON value (one of `EDIT_VALUES` or one the run
    holds), a pid changed (null included), an event dropped, or two events
    swapped."""
    i = rng.randrange(len(events))
    op = rng.randrange(4)
    if op == 0:
        donor = rng.choice(events)
        value = rng.choice([*EDIT_VALUES, donor["args"], donor["ret"]])
        events[i] = {**events[i], rng.choice(("args", "ret")): value}
    elif op == 1:
        events[i] = {**events[i], "pid": rng.choice([None, *range(n + 2)])}
    elif op == 2 and len(events) > 1:
        del events[i]
    else:
        j = rng.randrange(len(events))
        events[i], events[j] = events[j], events[i]


def test_checkers_judge_every_decodable_edit_of_a_run():
    """Seeded runs of every catalog algorithm, written and parsed back, each
    get one to three edits, 15 times: the edited file fails to decode with
    a `TraceParseError`, or `standard_reports`, `check_theorem1` on every
    object and `validate_trace` answer it."""
    rng = random.Random(0)
    undecodable = judged = 0
    for algo in sorted(CATALOG):
        inst = make_instance(algo, 4, 2, 3)
        for seed in range(20):
            text = trace_to_jsonl(run_random(inst, seed).trace)
            config, *events, end = [json.loads(line) for line in text.splitlines()]
            for _ in range(15):
                edited = list(events)
                for _ in range(rng.randint(1, 3)):
                    _edit(rng, edited, inst.n)
                lines = [json.dumps(o) for o in (config, *edited, end)]
                try:
                    mutant = trace_from_jsonl("\n".join(lines))
                except TraceParseError:
                    undecodable += 1
                    continue
                judged += 1
                reports = _report_or_documented_error(standard_reports, mutant)
                assert reports is None or all(
                    isinstance(r, CheckReport) for r in reports
                )
                for obj in mutant.meta["objects"]:
                    report = _report_or_documented_error(
                        check_theorem1, mutant, obj, mutant.k or 1
                    )
                    assert report is None or isinstance(report, CheckReport)
                assert all(isinstance(p, str) for p in validate_trace(mutant))
    assert (undecodable, judged) == (164, 2236)


# ── Trace well-formedness validation ─────────────────────────────────────────


def test_validator_accepts_real_runs():
    """Seeded runs of every catalog algorithm, and of the two-simulator
    system with its extracted inner trace, touch no register cell outside
    1..n and break no other rule."""
    for algo in CATALOG:
        for ntk in ((3, 1, 1), (4, 2, 3)):
            inst = make_instance(algo, *ntk)
            for seed in range(3):
                trace = run_random(inst, seed).trace
                assert validate_trace(trace) == [], (algo, ntk, seed)
    outer = run_random(build_simulation(4, 2, 2), 5).trace
    assert validate_trace(outer) == []
    assert validate_trace(extract_inner_trace(outer)) == []


def single_writer_violation() -> Trace:
    """A scan reporting a value nobody wrote."""
    return mk_trace(
        [
            Event(-1, "reg_write", 1, "a", "write", 10),
            Event(-1, "reg_read", 2, "a", "scan", None, (10, 99, None)),
        ]
    )


def test_validator_rejects_single_writer_violation():
    assert validate_trace(single_writer_violation()) == [
        "step 1: scan of a returned (10, 99, None), registers hold (10, None, None)"
    ]


def stale_read() -> Trace:
    return mk_trace(
        [
            Event(-1, "reg_write", 1, "a", "write", 10),
            Event(-1, "reg_read", 2, "a", "read", 1, None),
        ]
    )


def test_validator_rejects_stale_read():
    assert validate_trace(stale_read()) == [
        "step 1: read of a[1] returned None, register holds 10"
    ]


def read_of_unwritten_array() -> Trace:
    return mk_trace(
        [
            Event(-1, "reg_read", 2, "a", "read", 1, 5),
            Event(-1, "reg_read", 2, "a", "read", 3, None),
        ]
    )


def test_validator_rejects_read_of_unwritten_array():
    assert validate_trace(read_of_unwritten_array()) == [
        "step 0: read of a[1] returned 5, register holds None"
    ]


def scan_of_unwritten_array() -> Trace:
    return mk_trace(
        [
            Event(-1, "reg_read", 2, "a", "scan", None, (None, 4, None)),
            Event(-1, "reg_read", 1, "b", "scan", None, (None, None, None)),
        ]
    )


def test_validator_rejects_scan_of_unwritten_array():
    assert validate_trace(scan_of_unwritten_array()) == [
        "step 0: scan of a returned (None, 4, None), registers hold (None, None, None)"
    ]


def read_by_unknown_op() -> Trace:
    """A register read by an op the simulator never emits, whose value
    would not match the register either."""
    return mk_trace(
        [
            Event(-1, "reg_write", 1, "a", "write", 5),
            Event(-1, "reg_read", 2, "a", "peek", 1, 99),
        ]
    )


def test_validator_rejects_read_by_unknown_op():
    assert validate_trace(read_by_unknown_op()) == [
        "step 1: read of a by op 'peek', not a scan or read"
    ]


def write_by_unknown_op() -> Trace:
    """A register write by an op the simulator never emits; the cell still
    takes the value, so the read that follows is consistent."""
    return mk_trace(
        [
            Event(-1, "reg_write", 1, "a", "poke", 5),
            Event(-1, "reg_read", 2, "a", "read", 1, 5),
        ]
    )


def test_validator_rejects_write_by_unknown_op():
    assert validate_trace(write_by_unknown_op()) == [
        "step 0: write to a by op 'poke', not a write"
    ]


def out_of_range_writer() -> Trace:
    """Writes by pids outside 1..n and reads of those cells: the registers
    are the n cells of pids 1..n, so each is a problem of its own, and
    the scan in between sees none of the writes."""
    return mk_trace(
        [
            Event(-1, "reg_write", 4, "a", "write", 9),
            Event(-1, "reg_write", 0, "a", "write", 7),
            Event(-1, "reg_read", 1, "a", "scan", None, (None, None, None)),
            Event(-1, "reg_read", 1, "a", "read", 4, 9),
            Event(-1, "reg_read", 1, "a", "read", 0, None),
        ]
    )


def test_validator_rejects_out_of_range_register_accesses():
    assert validate_trace(out_of_range_writer()) == [
        "step 0: write to a by 4, outside 1..3",
        "step 1: write to a by 0, outside 1..3",
        "step 3: read of a[4], outside 1..3",
        "step 4: read of a[0], outside 1..3",
    ]


def inner_events() -> Trace:
    """Events embedded from a simulated system use inner pids, so the
    per-pid and register rules skip them."""
    return mk_trace(
        [
            crash(1),
            Event(-1, "reg_read", 1, "inner.a", "scan", None, (1, 2, 3)),
            Event(-1, "respond", 1, "inner.o", "snap", None, 5),
            Event(-1, "invoke", 4, "inner.o", "snap", 6),
        ]
    )


def test_validator_skips_inner_events():
    assert validate_trace(inner_events()) == []


def crash_budget_overrun() -> Trace:
    return mk_trace([crash(1), crash(2)], t=1)


def test_validator_rejects_crash_budget_overrun():
    assert validate_trace(crash_budget_overrun()) == ["2 crashes exceed budget t=1"]


def act_after_crash() -> Trace:
    return mk_trace([inv(1, "a"), crash(1), resp(1, view((1, "a")))], t=1)


def test_validator_rejects_act_after_crash():
    assert validate_trace(act_after_crash()) == [
        "step 2: crashed process 1 acts (respond)"
    ]


def respond_without_invoke() -> Trace:
    return mk_trace([resp(1, view((1, "a")))])


def test_validator_rejects_respond_without_invoke():
    assert validate_trace(respond_without_invoke()) == [
        "step 0: respond by 1 on o without invoke"
    ]


SNAPSHOT_OPS = ["write_snapshot_k", "write_snapshot"]


def snapshot_respond(ret, op) -> Trace:
    return mk_trace(
        [
            Event(-1, "invoke", 1, OBJ, op, "a"),
            Event(-1, "respond", 1, OBJ, op, None, ret),
        ]
    )


@pytest.mark.parametrize("op", SNAPSHOT_OPS)
@pytest.mark.parametrize("ret", NON_VIEWS, ids=NON_VIEW_IDS)
def test_validator_rejects_snapshot_respond_that_is_not_a_view(ret, op):
    """The values `check_is` refuses as views (the table above)."""
    assert validate_trace(snapshot_respond(ret, op)) == [
        f"step 1: respond by 1 on o returned {ret!r}, which is not a view"
    ]


# `"ret":[[1,5]]` decodes as the tuple ((1, 5),), not as a view.
ARRAY_OF_PAIRS = (
    '{"kind":"config","n":3,"t":1,"k":1,"meta":{"objects":["kis"]}}\n'
    '{"step":0,"kind":"invoke","pid":1,"obj":"kis","op":"write_snapshot_k",'
    '"args":5,"ret":null}\n'
    '{"step":1,"kind":"respond","pid":1,"obj":"kis","op":"write_snapshot_k",'
    '"args":null,"ret":[[1,5]]}\n'
    '{"kind":"end","outcomes":{"1":["returned",5]}}\n'
)


def test_validator_rejects_decoded_array_of_pairs(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(ARRAY_OF_PAIRS)
    assert validate_trace(read_trace(str(path))) == [
        "step 1: respond by 1 on kis returned ((1, 5),), which is not a view"
    ]


def nonmonotone_steps() -> Trace:
    events = [inv(1, "a"), inv(2, "b")]
    events[0].step = 5
    events[1].step = 5
    trace = mk_trace([])
    trace.events = events
    return trace


def test_validator_rejects_nonmonotone_steps():
    assert validate_trace(nonmonotone_steps()) == ["step 5 not increasing after 5"]


def report_wrapped() -> Trace:
    return mk_trace([resp(1, view((1, "a"))), crash(1), crash(2)], t=1)


def test_trace_report_wraps_the_validator_problems():
    assert trace_report(report_wrapped()).to_dict() == {
        "obj": "trace",
        "kind": "well-formed",
        "passed": False,
        "verdicts": {
            "well_formed": {
                "ok": False,
                "witness": "step 0: respond by 1 on o without invoke; "
                "2 crashes exceed budget t=1",
            },
        },
        "notes": [],
    }
    assert trace_report(mk_trace([inv(1, "a"), resp(1, view((1, "a")))])).passed


# ── Check state folded along a walk ──────────────────────────────────────────
#
# Each leaf of `enumerate_runs` carries the checkers' state of its events
# (`Trace.fold`), built along the DFS path and shared with other leaves. A
# copy with its own events list carries none, so the checkers fold it from
# scratch: both must give the same answers.


def _walk(name):
    if name == "simulation_4_2_2":
        inst = build_simulation(4, 2, 2)
        return enumerate_runs(inst, reduced=True)
    algo, ntk, mode = {
        "alg1_3_2_2_reduced": ("alg1", (3, 2, 2), {"reduced": True}),
        "alg1_3_2_2_checked_after_50": ("alg1", (3, 2, 2), {"reduced": True}),
        "alg1_3_1_1_literal": ("alg1", (3, 1, 1), {}),
        "alg1_3_2_2_depth_6": (
            "alg1", (3, 2, 2), {"reduced": True, "depth_bound": 6}
        ),
        "kis_oracle_4_2_3": ("kis_oracle", (4, 2, 3), {"reduced": True}),
        "alg2_3_1_1": ("alg2", (3, 1, 1), {"reduced": True}),
    }[name]
    return enumerate_runs(make_instance(algo, *ntk), **mode)


def _checked(trace) -> tuple:
    """Everything the checkers say of a trace: its standard reports (the
    simulation's check for a simulation trace), its validator problems and
    the record of every object it declares, with the crash steps."""
    if trace.meta["algo"] in CATALOG:
        reports = standard_reports(trace)
    else:
        reports = check_simulation_trace(trace)
    return (
        [r.to_dict() for r in reports],
        validate_trace(trace),
        [_record(trace, obj) for obj in trace.meta["objects"]],
    )


@pytest.mark.parametrize(
    "walk",
    [
        "alg1_3_2_2_reduced",
        pytest.param("alg1_3_1_1_literal", marks=pytest.mark.slow),
        "alg1_3_2_2_depth_6",
        "kis_oracle_4_2_3",
        "alg2_3_1_1",
        "simulation_4_2_2",
        "alg1_3_2_2_checked_after_50",
    ],
)
def test_leaf_fold_agrees_with_a_fold_from_scratch(walk):
    """In the last walk nobody asks for the first 50 leaves' states, so the
    first checked leaf extends the empty state, and its one-object
    checkers (`check_xsa` comes first) scan before the walk's frames start
    to keep states."""
    unchecked = 50 if walk == "alg1_3_2_2_checked_after_50" else 0
    leaves = 0
    for tr in _walk(walk):
        leaves += 1
        if leaves <= unchecked:
            continue
        detached = dataclasses.replace(tr, events=list(tr.events))
        assert tr.fold is not None and detached.fold is None
        assert _checked(tr) == _checked(detached)
    assert leaves > 100 + unchecked


def _crashed_leaf():
    """A reduced alg1 (3,2,2) leaf where a process crashed, and that pid."""
    for tr in enumerate_runs(make_instance("alg1", 3, 2, 2), reduced=True):
        crashed = tr.crashed_pids()
        if crashed:
            return tr, min(crashed)
    raise AssertionError("no leaf with a crash")


@pytest.mark.parametrize("change", ["append", "reassign"])
def test_checkers_ignore_the_fold_once_the_events_change(change):
    """An event added after the walk, an invoke by a crashed process that
    already invoked, is seen by the validator and by `check_is`: appended
    to the walk's list, the leaf's fold folds it in; in a new list, the
    checkers fold the trace without it."""
    tr, pid = _crashed_leaf()
    assert validate_trace(tr) == []
    assert "one_shot" not in check_is(tr, "kis", k=2).verdicts
    extra = Event(len(tr.events), "invoke", pid, "kis", "write_snapshot_k", 0)
    if change == "append":
        tr.events.append(extra)
    else:
        tr.events = [*tr.events, extra]
    assert validate_trace(tr) == [
        f"step {extra.step}: crashed process {pid} acts (invoke)"
    ]
    assert check_is(tr, "kis", k=2).verdicts["one_shot"] == Verdict(
        False, f"processes invoked twice: [{pid}]"
    )


def test_leaves_sharing_a_record_get_their_own_reports():
    """Two leaves that share their `kis` record share its verdicts, never
    their reports: a report changed by its caller leaves the other leaf's,
    and later reports of its own leaf, as they were."""
    by_record = {}
    for tr in enumerate_runs(make_instance("alg1", 3, 2, 2), reduced=True):
        first = by_record.setdefault(id(tr.fold.resolve().objs["kis"]), tr)
        if first is not tr:
            break
    else:
        raise AssertionError("no two leaves share a kis record")
    a, b = check_is(first, "kis", k=2), check_is(tr, "kis", k=2)
    assert a is not b and a.verdicts is not b.verdicts and a.notes is not b.notes
    before = b.to_dict()
    a.verdicts["extra"] = Verdict(False, "added by the caller")
    a.notes.append("added by the caller")
    assert b.to_dict() == before
    assert check_is(first, "kis", k=2).to_dict() == before


def test_walk_nobody_checks_folds_nothing(monkeypatch):
    """Leaves get their check state only when a checker asks, and frames
    keep states only while leaves are being checked. A checker of one
    object's history (`check_xsa`) does not ask for a state that would
    start from the first event: scanning for that object costs less."""
    feeds = [0]
    extended = TraceFold.extended

    def counted(self, *args):
        feeds[0] += 1
        return extended(self, *args)

    monkeypatch.setattr(TraceFold, "extended", counted)
    inst = make_instance("alg1", 3, 2, 2)
    leaves = sum(1 for _ in enumerate_runs(inst, reduced=True))
    assert (leaves, feeds[0]) == (2140, 0)
    for tr in enumerate_runs(inst, reduced=True):
        check_xsa(tr, 3)
    assert feeds[0] == 0
    for tr in enumerate_runs(inst, reduced=True):
        validate_trace(tr)
    assert leaves < feeds[0] < 3 * leaves


# ── One fold, split anywhere ─────────────────────────────────────────────────
#
# A fold's state is persistent: extending the state of a prefix leaves it
# as it was, and a fold split at any event ends where one unsplit fold
# does. The traces are the hand-built validator traces above, the negative
# corpus and one trace that exercises every rule at once.


def every_rule() -> Trace:
    """Inner events, a writer outside 1..n, writes on both sides of most
    splits, a double invoke, a double crash and a snapshot respond that is
    no view."""
    return mk_trace(
        [
            inv(1, "a"),
            Event(-1, "invoke", 1, "inner.o", "write_snapshot_k", 5),
            Event(-1, "reg_write", 4, "r", "write", 9),
            Event(-1, "reg_write", 2, "r", "write", 3),
            Event(-1, "reg_read", 1, "r", "read", 4, 9),
            Event(-1, "respond", 1, "inner.o", "write_snapshot_k", None, 7),
            crash(2),
            Event(-1, "reg_write", 3, "r", "write", 8),
            Event(-1, "respond", 1, OBJ, "write_snapshot_k", None, (1, "a")),
            Event(-1, "reg_read", 1, "r", "scan", None, (None, 3, 8)),
            crash(2),
            Event(-1, "reg_write", 4, "r", "write", 6),
            inv(1, "b"),
            resp(3, view((3, "c"))),
            Event(-1, "reg_read", 3, "r", "read", 4, 6),
        ],
        t=1,
    )


SPLIT_TRACES = {
    **{
        build.__name__: build
        for build in [
            single_writer_violation,
            stale_read,
            read_of_unwritten_array,
            scan_of_unwritten_array,
            read_by_unknown_op,
            write_by_unknown_op,
            out_of_range_writer,
            inner_events,
            crash_budget_overrun,
            act_after_crash,
            respond_without_invoke,
            nonmonotone_steps,
            report_wrapped,
            *[row[1] for row in IS_PROPERTY_CORPUS + AGREEMENT_CORPUS],
            bad_validity_value,
            every_rule,
        ]
    },
    **{
        f"{op} {name}": partial(snapshot_respond, ret, op)
        for op in SNAPSHOT_OPS
        for ret, name in zip(NON_VIEWS, NON_VIEW_IDS)
    },
    "array_of_pairs": partial(trace_from_jsonl, ARRAY_OF_PAIRS),
}


def _contents(fold: TraceFold) -> tuple:
    """A copy of everything a fold holds but its `fixed` part."""
    return (
        fold.length,
        {
            obj: (dict(rec.invokes), dict(rec.responds), rec.double_invokes)
            for obj, rec in fold.objs.items()
        },
        dict(fold.crashes),
        fold.problems,
        fold.last_step,
        {a: tuple(cells) for a, cells in fold.arrays.items()},
    )


@pytest.mark.parametrize("name", SPLIT_TRACES)
def test_fold_split_at_any_event_matches_one_fold(name):
    trace = SPLIT_TRACES[name]()
    events = trace.events
    whole = TraceFold.empty(trace.n).extended(events)
    expected = _contents(whole)
    for i in range(len(events) + 1):
        prefix = TraceFold.empty(trace.n).extended(events, i)
        before = _contents(prefix)
        assert _contents(prefix.extended(events)) == expected, i
        assert _contents(prefix) == before, i
    for obj in {e.obj for e in events} | {"absent"}:
        rec, crashes = _scan(events, obj)
        assert crashes == whole.crashes
        if obj in whole.objs:
            got = (rec.invokes, rec.responds, rec.double_invokes)
            assert got == expected[1][obj]
        else:
            assert rec is None


def test_every_rule_trace_problems():
    """What the validator and `object_history` make of the split test's own
    trace: its reads of cells 1..n and its scan hold, every other rule it
    names fails."""
    assert validate_trace(every_rule()) == [
        "step 2: write to r by 4, outside 1..3",
        "step 4: read of r[4], outside 1..3",
        "step 8: respond by 1 on o returned (1, 'a'), which is not a view",
        "step 10: crashed process 2 acts (crash)",
        "step 10: process 2 crashes twice",
        "step 11: write to r by 4, outside 1..3",
        "step 13: respond by 3 on o without invoke",
        "step 14: read of r[4], outside 1..3",
    ]
    assert object_history(every_rule(), OBJ).double_invokes == (1,)
