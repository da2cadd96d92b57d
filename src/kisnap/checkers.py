"""Trace checkers for the formal properties of the simulated objects.

Each checker consumes a trace (fresh from the simulator or loaded from
JSONL), extracts the per-object history of invoke/respond/crash events, and
returns a `CheckReport` of named verdicts, each carrying a concrete witness
when it fails:

* `check_is`: the five immediate-snapshot properties (Termination,
  Self-inclusion, Validity, Containment, Immediacy) plus the k-IS Output
  size bound when `k` is given. Validity is real-time: a view names only
  values invoked before its respond. Immediacy is evaluated both in its
  primal form ((i,-) in view_j implies view_i subseteq view_j) and in the
  symmetric form (mutual membership implies equal views); whenever
  self-inclusion, validity, and containment hold the two are equivalent and
  the checker asserts they agree.
* `check_theorem1`: the minimum-view theorem: the smallest returned view has
  at least n-k members, and each of its members either returned exactly that
  view or crashed during its invocation.
* `check_xsa`: x-set agreement (Validity: a decided value was proposed
  before the decision, Agreement with bound x, Termination of correct
  processes).
* `check_consensus_linearizable`: all responses carry one common value,
  proposed by a process whose invocation does not follow the first response.

`validate_trace` checks trace well-formedness itself (monotone steps,
respond-after-invoke, views in snapshot responds, crash budget, and the
registers as n SWMR cells: writes by pids 1..n, reads of cells 1..n, and
every read and scan consistent with the writes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .primitives import BOTTOM
from .trace import INNER_PREFIX, Trace


@dataclass(frozen=True, slots=True)
class Verdict:
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


PASS = Verdict(True)


def _fail(witness: str) -> Verdict:
    return Verdict(False, witness)


@dataclass
class CheckReport:
    obj: str
    kind: str
    verdicts: dict[str, Verdict] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        for v in self.verdicts.values():
            if not v.ok:
                return False
        return True

    def failures(self) -> dict[str, str]:
        return {
            name: v.witness or "" for name, v in self.verdicts.items() if not v.ok
        }

    def to_dict(self) -> dict:
        return {
            "obj": self.obj,
            "kind": self.kind,
            "passed": self.passed,
            "verdicts": {
                name: {"ok": v.ok, "witness": v.witness}
                for name, v in self.verdicts.items()
            },
            "notes": self.notes,
        }

    def __str__(self) -> str:
        lines = [f"[{self.kind}] object {self.obj}: "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for name, v in self.verdicts.items():
            mark = "pass" if v.ok else "FAIL"
            suffix = f" -- {v.witness}" if v.witness else ""
            lines.append(f"  {name}: {mark}{suffix}")
        return "\n".join(lines)


# ── History extraction ───────────────────────────────────────────────────────
#
# The checkers read a trace through one fold: `_feed`, one per-event rule
# over a persistent `TraceFold` that holds every object's record, the
# trace's crash steps and the validator's state. A feed never changes the
# state it starts from: it copies each container at most once, before its
# first change, so the state of a prefix is shared by every extension of
# it. `enumerate_runs` keeps a `TraceFold` in DFS frames and gives each
# leaf's trace a `LeafFold` (`Trace.fold`), whose state is the nearest
# frame's until a checker first asks, and then covers the leaf's events.
# A checker reads it while `trace.events` is the list it was made for;
# events appended to that list are folded in when it is read. Otherwise
# `validate_trace` feeds the whole trace from `TraceFold.empty`, and a read
# of one object's record scans for that object's events and the crashes
# alone (`_scan`), which costs less.


@dataclass(slots=True)
class ObjHistory:
    """One object's invokes and responds (pid -> (args or ret, step)) and
    the pids of its second invokes. A fold's records are shared by every
    fold that extends it: read them, do not change them. `is_verdicts`
    keeps `check_is`'s verdicts that read nothing else."""

    obj: str
    invokes: dict[int, tuple[object, int]]
    responds: dict[int, tuple[object, int]]
    double_invokes: tuple[int, ...]
    is_verdicts: tuple | None = field(default=None, compare=False, repr=False)

    def view_of(self, pid: int):
        return self.responds[pid][0]


class TraceFold(NamedTuple):
    """The check state after the first `length` events of a trace.
    `extended` returns the state after more events and leaves this one as
    it is."""

    length: int
    objs: dict  # object id -> ObjHistory, from its first invoke or respond
    crashes: dict  # pid -> step of its first crash
    problems: tuple  # the validator's problems, in event order
    last_step: int
    arrays: dict  # array id -> list of the cells of pids 1..n, once written
    # The same for every state of one fold: the cells of an unwritten
    # array, and `inner`, a memo of the object ids embedded from a
    # simulated system, whose events carry pids of another namespace, so
    # the validator's rules skip them.
    fixed: tuple  # (unwritten, inner)

    @classmethod
    def empty(cls, n: int) -> TraceFold:
        """The state before the first event of a trace with `n` processes."""
        return cls(0, {}, {}, (), -1, {}, ((BOTTOM,) * n, {None: False}))

    def extended(self, events: list, stop: int | None = None) -> TraceFold:
        """The state after `events[:stop]` (all of `events` by default), of
        which this is the state of a prefix."""
        return _feed(self, events[self.length : stop])


_SNAPSHOT_OPS = frozenset({"write_snapshot_k", "write_snapshot"})


def _feed(state: TraceFold, events: list) -> TraceFold:
    """`state` extended by `events`, the events that follow its prefix.

    The validator's rules: monotone steps, no crashed process acts or
    crashes again, a respond follows its pid's invoke of that object and
    a snapshot respond returns a view, and the registers are n SWMR cells:
    a write is by a pid in 1..n, a read names a cell in 1..n, and every
    read or scan returns what the cells hold. A crash counts for its pid
    whatever object it names; the per-pid and register rules skip the
    events of inner objects."""
    length, objs, crashes, problems, last_step, arrays, fixed = state
    unwritten, inner = fixed
    n = len(unwritten)
    own_crashes = False
    # What this feed made, and so may change: object id -> record, array
    # id -> cells. `objs` and `arrays` are copies once these are not empty.
    mine: dict = {}
    made: dict = {}
    found: list[str] = []  # this feed's problems
    for e in events:
        step = e.step
        if step <= last_step:
            found.append(f"step {step} not increasing after {last_step}")
        last_step = step
        obj = e.obj
        skip = inner.get(obj)
        if skip is None:
            skip = inner[obj] = obj.startswith(INNER_PREFIX)
        kind, pid = e.kind, e.pid
        if not skip and crashes and pid is not None and pid in crashes:
            found.append(f"step {step}: crashed process {pid} acts ({kind})")
        if kind == "invoke" or kind == "respond":
            rec = mine.get(obj)
            if rec is None:
                rec = objs.get(obj)
                if rec is None:
                    rec = ObjHistory(obj, {}, {}, ())
                else:
                    rec = ObjHistory(
                        obj, dict(rec.invokes), dict(rec.responds), rec.double_invokes
                    )
                if not mine:
                    objs = dict(objs)
                objs[obj] = mine[obj] = rec
            if kind == "invoke":
                if pid in rec.invokes:
                    rec.double_invokes += (pid,)
                else:
                    rec.invokes[pid] = (e.args, step)
            else:
                if not skip:
                    if pid not in rec.invokes:
                        found.append(
                            f"step {step}: respond by {pid} on {obj} without invoke"
                        )
                    if e.op in _SNAPSHOT_OPS and _view_pids(e.ret) is None:
                        found.append(
                            f"step {step}: respond by {pid} on {obj} returned "
                            f"{e.ret!r}, which is not a view"
                        )
                rec.responds[pid] = (e.ret, step)
        elif kind == "crash":
            if pid in crashes:
                found.append(f"step {step}: process {pid} crashes twice")
            else:
                if not own_crashes:
                    crashes, own_crashes = dict(crashes), True
                crashes[pid] = step
        elif skip:
            continue  # an inner register: its writers are inner pids
        elif kind == "reg_write":
            if type(pid) is int and 0 < pid <= n:
                cells = made.get(obj)
                if cells is None:
                    if not made:
                        arrays = dict(arrays)
                    cells = arrays.get(obj)
                    cells = [BOTTOM] * n if cells is None else cells[:]
                    arrays[obj] = made[obj] = cells
                cells[pid - 1] = e.args
            else:
                found.append(f"step {step}: write to {obj} by {pid!r}, outside 1..{n}")
        elif kind == "reg_read":
            cells = arrays.get(obj)
            if e.op == "scan":
                # A scan returns a tuple; a value of another type never equals one.
                expect = unwritten if cells is None else tuple(cells)
                if e.ret != expect:
                    found.append(
                        f"step {step}: scan of {obj} returned {e.ret}, "
                        f"registers hold {expect}"
                    )
            elif e.op == "read":
                at = e.args
                if type(at) is int and 0 < at <= n:
                    expect = BOTTOM if cells is None else cells[at - 1]
                    if e.ret != expect:
                        found.append(
                            f"step {step}: read of {obj}[{at}] returned "
                            f"{e.ret!r}, register holds {expect!r}"
                        )
                else:
                    found.append(f"step {step}: read of {obj}[{at!r}], outside 1..{n}")
    if found:
        problems += tuple(found)
    return TraceFold(
        length + len(events), objs, crashes, problems, last_step, arrays, fixed
    )


def _scan(events: list, obj: str) -> tuple[ObjHistory | None, dict]:
    """`obj`'s record (None if it is never invoked and never responds) and
    the crash steps, as `_feed` folds them, from one pass that reads
    nothing else."""
    invokes: dict = {}
    responds: dict = {}
    crashes: dict = {}
    double_invokes: list = []
    for e in events:
        kind = e.kind
        if kind == "crash":
            crashes.setdefault(e.pid, e.step)
        elif e.obj == obj:
            if kind == "invoke":
                pid = e.pid
                if pid in invokes:
                    double_invokes.append(pid)
                else:
                    invokes[pid] = (e.args, e.step)
            elif kind == "respond":
                responds[e.pid] = (e.ret, e.step)
    if not invokes and not responds:
        return None, crashes
    return ObjHistory(obj, invokes, responds, tuple(double_invokes)), crashes


class LeafFold:
    """The check state of a trace whose events are `events`: the state of a
    prefix of them until a checker asks (`resolve`), which extends it over
    the rest, events appended since included."""

    __slots__ = ("events", "state")

    def __init__(self, events: list, state: TraceFold):
        self.events = events
        self.state = state

    def resolve(self) -> TraceFold:
        state = self.state
        if state.length < len(self.events):
            state = self.state = state.extended(self.events)
        return state


def _attached(trace: Trace, whole: bool) -> TraceFold | None:
    """The state of the fold the trace carries, if it was made for the
    trace's events list. A caller that reads one object's record (`whole`
    false) leaves a fold that would start from the first event to others:
    scanning for that object costs less."""
    fold = trace.fold
    if fold is not None and fold.events is trace.events:
        if whole or fold.state.length:
            return fold.resolve()
    return None


def _record(
    trace: Trace, obj: str, whole: bool = False
) -> tuple[ObjHistory, dict]:
    """`obj`'s record and the trace's crash steps; raises on object ids the
    trace has never heard of (neither in events nor declared in
    meta['objects']). `whole` as for `_attached`."""
    fold = _attached(trace, whole)
    if fold is None:
        rec, crashes = _scan(trace.events, obj)
    else:
        rec, crashes = fold.objs.get(obj), fold.crashes
    if rec is None:
        if obj not in trace.meta.get("objects", ()) and not any(
            e.obj == obj and e.kind != "crash" for e in trace.events
        ):
            raise ValueError(
                f"unknown object id {obj!r}: no events and not declared in trace meta"
            )
        rec = ObjHistory(obj, {}, {}, ())
    return rec, crashes


def object_history(trace: Trace, obj: str) -> ObjHistory:
    """Extract one object's history; raises on object ids the trace has
    never heard of (neither in events nor declared in meta['objects'])."""
    return _record(trace, obj)[0]


# ── Immediate snapshot / k-IS ────────────────────────────────────────────────
#
# The verdicts scan the responders in pid order and report the first
# offending pid. They share one sort of the responders and one member set
# per distinct view (`_rows`); beyond that, only a failing verdict sorts, to
# write its witness.


def _check_termination(h: ObjHistory, crashes: dict) -> Verdict:
    responds = h.responds
    for pid in h.invokes:
        if pid not in responds and pid not in crashes:
            hung = [p for p in h.invokes if p not in responds and p not in crashes]
            return _fail(
                f"process {min(hung)} invoked {h.obj} and neither responded "
                "nor crashed"
            )
    return PASS


Rows = list[tuple[int, frozenset, set[int]]]


def _view_pids(value: object) -> set | None:
    """The pids a view names, or None if `value` is not a view (a frozenset
    of (pid, value) pairs). `check_is` and `validate_trace` share it."""
    if not isinstance(value, frozenset):
        return None
    try:
        return {q for q, _ in value}
    except (TypeError, ValueError):
        return None


def _rows(h: ObjHistory) -> Rows:
    """(pid, view, pids named in the view) of every responder, in pid order;
    built once per `check_is` call and shared by its verdicts. A respond
    whose value is not a view raises ValueError naming the event."""
    rows = []
    responds = h.responds
    named_by_view: dict = {}  # the pids of each distinct view, found once
    for pid in sorted(responds):
        view = responds[pid][0]
        named = named_by_view.get(view) if isinstance(view, frozenset) else None
        if named is None:
            named = _view_pids(view)
            if named is None:
                raise ValueError(
                    f"respond of process {pid} on {h.obj} at step "
                    f"{responds[pid][1]} returned {view!r}, which is not a view"
                )
            named_by_view[view] = named
        rows.append((pid, view, named))
    return rows


def _check_self_inclusion(h: ObjHistory, rows: Rows) -> Verdict:
    invokes = h.invokes
    for pid, view, _ in rows:
        if pid not in invokes:
            return _fail(f"process {pid} responded on {h.obj} without invoking")
        value = invokes[pid][0]
        if (pid, value) not in view:
            return _fail(
                f"view of process {pid} misses its own pair ({pid}, {value!r}): "
                f"{sorted(view)}"
            )
    return PASS


def _check_validity(h: ObjHistory, rows: Rows) -> Verdict:
    """Every pair (j, v) in a view has j invoke v at a step before the
    view's respond."""
    invokes, responds = h.invokes, h.responds
    for pid, view, _ in rows:
        at = responds[pid][1]
        for j, v in view:
            inv = invokes.get(j)
            if inv is None or inv[0] != v or inv[1] >= at:
                break
        else:
            continue
        for j, v in sorted(view):  # the witness: the first bad pair in order
            inv = invokes.get(j)
            if inv is None:
                return _fail(
                    f"view of process {pid} contains ({j}, {v!r}) but {j} never invoked"
                )
            if inv[0] != v:
                return _fail(
                    f"view of process {pid} contains ({j}, {v!r}) but {j} "
                    f"invoked with {inv[0]!r}"
                )
            if inv[1] >= at:
                return _fail(
                    f"view of process {pid} contains ({j}, {v!r}) but {j} "
                    f"invoked at step {inv[1]}, after the respond at step {at}"
                )
    return PASS


def _check_containment(rows: Rows) -> Verdict:
    # Distinct views by size, ties by lowest responder pid: a dict keeps the
    # pid order of the rows and sorting is stable, so the witness does not
    # follow set iteration order, which for strings depends on the hash seed.
    views = sorted({view: None for _, view, _ in rows}, key=len)
    for a, b in zip(views, views[1:]):
        if not a <= b:
            return _fail(
                f"incomparable views {sorted(a)} and {sorted(b)}"
            )
    return PASS


def _check_immediacy_primal(rows: Rows) -> Verdict:
    for j, view_j, members in rows:
        for i, view_i, _ in rows:
            if i in members and not view_i <= view_j:
                return _fail(
                    f"({i},-) in view of {j} but view of {i} not contained: "
                    f"{sorted(view_i)} vs {sorted(view_j)}"
                )
    return PASS


def _check_immediacy_symmetric(rows: Rows) -> Verdict:
    for a, (i, vi, mi) in enumerate(rows):
        for j, vj, mj in rows[a + 1:]:
            if i in mj and j in mi and vi != vj:
                return _fail(
                    f"processes {i} and {j} see each other but views differ: "
                    f"{sorted(vi)} vs {sorted(vj)}"
                )
    return PASS


def _check_output_size(rows: Rows, n: int, k: int) -> Verdict:
    for pid, view, _ in rows:
        if len(view) < n - k:
            return _fail(
                f"view of process {pid} has {len(view)} < n-k = {n - k} pairs: "
                f"{sorted(view)}"
            )
    return PASS


def _is_verdicts(h: ObjHistory) -> tuple:
    """The `check_is` verdicts that read only the record: one_shot (None when
    it holds, as its verdict is then left out), self_inclusion, validity,
    containment and both immediacy forms, then the rows."""
    rows = _rows(h)
    one_shot = None
    if h.double_invokes:
        one_shot = _fail(f"processes invoked twice: {sorted(set(h.double_invokes))}")
    base = _check_self_inclusion(h, rows)
    validity = _check_validity(h, rows)
    containment = _check_containment(rows)
    primal = _check_immediacy_primal(rows)
    symmetric = _check_immediacy_symmetric(rows)
    if base.ok and validity.ok and containment.ok and primal.ok != symmetric.ok:
        raise AssertionError(
            "immediacy forms disagree on a containment-clean history: "
            f"primal={primal}, symmetric={symmetric}"
        )
    return one_shot, base, validity, containment, primal, symmetric, rows


def check_is(trace: Trace, obj: str, k: int | None = None) -> CheckReport:
    """Check the immediate-snapshot properties of `obj`'s history.

    With `k` given, additionally checks the k-IS Output-size bound
    |view| >= n-k. Immediacy is reported in its primal form; the symmetric
    form is evaluated as well and, whenever self-inclusion, validity, and
    containment all hold (which makes the two forms logically equivalent),
    a disagreement between them is raised as a checker defect rather than
    reported as a property failure. The verdicts that read only the
    object's record are computed once per record, which the leaves of a
    walk share; termination and output size are computed per call.
    """
    h, crashes = _record(trace, obj, whole=True)
    found = h.is_verdicts
    if found is None:
        found = h.is_verdicts = _is_verdicts(h)
    one_shot, base, validity, containment, primal, symmetric, rows = found
    report = CheckReport(obj=obj, kind="is" if k is None else f"{k}-is")
    verdicts = report.verdicts
    if one_shot is not None:
        verdicts["one_shot"] = one_shot
    verdicts["termination"] = _check_termination(h, crashes)
    verdicts["self_inclusion"] = base
    verdicts["validity"] = validity
    verdicts["containment"] = containment
    verdicts["immediacy"] = primal
    verdicts["immediacy_symmetric"] = symmetric
    if k is not None:
        verdicts["output_size"] = _check_output_size(rows, trace.n, k)
    if not h.invokes:
        report.notes.append("no invocations: properties hold vacuously")
    return report


def check_theorem1(trace: Trace, obj: str, k: int) -> CheckReport:
    """Minimum-view theorem: at least n-k processes share the smallest view.

    Checks that the smallest returned view S has |S| >= n-k and that every
    process appearing in S either returned exactly S or crashed during its
    invocation (invoked, never responded, crash event present).
    """
    h, crashes = _record(trace, obj)
    report = CheckReport(obj=obj, kind="theorem1")
    if not h.responds:
        report.notes.append("no responses: theorem holds vacuously")
        report.verdicts["min_view_size"] = PASS
        report.verdicts["min_view_members"] = PASS
        return report
    views = [view for _, view, _ in _rows(h)]
    min_view = min(views, key=len)
    equal_size = [w for w in views if len(w) == len(min_view)]
    if any(w != min_view for w in equal_size):
        report.verdicts["min_view_size"] = _fail(
            "equal-size returned views differ; containment is violated"
        )
        report.verdicts["min_view_members"] = _fail("no unique smallest view")
        return report
    if len(min_view) < trace.n - k:
        report.verdicts["min_view_size"] = _fail(
            f"smallest view has {len(min_view)} < n-k = {trace.n - k} members: "
            f"{sorted(min_view)}"
        )
    else:
        report.verdicts["min_view_size"] = PASS
    bad = []
    for pid, _v in sorted(min_view):
        if pid in h.responds:
            if h.view_of(pid) != min_view:
                bad.append(
                    f"{pid} returned {sorted(h.view_of(pid))} != smallest view"
                )
        elif pid in h.invokes:
            if pid not in crashes:
                bad.append(f"{pid} is in the smallest view, alive, unreturned")
        else:
            bad.append(f"{pid} is in the smallest view but never invoked")
    report.verdicts["min_view_members"] = (
        PASS if not bad else _fail("; ".join(bad))
    )
    return report


# ── x-set agreement and consensus ────────────────────────────────────────────


def check_xsa(trace: Trace, x: int, obj: str = "xsa") -> CheckReport:
    """x-set agreement over the decision history published under `obj`."""
    h, crashes = _record(trace, obj)
    report = CheckReport(obj=obj, kind=f"{x}-sa")
    proposed_at: dict = {}  # value -> step of its first proposal
    for value, step in h.invokes.values():
        if value not in proposed_at or step < proposed_at[value]:
            proposed_at[value] = step
    responds = h.responds
    invalid = [
        pid
        for pid, (value, step) in responds.items()
        if value not in proposed_at or proposed_at[value] >= step
    ]
    if not invalid:
        report.verdicts["validity"] = PASS
    else:
        witnesses = []
        for pid in sorted(invalid):
            value, step = responds[pid]
            if value not in proposed_at:
                witnesses.append(
                    f"process {pid} decided {value!r} which nobody proposed"
                )
            else:
                witnesses.append(
                    f"process {pid} decided {value!r} at step {step} but "
                    f"{value!r} was first proposed at step {proposed_at[value]}"
                )
        report.verdicts["validity"] = _fail("; ".join(witnesses))
    distinct = {value for value, _ in responds.values()}
    if len(distinct) <= x:
        report.verdicts["agreement"] = PASS
    else:
        report.verdicts["agreement"] = _fail(
            f"{len(distinct)} > x = {x} distinct decisions: "
            f"{sorted(distinct, key=repr)}"
        )
    report.verdicts["termination"] = _check_termination(h, crashes)
    return report


def check_consensus_linearizable(trace: Trace, obj: str) -> CheckReport:
    """Consensus history check: single decided value, linearizable choice.

    Agreement: all responses carry the same value. Validity: that value (on
    a disagreeing history, the value of the first response) was proposed.
    Linearizability of the winning proposal: some process proposed it at an
    invocation that does not come after the first response, so the decision
    point can be placed inside every operation's interval.
    """
    h, crashes = _record(trace, obj)
    report = CheckReport(obj=obj, kind="consensus")
    report.verdicts["termination"] = _check_termination(h, crashes)
    if not h.responds:
        report.verdicts["agreement"] = PASS
        report.verdicts["validity"] = PASS
        report.notes.append("no responses: agreement holds vacuously")
        return report
    values = {ret for ret, _ in h.responds.values()}
    if len(values) > 1:
        report.verdicts["agreement"] = _fail(
            f"distinct decisions: {sorted(values, key=repr)}"
        )
    else:
        report.verdicts["agreement"] = PASS
    decided, first_respond = min(h.responds.values(), key=lambda rs: rs[1])
    proposers = [
        pid
        for pid, (args, step) in h.invokes.items()
        if args == decided and step <= first_respond
    ]
    if not proposers:
        late = [
            pid for pid, (args, _) in h.invokes.items() if args == decided
        ]
        if late:
            report.verdicts["validity"] = _fail(
                f"decided {decided!r} was proposed only after the first response"
            )
        else:
            report.verdicts["validity"] = _fail(
                f"decided {decided!r} was never proposed"
            )
    else:
        report.verdicts["validity"] = PASS
    return report


# ── Trace well-formedness ────────────────────────────────────────────────────


def validate_trace(trace: Trace) -> list[str]:
    """Structural invariants of a trace; returns a list of violations.

    Covers monotone step indices, respond-after-invoke per (pid, obj),
    views as the value of every snapshot respond, the crash budget,
    silence of crashed processes, and SWMR registers of n cells: a write
    by a pid outside 1..n and a read of a cell outside 1..n are problems,
    and every other read and every scan returns exactly the latest writes.
    """
    fold = _attached(trace, whole=True)
    if fold is None:
        fold = _feed(TraceFold.empty(trace.n), trace.events)
    problems = list(fold.problems)
    if len(fold.crashes) > trace.t:
        problems.append(f"{len(fold.crashes)} crashes exceed budget t={trace.t}")
    return problems


def trace_report(trace: Trace) -> CheckReport:
    """`validate_trace` as one report: verdict `well_formed` of object
    `trace`, whose witness joins the problems with "; "."""
    problems = validate_trace(trace)
    verdict = PASS if not problems else _fail("; ".join(problems))
    return CheckReport("trace", "well-formed", {"well_formed": verdict})
