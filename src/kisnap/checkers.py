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
respond-after-invoke, views in snapshot responds, crash budget, SWMR
register read consistency).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class ObjHistory:
    """Invoke/respond/crash record of one object in one trace."""

    obj: str
    invokes: dict[int, tuple[object, int]] = field(default_factory=dict)
    responds: dict[int, tuple[object, int]] = field(default_factory=dict)
    crashes: dict[int, int] = field(default_factory=dict)
    double_invokes: list[int] = field(default_factory=list)

    def view_of(self, pid: int):
        return self.responds[pid][0]


def object_history(trace: Trace, obj: str) -> ObjHistory:
    """Extract one object's history; raises on object ids the trace has
    never heard of (neither in events nor declared in meta['objects'])."""
    invokes: dict[int, tuple[object, int]] = {}
    responds: dict[int, tuple[object, int]] = {}
    crashes: dict[int, int] = {}
    double_invokes: list[int] = []
    mentioned = False
    for e in trace.events:
        kind = e.kind
        if kind == "crash":
            crashes.setdefault(e.pid, e.step)
            continue
        if e.obj != obj:
            continue
        mentioned = True
        if kind == "invoke":
            pid = e.pid
            if pid in invokes:
                double_invokes.append(pid)
            else:
                invokes[pid] = (e.args, e.step)
        elif kind == "respond":
            responds[e.pid] = (e.ret, e.step)
    if not mentioned and obj not in trace.meta.get("objects", ()):
        raise ValueError(
            f"unknown object id {obj!r}: no events and not declared in trace meta"
        )
    return ObjHistory(obj, invokes, responds, crashes, double_invokes)


# ── Immediate snapshot / k-IS ────────────────────────────────────────────────
#
# The verdicts scan the responders in pid order and report the first
# offending pid. They share one sort of the responders and one member set
# per view (`_rows`); beyond that, only a failing verdict sorts, to write
# its witness.


def _check_termination(h: ObjHistory) -> Verdict:
    responds, crashes = h.responds, h.crashes
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
    for pid in sorted(responds):
        view = responds[pid][0]
        named = _view_pids(view)
        if named is None:
            raise ValueError(
                f"respond of process {pid} on {h.obj} at step {responds[pid][1]} "
                f"returned {view!r}, which is not a view"
            )
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


def check_is(trace: Trace, obj: str, k: int | None = None) -> CheckReport:
    """Check the immediate-snapshot properties of `obj`'s history.

    With `k` given, additionally checks the k-IS Output-size bound
    |view| >= n-k. Immediacy is reported in its primal form; the symmetric
    form is evaluated as well and, whenever self-inclusion, validity, and
    containment all hold (which makes the two forms logically equivalent),
    a disagreement between them is raised as a checker defect rather than
    reported as a property failure.
    """
    h = object_history(trace, obj)
    rows = _rows(h)
    report = CheckReport(obj=obj, kind="is" if k is None else f"{k}-is")
    verdicts = report.verdicts
    if h.double_invokes:
        verdicts["one_shot"] = _fail(
            f"processes invoked twice: {sorted(set(h.double_invokes))}"
        )
    verdicts["termination"] = _check_termination(h)
    verdicts["self_inclusion"] = base = _check_self_inclusion(h, rows)
    verdicts["validity"] = validity = _check_validity(h, rows)
    verdicts["containment"] = containment = _check_containment(rows)
    verdicts["immediacy"] = primal = _check_immediacy_primal(rows)
    verdicts["immediacy_symmetric"] = symmetric = _check_immediacy_symmetric(rows)
    if base.ok and validity.ok and containment.ok and primal.ok != symmetric.ok:
        raise AssertionError(
            "immediacy forms disagree on a containment-clean history: "
            f"primal={primal}, symmetric={symmetric}"
        )
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
    h = object_history(trace, obj)
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
            if pid not in h.crashes:
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
    h = object_history(trace, obj)
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
    report.verdicts["termination"] = _check_termination(h)
    return report


def check_consensus_linearizable(trace: Trace, obj: str) -> CheckReport:
    """Consensus history check: single decided value, linearizable choice.

    Agreement: all responses carry the same value. Validity: that value (on
    a disagreeing history, the value of the first response) was proposed.
    Linearizability of the winning proposal: some process proposed it at an
    invocation that does not come after the first response, so the decision
    point can be placed inside every operation's interval.
    """
    h = object_history(trace, obj)
    report = CheckReport(obj=obj, kind="consensus")
    report.verdicts["termination"] = _check_termination(h)
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

_SNAPSHOT_OPS = frozenset({"write_snapshot_k", "write_snapshot"})


def validate_trace(trace: Trace) -> list[str]:
    """Structural invariants of a trace; returns a list of violations.

    Covers monotone step indices, event kinds, respond-after-invoke per
    (pid, obj), views as the value of every snapshot respond, the crash
    budget, silence of crashed processes, and SWMR
    register semantics (every read/scan returns exactly the latest writes).
    """
    n = trace.n
    problems: list[str] = []
    last_step = -1
    crashed: set[int] = set()
    invoked: set[tuple[int, str]] = set()
    # Each written array is a list of the cells of pids 1..n. `slot` finds a
    # pid's cell by dict lookup, as a pid-keyed dict would; a writer outside
    # 1..n lands in `stray`, seen by reads of that index but never by scans.
    slot = {pid: pid - 1 for pid in range(1, n + 1)}
    unwritten = (BOTTOM,) * n
    arrays: dict[str, list] = {}
    stray: dict[str, dict] = {}
    # Events embedded from a simulated system carry pids of a different
    # namespace, so the per-pid rules skip them; this remembers which
    # object ids are theirs.
    inner: dict[str | None, bool] = {None: False}
    for e in trace.events:
        step = e.step
        if step <= last_step:
            problems.append(f"step {step} not increasing after {last_step}")
        last_step = step
        obj = e.obj
        skip = inner.get(obj)
        if skip is None:
            skip = inner[obj] = obj.startswith(INNER_PREFIX)
        if skip:
            continue
        kind, pid = e.kind, e.pid
        if crashed and pid is not None and pid in crashed:
            problems.append(f"step {step}: crashed process {pid} acts ({kind})")
        if kind == "invoke":
            invoked.add((pid, obj))
        elif kind == "respond":
            if (pid, obj) not in invoked:
                problems.append(
                    f"step {step}: respond by {pid} on {obj} without invoke"
                )
            if e.op in _SNAPSHOT_OPS and _view_pids(e.ret) is None:
                problems.append(
                    f"step {step}: respond by {pid} on {obj} returned "
                    f"{e.ret!r}, which is not a view"
                )
        elif kind == "reg_write":
            at = slot.get(pid)
            if at is None:
                stray.setdefault(obj, {})[pid] = e.args
            else:
                cells = arrays.get(obj)
                if cells is None:
                    cells = arrays[obj] = [BOTTOM] * n
                cells[at] = e.args
        elif kind == "reg_read":
            cells = arrays.get(obj)
            if e.op == "scan":
                expect = unwritten if cells is None else tuple(cells)
                if tuple(e.ret) != expect:
                    problems.append(
                        f"step {step}: scan of {obj} returned {e.ret}, "
                        f"registers hold {expect}"
                    )
            elif e.op == "read":
                at = slot.get(e.args)
                if at is None:
                    expect = stray.get(obj, {}).get(e.args, BOTTOM)
                else:
                    expect = BOTTOM if cells is None else cells[at]
                if e.ret != expect:
                    problems.append(
                        f"step {step}: read of {obj}[{e.args}] returned "
                        f"{e.ret!r}, register holds {expect!r}"
                    )
        elif kind == "crash":
            if pid in crashed:
                problems.append(f"step {step}: process {pid} crashes twice")
            crashed.add(pid)
    if len(crashed) > trace.t:
        problems.append(f"{len(crashed)} crashes exceed budget t={trace.t}")
    return problems
