"""Event traces and their JSONL serialization.

A trace is the full record of one run: a config header, a sequence of
events, and per-process outcomes. Events carry the fields
(step, kind, pid, obj, op, args, ret); kinds are invoke, respond,
reg_write, reg_read, commit_batch and crash. A blocked process is stated by
its outcome alone. Serialization is canonical: fixed field order, views as
pid-sorted pair lists, bottom as null, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

EVENT_KINDS = (
    "invoke",
    "respond",
    "reg_write",
    "reg_read",
    "commit_batch",
    "crash",
)

RETURNED = "returned"
CRASHED = "crashed"
BLOCKED = "blocked"

# Object-id prefix for events embedded from a simulated inner system. Such
# events carry inner pids, a separate namespace from the trace's own pids.
INNER_PREFIX = "inner."


class TraceParseError(ValueError):
    """Malformed trace or schedule file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(slots=True)
class Event:
    step: int
    kind: str
    pid: int | None = None
    obj: str | None = None
    op: str | None = None
    args: object = None
    ret: object = None


@dataclass
class Trace:
    n: int
    t: int
    k: int | None
    events: list[Event]
    outcomes: dict[int, tuple]  # pid -> (RETURNED, v) | (CRASHED,) | (BLOCKED,)
    truncated: bool = False
    meta: dict = field(default_factory=dict)
    # The checkers' state of the events (`checkers.LeafFold`), set by the
    # walk that made the trace. It serves while `events` is the list it was
    # made for and folds in events appended to it; give a trace whose
    # events change otherwise a new list. Not part of the record: equality,
    # repr, JSONL and `dataclasses.replace` leave it out.
    fold: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def quiescent(self) -> bool:
        """The run ended with no action enabled and some process blocked:
        it is not truncated and some outcome is (BLOCKED,)."""
        return not self.truncated and (BLOCKED,) in self.outcomes.values()

    def decisions(self) -> dict[int, object]:
        """Values of processes that returned."""
        return {
            p: out[1] for p, out in self.outcomes.items() if out[0] == RETURNED
        }

    def crashed_pids(self) -> set[int]:
        return {p for p, out in self.outcomes.items() if out[0] == CRASHED}


# ── Canonical value encoding ─────────────────────────────────────────────────
#
# Register and view values are built from ints, strings, bools, floats, None,
# tuples, and frozensets of (pid, value) pairs. Views encode as
# {"view": [[pid, v], ...]} sorted by pid so that nested views (views of views)
# stay canonical and decodable without schema knowledge. Lines are written by
# `_writer`, which remembers the text of every tuple and view it has written,
# so each distinct tuple or view object of a trace is encoded once per trace
# however many events carry it (a scan re-emits every register cell). Values
# of any other type go to the stdlib C encoder, which calls `view_to_json` for
# each view it meets, nested ones included.

_pid = itemgetter(0)
_SCALARS = frozenset({int, str, bool, float, type(None)})
# Values that hold no dict the encoder could reach without `view_to_json`.
_ATOMS = _SCALARS | {frozenset}


def _reject_dicts(v: object) -> None:
    """Raise TypeError if `v` is a dict or its tuples and lists hold one.

    The C encoder writes a dict as a JSON object without calling its
    `default` hook, so a dict value would pass as a view or fail to decode."""
    if isinstance(v, (tuple, list)):
        for x in v:
            if type(x) not in _ATOMS:
                _reject_dicts(x)
    elif isinstance(v, dict):
        raise TypeError(f"cannot encode value of type {type(v).__name__}: {v!r}")


def view_to_json(v: object) -> dict:
    """The encoder's `default` hook: a view as {"view": pairs sorted by pid}.

    Any other value that reaches it (a set, a frozenset that is not a view,
    an arbitrary object) raises TypeError."""
    if isinstance(v, frozenset):
        pairs = sorted(v, key=_pid)
        for pr in pairs:
            if not (isinstance(pr, tuple) and len(pr) == 2 and isinstance(pr[0], int)):
                raise TypeError(f"frozenset value is not a view: {v!r}")
            if type(pr[1]) not in _ATOMS:
                _reject_dicts(pr[1])
        return {"view": pairs}
    raise TypeError(f"cannot encode value of type {type(v).__name__}: {v!r}")


# No cycle check: tuples and frozensets cannot contain themselves, a list
# that does fails with RecursionError in `enc` or `_reject_dicts` before it
# gets here, and the check costs an id-keyed dict insert and delete for every
# array and object written (about an eighth of the encoding time).
_encode = json.JSONEncoder(
    separators=(",", ":"), default=view_to_json, check_circular=False
).encode
_encode_str = json.encoder.encode_basestring_ascii


def _writer():
    """A fresh `enc(v)`: `v` in the canonical encoding, as compact JSON text.

    `enc` keeps the text of every exact tuple and frozenset it writes, keyed
    by `id`. An id names one object only while that object is alive, so a
    writer may be used only while every value it has been given is kept
    alive, for example by the trace being written, and is dropped after
    that. Lists are never remembered: they can change between writes.
    Exact ints, strings and None are written here too. Every other type
    (bool, float, any subclass, dict, unknown objects) is checked by
    `_reject_dicts` and written by the C encoder, which writes the same
    bytes for the types `enc` handles itself."""
    memo: dict[int, str] = {}

    def enc(v: object) -> str:
        t = type(v)
        if t is int:
            return repr(v)
        if v is None:
            return "null"
        if t is str:
            return _encode_str(v)
        if t is tuple or t is frozenset:
            text = memo.get(id(v))
            if text is None:
                if t is tuple:
                    text = "[" + ",".join([enc(x) for x in v]) + "]"
                else:
                    pairs = view_to_json(v)["view"]
                    text = (
                        '{"view":['
                        + ",".join([f"[{enc(p)},{enc(x)}]" for p, x in pairs])
                        + "]}"
                    )
                memo[id(v)] = text
            return text
        if t is list:
            return "[" + ",".join([enc(x) for x in v]) + "]"
        _reject_dicts(v)
        return _encode(v)

    return enc


def value_to_json(v: object) -> str:
    """One value in the canonical trace encoding, as compact JSON text."""
    return _writer()(v)


def decode_value(j: object) -> object:
    """Inverse of the encoding, on parsed JSON: arrays become tuples and
    {"view": [[pid, v], ...]} objects become frozensets of pairs."""
    # Scalars decode as themselves; most values are scalars, so the callers
    # test for them inline rather than pay a call for each.
    t = type(j)
    if t is list:
        return tuple([x if type(x) in _SCALARS else decode_value(x) for x in j])
    if t is dict:
        if len(j) != 1 or "view" not in j:
            raise ValueError(f"unknown object value: {j!r}")
        return frozenset(
            [(p, x if type(x) in _SCALARS else decode_value(x)) for p, x in j["view"]]
        )
    if t in _SCALARS:
        return j
    raise ValueError(f"cannot decode value: {j!r}")


_raw_decode = json.JSONDecoder().raw_decode


def _parse_line(raw: str, line_no: int) -> object:
    """Parse one stripped line, which must hold exactly one JSON value.
    Its values have exact types (true is a bool, not an int), so callers
    test for an int with `type(v) is int`."""
    try:
        o, end = _raw_decode(raw)
    except json.JSONDecodeError as exc:
        raise TraceParseError(line_no, f"invalid JSON: {exc}") from exc
    if end != len(raw):
        raise TraceParseError(line_no, f"invalid JSON: extra data at column {end + 1}")
    return o


def _event_line(enc, e: Event) -> str:
    return (
        f'{{"step":{enc(e.step)},"kind":{enc(e.kind)},"pid":{enc(e.pid)},'
        f'"obj":{enc(e.obj)},"op":{enc(e.op)},"args":{enc(e.args)},'
        f'"ret":{enc(e.ret)}}}'
    )


def _event_from_obj(o: dict, line_no: int) -> Event:
    try:
        kind = o["kind"]
        if kind not in EVENT_KINDS:
            raise TraceParseError(line_no, f"unknown event kind {kind!r}")
        step, pid, obj, op = o["step"], o.get("pid"), o.get("obj"), o.get("op")
        # The checkers compare steps, sort pids and read object ids as text.
        # Only a commit is made by no process.
        if not (
            type(step) is int
            and (type(pid) is int or pid is None and kind == "commit_batch")
            and (obj is None or type(obj) is str)
            and (op is None or type(op) is str)
        ):
            raise TraceParseError(
                line_no,
                f"bad event: step {step!r} must be an int, pid {pid!r} an int "
                f"or null (null only on a commit_batch), obj {obj!r} and op "
                f"{op!r} strings or null",
            )
        return Event(  # positional: cheaper than keywords, once per event
            step,
            kind,
            pid,
            obj,
            op,
            args if type(args := o.get("args")) in _SCALARS else decode_value(args),
            ret if type(ret := o.get("ret")) in _SCALARS else decode_value(ret),
        )
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, TraceParseError):
            raise
        raise TraceParseError(line_no, f"bad event: {exc}") from exc


def trace_to_jsonl(trace: Trace) -> str:
    """Serialize a trace: config header line, event lines, outcome footer."""
    enc = _writer()  # the trace keeps every value it writes alive
    lines = [
        _encode(
            {
                "kind": "config",
                "n": trace.n,
                "t": trace.t,
                "k": trace.k,
                "meta": trace.meta,
            }
        )
    ]
    lines += [_event_line(enc, e) for e in trace.events]
    outcomes = ",".join(
        [f"{enc(str(p))}:{enc(out)}" for p, out in sorted(trace.outcomes.items())]
    )
    lines.append(
        f'{{"kind":"end","outcomes":{{{outcomes}}},'
        f'"truncated":{enc(trace.truncated)},"quiescent":{enc(trace.quiescent)}}}'
    )
    return "\n".join(lines) + "\n"


def _outcome_from_json(out: object) -> tuple:
    if isinstance(out, list) and len(out) == 2 and out[0] == RETURNED:
        return (RETURNED, decode_value(out[1]))
    if isinstance(out, list) and len(out) == 1 and out[0] in (CRASHED, BLOCKED):
        return (out[0],)
    raise ValueError(f"bad outcome {out!r}")


def _pid_key(key: str) -> int:
    """The pid an outcome key names, written as `str(pid)` writes it."""
    pid = int(key)
    if key != str(pid):
        raise ValueError(f"pid key {key!r} is not written as {str(pid)!r}")
    return pid


def trace_from_jsonl(text: str) -> Trace:
    header = None
    footer = None
    events: list[Event] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        o = _parse_line(raw, line_no)
        if not isinstance(o, dict) or "kind" not in o:
            raise TraceParseError(line_no, "missing 'kind' field")
        if footer is not None:
            if header is None:
                raise TraceParseError(footer_line, "end line before config line")
            raise TraceParseError(line_no, "line after end line")
        if o["kind"] == "config":
            if header is not None:
                raise TraceParseError(line_no, "duplicate config line")
            meta = o.get("meta", {})
            # The checkers look object ids up in the meta's `objects` list
            # and pick their catalog entry by its `algo` name.
            if not (
                type(o.get("n")) is int
                and type(o.get("t")) is int
                and (o.get("k") is None or type(o["k"]) is int)
                and isinstance(meta, dict)
                and type(objects := meta.get("objects", [])) is list
                and all(type(x) is str for x in objects)
                and type(meta.get("algo", "")) is str
            ):
                raise TraceParseError(line_no, f"malformed config: {raw}")
            header = o
        elif o["kind"] == "end":
            for flag in ("truncated", "quiescent"):
                if type(o.get(flag, False)) is not bool:
                    raise TraceParseError(line_no, f"{flag} is not a boolean: {raw}")
            try:
                outcomes = {
                    _pid_key(p): _outcome_from_json(out)
                    for p, out in o.get("outcomes", {}).items()
                }
            except (AttributeError, TypeError, ValueError) as exc:
                raise TraceParseError(line_no, f"bad outcomes: {exc}") from exc
            footer, footer_line = o, line_no
        else:
            if header is None:
                raise TraceParseError(line_no, "event before config line")
            events.append(_event_from_obj(o, line_no))
    if header is None:
        raise TraceParseError(0, "missing config line")
    if footer is None:
        raise TraceParseError(0, "missing end line")
    n = header["n"]
    outside = sorted(p for p in outcomes if not 1 <= p <= n)
    if outside:
        raise TraceParseError(footer_line, f"outcome pids {outside} outside 1..{n}")
    trace = Trace(
        n=n,
        t=header["t"],
        k=header.get("k"),
        events=events,
        outcomes=outcomes,
        truncated=footer.get("truncated", False),
        meta=header.get("meta", {}),
    )
    if footer.get("quiescent", trace.quiescent) is not trace.quiescent:
        raise TraceParseError(
            footer_line, "quiescent flag disagrees with truncated and outcomes"
        )
    return trace


def write_trace(path, trace: Trace) -> None:
    with open(path, "w") as fh:
        fh.write(trace_to_jsonl(trace))


def read_trace(path) -> Trace:
    with open(path) as fh:
        return trace_from_jsonl(fh.read())


# ── Schedule (replay) files ──────────────────────────────────────────────────
#
# A schedule file is the JSONL record of adversary choices: one action per
# line. Replaying it against the same instance reproduces the trace exactly.


def _action_line(enc, action: tuple) -> str:
    kind = action[0]
    if kind == "step":
        return f'{{"a":"step","pid":{enc(action[1])}}}'
    if kind == "commit":
        return f'{{"a":"commit","obj":{enc(action[1])},"pids":{enc(action[2])}}}'
    if kind == "crash":
        return f'{{"a":"crash","pid":{enc(action[1])}}}'
    raise ValueError(f"unknown action {action!r}")


def action_from_json(raw: str, line_no: int) -> tuple:
    match _parse_line(raw, line_no):
        case {"a": "step" | "crash" as kind, "pid": pid} if type(pid) is int:
            return (kind, pid)
        case {"a": "commit", "obj": str(obj), "pids": list(pids)} if all(
            type(p) is int for p in pids
        ):
            return ("commit", obj, tuple(pids))
    raise TraceParseError(line_no, f"malformed action: {raw}")


def schedule_to_jsonl(actions: Iterable[tuple]) -> str:
    actions = list(actions)  # keeps each action alive while `enc` knows its id
    enc = _writer()
    return "".join([_action_line(enc, a) + "\n" for a in actions])


def schedule_from_jsonl(text: str) -> list[tuple]:
    actions = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if raw:
            actions.append(action_from_json(raw, line_no))
    return actions


def write_schedule(path, actions: Iterable[tuple]) -> None:
    with open(path, "w") as fh:
        fh.write(schedule_to_jsonl(actions))


def read_schedule(path) -> list[tuple]:
    with open(path) as fh:
        return schedule_from_jsonl(fh.read())
