"""Event traces and their JSONL serialization.

A trace is the full record of one run: a config header, a sequence of
events, and per-process outcomes. Events carry the fields
(step, kind, pid, obj, op, args, ret); kinds are invoke, respond,
reg_write, reg_read, commit_batch, crash, and blocked. Serialization is
canonical: fixed field order, views as pid-sorted pair lists, bottom as
null, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

EVENT_KINDS = (
    "invoke",
    "respond",
    "reg_write",
    "reg_read",
    "commit_batch",
    "crash",
    "blocked",
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
    quiescent: bool = False
    meta: dict = field(default_factory=dict)

    def decisions(self) -> dict[int, object]:
        """Values of processes that returned."""
        return {
            p: out[1] for p, out in self.outcomes.items() if out[0] == RETURNED
        }

    def crashed_pids(self) -> set[int]:
        return {p for p, out in self.outcomes.items() if out[0] == CRASHED}

    def blocked_pids(self) -> set[int]:
        return {p for p, out in self.outcomes.items() if out[0] == BLOCKED}


# ── Canonical value encoding ─────────────────────────────────────────────────
#
# Register and view values are built from ints, strings, tuples, and
# frozensets of (pid, value) pairs. Views encode as {"view": [[pid, v], ...]}
# sorted by pid so that nested views (views of views) stay canonical and
# decodable without schema knowledge.


def encode_value(v: object) -> object:
    if v is None or isinstance(v, (int, str, bool, float)):
        return v
    if isinstance(v, frozenset):
        pairs = sorted(v, key=lambda pr: pr[0])
        for pr in pairs:
            if not (isinstance(pr, tuple) and len(pr) == 2 and isinstance(pr[0], int)):
                raise TypeError(f"frozenset value is not a view: {v!r}")
        return {"view": [[p, encode_value(x)] for p, x in pairs]}
    if isinstance(v, (tuple, list)):
        return [encode_value(x) for x in v]
    raise TypeError(f"cannot encode value of type {type(v).__name__}: {v!r}")


def decode_value(j: object) -> object:
    if j is None or isinstance(j, (int, str, bool, float)):
        return j
    if isinstance(j, dict):
        if set(j) != {"view"}:
            raise ValueError(f"unknown object value: {j!r}")
        return frozenset((p, decode_value(x)) for p, x in j["view"])
    if isinstance(j, list):
        return tuple(decode_value(x) for x in j)
    raise ValueError(f"cannot decode value: {j!r}")


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def event_to_json(e: Event) -> str:
    return _dumps(
        {
            "step": e.step,
            "kind": e.kind,
            "pid": e.pid,
            "obj": e.obj,
            "op": e.op,
            "args": encode_value(e.args),
            "ret": encode_value(e.ret),
        }
    )


def _event_from_obj(o: dict, line_no: int) -> Event:
    try:
        kind = o["kind"]
        if kind not in EVENT_KINDS:
            raise TraceParseError(line_no, f"unknown event kind {kind!r}")
        return Event(
            step=o["step"],
            kind=kind,
            pid=o.get("pid"),
            obj=o.get("obj"),
            op=o.get("op"),
            args=decode_value(o.get("args")),
            ret=decode_value(o.get("ret")),
        )
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, TraceParseError):
            raise
        raise TraceParseError(line_no, f"bad event: {exc}") from exc


def trace_to_jsonl(trace: Trace) -> str:
    """Serialize a trace: config header line, event lines, outcome footer."""
    lines = [
        _dumps(
            {
                "kind": "config",
                "n": trace.n,
                "t": trace.t,
                "k": trace.k,
                "meta": trace.meta,
            }
        )
    ]
    lines.extend(event_to_json(e) for e in trace.events)
    lines.append(
        _dumps(
            {
                "kind": "end",
                "outcomes": {
                    str(p): [out[0], encode_value(out[1])] if len(out) > 1 else [out[0]]
                    for p, out in sorted(trace.outcomes.items())
                },
                "truncated": trace.truncated,
                "quiescent": trace.quiescent,
            }
        )
    )
    return "\n".join(lines) + "\n"


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _outcome_from_json(out: object) -> tuple:
    if isinstance(out, list) and len(out) == 2 and out[0] == RETURNED:
        return (RETURNED, decode_value(out[1]))
    if isinstance(out, list) and len(out) == 1 and out[0] in (CRASHED, BLOCKED):
        return (out[0],)
    raise ValueError(f"bad outcome {out!r}")


def trace_from_jsonl(text: str) -> Trace:
    header = None
    footer = None
    events: list[Event] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            o = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TraceParseError(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(o, dict) or "kind" not in o:
            raise TraceParseError(line_no, "missing 'kind' field")
        if o["kind"] == "config":
            if header is not None:
                raise TraceParseError(line_no, "duplicate config line")
            if not (
                _is_int(o.get("n"))
                and _is_int(o.get("t"))
                and (o.get("k") is None or _is_int(o["k"]))
                and isinstance(o.get("meta", {}), dict)
            ):
                raise TraceParseError(line_no, f"malformed config: {raw}")
            header = o
        elif o["kind"] == "end":
            try:
                outcomes = {
                    int(p): _outcome_from_json(out)
                    for p, out in o.get("outcomes", {}).items()
                }
            except (AttributeError, TypeError, ValueError) as exc:
                raise TraceParseError(line_no, f"bad outcomes: {exc}") from exc
            footer = o
        else:
            if header is None:
                raise TraceParseError(line_no, "event before config line")
            events.append(_event_from_obj(o, line_no))
    if header is None:
        raise TraceParseError(0, "missing config line")
    if footer is None:
        raise TraceParseError(0, "missing end line")
    return Trace(
        n=header["n"],
        t=header["t"],
        k=header.get("k"),
        events=events,
        outcomes=outcomes,
        truncated=footer.get("truncated", False),
        quiescent=footer.get("quiescent", False),
        meta=header.get("meta", {}),
    )


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


def action_to_json(action: tuple) -> str:
    if action[0] == "step":
        return _dumps({"a": "step", "pid": action[1]})
    if action[0] == "commit":
        return _dumps({"a": "commit", "obj": action[1], "pids": list(action[2])})
    if action[0] == "crash":
        return _dumps({"a": "crash", "pid": action[1]})
    raise ValueError(f"unknown action {action!r}")


def action_from_json(raw: str, line_no: int) -> tuple:
    try:
        o = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TraceParseError(line_no, f"invalid JSON: {exc}") from exc
    match o:
        case {"a": "step" | "crash" as kind, "pid": pid} if _is_int(pid):
            return (kind, pid)
        case {"a": "commit", "obj": str(obj), "pids": list(pids)} if all(
            _is_int(p) for p in pids
        ):
            return ("commit", obj, tuple(pids))
    raise TraceParseError(line_no, f"malformed action: {raw}")


def schedule_to_jsonl(actions: Iterable[tuple]) -> str:
    return "".join(action_to_json(a) + "\n" for a in actions)


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
