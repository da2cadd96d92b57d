"""Trace and schedule JSONL: every malformed line raises TraceParseError
naming its line; values encode to the same bytes as the recursive reference
encoder, decode back to themselves, and raise TypeError outside the format."""

from __future__ import annotations

import json
from collections import namedtuple
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import run_python
from kisnap import (
    CRASHED,
    RETURNED,
    Event,
    Trace,
    TraceParseError,
    trace_from_jsonl,
    trace_to_jsonl,
)
from kisnap.trace import (
    decode_value,
    schedule_from_jsonl,
    schedule_to_jsonl,
    value_to_json,
)

CONFIG = '{"kind":"config","n":3,"t":1,"k":1,"meta":{}}'
END = '{"kind":"end","outcomes":{}}'
EVENT = '{"step":0,"kind":"invoke","pid":1,"obj":"o","op":"snap","args":%s,"ret":null}'


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        '["step", 0]',
        '"step"',
        '{"pid": 1}',
        '{"a": "step"}',
        '{"a": "step", "pid": "1"}',
        '{"a": "crash", "pid": true}',
        '{"a": "commit", "pids": [1]}',
        '{"a": "commit", "obj": "kis", "pids": 1}',
        '{"a": "commit", "obj": "kis", "pids": ["1"]}',
        '{"a": "jump", "pid": 1}',
        '{"a": "step", "pid": 2} {"a": "step", "pid": 3}',
        '{"a": "step", "pid": 2}]',
    ],
)
def test_malformed_schedule_line_raises_parse_error(line):
    with pytest.raises(TraceParseError) as exc:
        schedule_from_jsonl('{"a": "step", "pid": 1}\n' + line + "\n")
    assert exc.value.line_no == 2


@pytest.mark.parametrize(
    "lines, line_no",
    [
        (["not json"], 1),
        (["[1, 2]"], 1),
        (['{"kind":"config","t":1,"k":1}', END], 1),
        (['{"kind":"config","n":"3","t":1,"k":1}', END], 1),
        (['{"kind":"config","n":3,"t":1,"k":"1"}', END], 1),
        (['{"kind":"config","n":3,"t":1,"k":1,"meta":[]}', END], 1),
        ([CONFIG, CONFIG, END], 2),
        ([CONFIG, '{"kind":"bogus","step":0}', END], 2),
        ([CONFIG, '{"kind":"crash","pid":1}', END], 2),
        ([CONFIG, '{"kind":"end","outcomes":{"1":[]}}'], 2),
        ([CONFIG, '{"kind":"end","outcomes":{"1":["returned"]}}'], 2),
        ([CONFIG, '{"kind":"end","outcomes":{"1":["gone"]}}'], 2),
        ([CONFIG, '{"kind":"end","outcomes":{"x":["crashed"]}}'], 2),
        ([CONFIG, '{"kind":"end","outcomes":[]}'], 2),
        ([END], 0),
        ([CONFIG], 0),
        ([CONFIG + " 1", END], 1),
        ([CONFIG, EVENT % "1" + "{}", END], 2),
        ([CONFIG, EVENT % '{"a":1}', END], 2),
        ([CONFIG, EVENT % '{"view":[[1,2]],"x":1}', END], 2),
        ([CONFIG, EVENT % '[{"pid":1}]', END], 2),
        ([CONFIG, END, END], 3),
        ([CONFIG, END, EVENT % "1"], 3),
        ([END, CONFIG, END], 1),
        ([CONFIG, EVENT.replace('"pid":1', '"pid":null') % "1", END], 2),
        ([CONFIG, '{"step":0,"kind":"respond","obj":"o","op":"snap","ret":1}', END], 2),
        ([CONFIG, EVENT % "1", '{"step":1,"kind":"crash","pid":null}', END], 3),
        ([CONFIG, '{"step":0,"kind":"blocked"}', END], 2),
        ([CONFIG, '{"step":0,"kind":"reg_write","obj":"a","op":"write","args":1}', END], 2),
        ([EVENT % "1", CONFIG, END], 1),
        ([CONFIG, '{"kind":"end","outcomes":{},"truncated":"no"}'], 2),
        ([CONFIG, '{"kind":"end","outcomes":{},"truncated":null}'], 2),
        ([CONFIG, '{"kind":"end","outcomes":{},"quiescent":1}'], 2),
        ([CONFIG, '{"kind":"end","outcomes":{"1_0":["crashed"]}}'], 2),
        ([CONFIG, '{"kind":"end","outcomes":{"01":["crashed"]}}'], 2),
        ([CONFIG, '{"kind":"end","outcomes":{" 1":["crashed"]}}'], 2),
        ([CONFIG, '{"kind":"end","outcomes":{"+1":["crashed"]}}'], 2),
    ],
)
def test_malformed_trace_raises_parse_error(lines, line_no):
    with pytest.raises(TraceParseError) as exc:
        trace_from_jsonl("\n".join(lines) + "\n")
    assert exc.value.line_no == line_no


# ── Value codec ──────────────────────────────────────────────────────────────
#
# The writer formats lines itself and hands values of other types to the
# stdlib C encoder. A recursive encoder over plain json.dumps is kept here as
# the reference for the bytes.


def reference_encode(v: object) -> object:
    if v is None or isinstance(v, (int, str, bool, float)):
        return v
    if isinstance(v, frozenset):
        pairs = sorted(v, key=lambda pr: pr[0])
        for pr in pairs:
            if not (isinstance(pr, tuple) and len(pr) == 2 and isinstance(pr[0], int)):
                raise TypeError(f"frozenset value is not a view: {v!r}")
        return {"view": [[p, reference_encode(x)] for p, x in pairs]}
    if isinstance(v, (tuple, list)):
        return [reference_encode(x) for x in v]
    raise TypeError(f"cannot encode value of type {type(v).__name__}: {v!r}")


def reference_event_line(e: Event) -> str:
    return json.dumps(
        {
            "step": e.step,
            "kind": e.kind,
            "pid": e.pid,
            "obj": e.obj,
            "op": e.op,
            "args": reference_encode(e.args),
            "ret": reference_encode(e.ret),
        },
        separators=(",", ":"),
    )


def event_line(e: Event) -> str:
    """The line `trace_to_jsonl` writes for `e`."""
    trace = Trace(n=2, t=0, k=None, events=[e], outcomes={})
    return trace_to_jsonl(trace).splitlines()[1]


def one_event_trace(args: object, ret: object, outcome: object = 0) -> Trace:
    return Trace(
        n=2,
        t=0,
        k=None,
        events=[Event(0, "invoke", 1, "o", "snap", args, ret)],
        outcomes={1: (RETURNED, outcome), 2: (CRASHED,)},
        meta={"objects": ["o"]},
    )


VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.integers(0, 9), inner, max_size=4).map(
        lambda d: frozenset(d.items())
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example('quote " backslash \\ é ☃ \U0001f600')
@example(frozenset({(2, frozenset({(1, 'x"y')})), (1, (True, None, -0.5))}))
def test_value_codec_matches_reference_and_round_trips(v):
    ref = json.dumps(reference_encode(v), separators=(",", ":"))
    assert value_to_json(v) == ref
    e = Event(3, "respond", 1, "o", "snap", v, (v, 1))
    assert event_line(e) == reference_event_line(e)
    assert decode_value(json.loads(ref)) == v
    text = trace_to_jsonl(one_event_trace(v, (v, 1), v))
    back = trace_from_jsonl(text)
    assert back.events[0].args == v and back.events[0].ret == (v, 1)
    assert back.outcomes[1] == (RETURNED, v)
    assert trace_to_jsonl(back) == text


class Opaque:
    pass


Cell = namedtuple("Cell", "value level")


class Level(IntEnum):
    TOP = 3


@pytest.mark.parametrize(
    "v",
    [Cell(5, 2), Level.TOP, (Cell(Level.TOP, 1), frozenset({(1, Cell(7, Level.TOP))}))],
    ids=["namedtuple", "int_subclass", "nested"],
)
def test_subclasses_encode_as_the_reference_does(v):
    assert value_to_json(v) == json.dumps(reference_encode(v), separators=(",", ":"))
    e = Event(0, "reg_write", 1, "a", "write", v, (v,))
    assert event_line(e) == reference_event_line(e)
    assert trace_to_jsonl(one_event_trace(v, (v,))).splitlines()[1] == (
        reference_event_line(Event(0, "invoke", 1, "o", "snap", v, (v,)))
    )


def test_shared_objects_write_the_same_bytes_each_time():
    """A tuple and a view object that many events carry, beside equal but
    distinct copies of them, write the reference bytes at every occurrence."""
    cells = tuple([None, (5, 2), (6, 1)])
    view = frozenset({(2, 5), (3, (6, cells))})
    cells_copy, view_copy = tuple(list(cells)), frozenset(list(view))
    assert cells_copy is not cells and view_copy is not view
    values = [cells, view, cells_copy, (cells, view), view_copy, (view_copy, cells)]
    events = [
        Event(i, "reg_read", 1, "a", "scan", values[i % 6], values[(i * 5) % 6])
        for i in range(24)
    ]
    trace = Trace(
        n=3,
        t=0,
        k=None,
        events=events,
        outcomes={1: (RETURNED, view), 2: (RETURNED, view_copy), 3: (CRASHED,)},
    )
    lines = trace_to_jsonl(trace).splitlines()
    assert lines[1:-1] == [reference_event_line(e) for e in events]
    assert lines[-1] == json.dumps(
        {
            "kind": "end",
            "outcomes": {
                str(p): reference_encode(out) for p, out in trace.outcomes.items()
            },
            "truncated": False,
            "quiescent": False,
        },
        separators=(",", ":"),
    )


def test_no_text_outlives_a_write():
    """A list inside a tuple can change between two writes of the same
    trace; the second write shows its new content."""
    box = [1, 2]
    held = (0, box)
    trace = one_event_trace(held, held, held)
    first = trace_to_jsonl(trace)
    box.append(3)
    second = trace_to_jsonl(trace)
    assert '"args":[0,[1,2]]' in first and '"args":[0,[1,2,3]]' in second
    assert trace_from_jsonl(second).events[0].ret == (0, (1, 2, 3))


class HashableDict(dict):
    """The only kind of dict a frozenset view can hold."""

    __hash__ = object.__hash__


NOT_ENCODABLE = {
    "set": {1, 2},
    "object": Opaque(),
    "frozenset_of_ints": frozenset({1, 2}),
    "frozenset_of_triples": frozenset({(1, 2, 3)}),
    "frozenset_with_str_pid": frozenset({("p", 1)}),
    "dict": {"view": [[1, 2]]},
    "dict_in_tuple": (1, {"a": 1}),
    "dict_in_view": frozenset({(1, HashableDict(a=1))}),
    "dict_in_nested_view": frozenset({(1, (2, frozenset({(3, HashableDict())})))}),
    "dict_in_namedtuple": Cell({"a": 1}, 1),
}


@pytest.mark.parametrize("v", NOT_ENCODABLE.values(), ids=NOT_ENCODABLE.keys())
def test_values_outside_the_format_raise_type_error(v):
    with pytest.raises(TypeError):
        reference_encode(v)
    with pytest.raises(TypeError):
        value_to_json(v)
    for args, ret, outcome in [(v, None, 0), (None, (0, v), 0), (None, None, v)]:
        with pytest.raises(TypeError):
            trace_to_jsonl(one_event_trace(args, ret, outcome))


STRING_INPUT_RUN = """
import kisnap
from kisnap.trace import schedule_to_jsonl
inst = kisnap.make_instance("alg1", 4, 2, 2, ("a", "b", "c", "d"))
for seed in range(5):
    res = kisnap.run_random(inst, seed)
    print(kisnap.trace_to_jsonl(res.trace) + schedule_to_jsonl(res.actions))
"""


def test_trace_bytes_do_not_depend_on_the_hash_seed():
    """Views of strings iterate in hash-seed order; their encoding sorts by
    pid, so the trace and schedule bytes are the same under any seed."""
    first, second = (run_python(STRING_INPUT_RUN, seed) for seed in (0, 1))
    assert '"view":[[' in first
    assert first == second


def test_action_lines_match_json_dumps():
    actions = [("step", 3), ("commit", "kis", (1, 4, 6)), ("crash", 2)]
    expected = [
        {"a": "step", "pid": 3},
        {"a": "commit", "obj": "kis", "pids": [1, 4, 6]},
        {"a": "crash", "pid": 2},
    ]
    dumps = [json.dumps(o, separators=(",", ":")) for o in expected]
    assert [schedule_to_jsonl([a]) for a in actions] == [d + "\n" for d in dumps]
    assert schedule_to_jsonl(actions) == "".join(d + "\n" for d in dumps)
    # Actions made one at a time and dropped after use may reuse an id.
    fresh = (("commit", "kis", tuple([i, i + 1])) for i in range(50))
    assert schedule_from_jsonl(schedule_to_jsonl(fresh)) == [
        ("commit", "kis", (i, i + 1)) for i in range(50)
    ]
