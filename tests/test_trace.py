"""Trace and schedule parsing: every malformed line raises TraceParseError
naming its line."""

from __future__ import annotations

import pytest

from kisnap import TraceParseError, trace_from_jsonl
from kisnap.trace import schedule_from_jsonl

CONFIG = '{"kind":"config","n":3,"t":1,"k":1,"meta":{}}'
END = '{"kind":"end","outcomes":{}}'


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
    ],
)
def test_malformed_trace_raises_parse_error(lines, line_no):
    with pytest.raises(TraceParseError) as exc:
        trace_from_jsonl("\n".join(lines) + "\n")
    assert exc.value.line_no == line_no
