"""Shared primitives: step descriptors and trace annotations.

A process program is a Python generator. It yields step descriptors, each
of which the simulator executes as one atomic scheduler action, and receives
the step's result back through `send`. In between steps it may yield
`Announce` markers; these add invoke/respond events to the trace without
consuming a scheduler step. An instance gives each process its program as
a callable of its context: the generator function with its parameters
bound, e.g. by `functools.partial`. Programs must be deterministic
functions of their context, parameters, and the sequence of step results:
exploration rebuilds a generator by replaying its step results when a
program state is revisited with a different result, so no hidden mutable
state is allowed.

Programs yield exactly these classes. The simulator dispatches on a step's
exact type, so any other object it is asked to run, a subclass of a step
class included, is an unknown step: stepping it raises `SimError` rather
than running it without its guard. The records are named tuples, cheap to
build on every action; two of them compare equal when their fields do.
"""

from __future__ import annotations

from typing import NamedTuple

# Empty register cell. Serialized as JSON null.
BOTTOM = None


class Announce(NamedTuple):
    """Free trace annotation emitted by a program between steps."""

    kind: str  # "invoke" | "respond"
    obj: str
    op: str
    args: object = None
    ret: object = None
    pid: int | None = None  # None: the acting process


class WriteStep(NamedTuple):
    """Atomic write of `value` to the caller's own cell of `array` (SWMR)."""

    array: str
    value: object


class ScanStep(NamedTuple):
    """Atomic read of all cells of `array`; result is the cell tuple.

    Enabled only once at least `min_filled` cells are non-bottom, so a
    guarded collect loop ("wait until enough processes wrote, then read")
    is a single step whose guard the scheduler evaluates.
    """

    array: str
    min_filled: int = 0


class KisInvokeStep(NamedTuple):
    """One-shot invocation of a k-immediate-snapshot oracle object.

    The step parks the process; the view arrives as the step result when
    the adversary commits a batch containing this process.
    """

    obj: str
    value: object


class ConsProposeStep(NamedTuple):
    """Consensus proposal, atomic: invoke and response in one step."""

    obj: str
    value: object
