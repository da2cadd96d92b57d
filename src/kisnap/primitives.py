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
"""

from __future__ import annotations

from dataclasses import dataclass

# Empty register cell. Serialized as JSON null.
BOTTOM = None


@dataclass(frozen=True, slots=True)
class Announce:
    """Free trace annotation emitted by a program between steps."""

    kind: str  # "invoke" | "respond"
    obj: str
    op: str
    args: object = None
    ret: object = None
    pid: int | None = None  # None: the acting process


@dataclass(frozen=True, slots=True)
class WriteStep:
    """Atomic write of `value` to the caller's own cell of `array` (SWMR)."""

    array: str
    value: object


@dataclass(frozen=True, slots=True)
class ScanStep:
    """Atomic read of all cells of `array`; result is the cell tuple.

    Enabled only once at least `min_filled` cells are non-bottom, so a
    guarded collect loop ("wait until enough processes wrote, then read")
    is a single step whose guard the scheduler evaluates.
    """

    array: str
    min_filled: int = 0


@dataclass(frozen=True, slots=True)
class WaitAnyStep:
    """Blocks until some watched cell is non-bottom; result is the tuple of
    watched cell values at the wakeup instant."""

    watches: tuple[tuple[str, int], ...]  # (array, 1-based cell)


@dataclass(frozen=True, slots=True)
class KisInvokeStep:
    """One-shot invocation of a k-immediate-snapshot oracle object.

    The step parks the process; the view arrives as the step result when
    the adversary commits a batch containing this process.
    """

    obj: str
    value: object


@dataclass(frozen=True, slots=True)
class ConsProposeStep:
    """Consensus proposal, atomic: invoke and response in one step."""

    obj: str
    value: object

