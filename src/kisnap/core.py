"""Deterministic simulator core for the t-crash asynchronous SWMR model.

A system is an `Instance`: n processes (pids 1..n), each running a step
program, plus declared register arrays (one single-writer cell per
process), k-immediate-snapshot oracle objects, and consensus objects.
The scheduler-visible unit is an action:

    ("step", pid)            run the process's next enabled step
    ("commit", obj, batch)   commit a pending k-IS batch as a concurrency class
    ("crash", pid)           crash a live, unreturned process (budget t)

`apply_action` is a pure transition on immutable `World` values and returns
the emitted events, so the same core drives single seeded/replayed runs and
exhaustive enumeration. Identical (instance, schedule state) always yields a
bit-identical trace.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, NamedTuple

from .objects import ConsState, KisState, consensus_propose, kis_commit_batch, kis_invoke
from .primitives import (
    BOTTOM,
    Announce,
    ConsProposeStep,
    KisInvokeStep,
    ScanStep,
    WaitAnyStep,
    WriteStep,
)
from .trace import BLOCKED, CRASHED, RETURNED, Event, Trace

DEFAULT_STEP_BOUND = 100_000


class SimError(ValueError):
    """Illegal instance, action, or schedule."""


# ── Instances and process programs ───────────────────────────────────────────


class Ctx(NamedTuple):
    """Read-only context every program receives."""

    n: int
    t: int
    k: int | None
    pid: int


Program = Callable[[Ctx], Iterator]


@dataclass
class Instance:
    """A complete system description the simulator can run. `programs`
    maps each pid to its program: a generator function of the process's
    `Ctx`, its parameters bound (`functools.partial`)."""

    n: int
    t: int
    k: int | None
    programs: dict[int, Program]
    arrays: tuple[str, ...] = ()
    kis_objects: tuple[tuple[str, int, int], ...] = ()  # (obj, n_obj, k_obj)
    cons_objects: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise SimError(f"need at least 2 processes, got n={self.n}")
        if not (0 <= self.t < self.n):
            raise SimError(f"crash budget must satisfy 0 <= t < n, got t={self.t}")
        if set(self.programs) != set(range(1, self.n + 1)):
            raise SimError("programs must cover exactly pids 1..n")
        names = [o for o, _, _ in self.kis_objects]
        if len(set(names)) != len(names):
            raise SimError("duplicate k-IS object ids")


# ── Program states ───────────────────────────────────────────────────────────
#
# A process's program state is (program, ctx, result history). Each run or DFS
# walk grows a graph of these states from the roots `initial_world` builds:
# a `ProgramState` records what the program does next and, once advanced,
# its successor per step result. Advancing along a new edge resumes the
# live generator paused at the state, so a run sends each result once. The
# generator can be resumed only once; a later, different result at the same
# state (a sibling branch of `explore`) replays the history from scratch.
# A world's processes are the nodes of this graph (`World.procs`), so the
# graph is reachable only from the run's worlds and is freed with the run.
# Since `after` keeps one successor per result, equal program states within
# one walk are the same node, and worlds compare by node identity.


class ProgramState:
    """One state of a process's program: the announces it makes on entering
    it, then the step it waits on, or the value it returned (`step` None).

    `succ` maps a step result to the state it leads to; `gen` is the
    program's generator paused here, until the first result takes it."""

    __slots__ = (
        "program", "ctx", "history", "announces", "step", "value", "succ", "gen"
    )

    def __init__(self, program, ctx, history, announces, step, value, gen):
        self.program = program
        self.ctx = ctx
        self.history = history
        self.announces = announces
        self.step = step
        self.value = value
        self.succ: dict = {}
        self.gen = gen

    def after(self, result) -> ProgramState:
        """The state the program reaches when its step returns `result`."""
        nxt = self.succ.get(result)
        if nxt is None:
            history = self.history + (result,)
            gen = self.gen
            if gen is None:
                gen = _replay(self.program, self.ctx, self.history)
            else:
                self.gen = None
            nxt = _resume(self.program, self.ctx, history, gen, result)
            self.succ[result] = nxt
        return nxt


def _resume(
    program: Program, ctx: Ctx, history: tuple, gen, result
) -> ProgramState:
    """Send `result` to `gen` and run it to its next step or its return."""
    announces: list[Announce] = []
    try:
        item = gen.send(result)
        while type(item) is Announce:
            announces.append(item)
            item = gen.send(None)
    except StopIteration as stop:
        return ProgramState(
            program, ctx, history, tuple(announces), None, stop.value, None
        )
    return ProgramState(program, ctx, history, tuple(announces), item, None, gen)


def _replay(program: Program, ctx: Ctx, history: tuple):
    """A fresh generator fed `history`, paused at the step that follows it."""
    gen = program(ctx)
    try:
        item = next(gen)
        for h in history:
            while type(item) is Announce:
                item = gen.send(None)
            item = gen.send(h)
        while type(item) is Announce:
            item = gen.send(None)
    except StopIteration:
        raise SimError(
            f"program of p{ctx.pid} ended before consuming its history"
        ) from None
    return gen


def program_root(program: Program, ctx: Ctx) -> ProgramState:
    """The start state of `program`, root of a new state graph."""
    return _resume(program, ctx, (), program(ctx), None)


class World(NamedTuple):
    """The system state. `procs[pid - 1]` is `pid`'s program state: its step
    is None once the program returned, and an invoke step stays in place
    while the process is parked in its k-IS object's `pending` set. A crash
    leaves the program state as it was and is recorded in `crashed`."""

    n: int
    t: int
    k: int | None
    procs: tuple[ProgramState, ...]
    regs: dict  # array -> tuple of n cells
    kis: dict  # obj -> KisState, keyed in sorted order
    cons: dict  # obj -> ConsState
    crashed: frozenset[int]


def _announce_events(announces: tuple[Announce, ...], pid: int) -> list[Event]:
    return [
        Event(
            step=-1,
            kind=a.kind,
            pid=a.pid if a.pid is not None else pid,
            obj=a.obj,
            op=a.op,
            args=a.args,
            ret=a.ret,
        )
        for a in announces
    ]


def initial_world(instance: Instance) -> tuple[World, list[Event]]:
    """Build the start state; returns it with the programs' initial events."""
    n, t, k = instance.n, instance.t, instance.k
    regs = {arr: (BOTTOM,) * n for arr in instance.arrays}
    kis = {
        o: KisState(n_obj, k_obj) for o, n_obj, k_obj in sorted(instance.kis_objects)
    }
    cons = {o: ConsState() for o in instance.cons_objects}
    procs = []
    events: list[Event] = []
    for pid in range(1, n + 1):
        node = program_root(instance.programs[pid], Ctx(n, t, k, pid))
        events.extend(_announce_events(node.announces, pid))
        procs.append(node)
    world = World(n, t, k, tuple(procs), regs, kis, cons, frozenset())
    return world, events


# ── Enabled actions ──────────────────────────────────────────────────────────


def _cell(world: World, arr: str, cell: int):
    cells = world.regs.get(arr)
    if cells is None:
        raise SimError(f"unknown register array {arr!r}")
    if type(cell) is not int or not 0 < cell <= len(cells):
        raise SimError(f"no cell {cell!r} of array {arr!r} among 1..{len(cells)}")
    return cells[cell - 1]


# A guard gives the pids its step record is refused to: every pid while a
# scan's or a wait's registers are not filled, the parked pids for an invoke.
_EVERY_PID = range(1, sys.maxsize)
_NO_PID = frozenset()


def _scan_refused(world: World, step: ScanStep):
    cells = world.regs.get(step.array)
    if cells is None:
        raise SimError(f"unknown register array {step.array!r}")
    full = len(cells) - cells.count(BOTTOM) >= step.min_filled
    return _NO_PID if full else _EVERY_PID


def _wait_refused(world: World, step: WaitAnyStep):
    woken = any(_cell(world, a, c) is not BOTTOM for a, c in step.watches)
    return _NO_PID if woken else _EVERY_PID


def _invoke_refused(world: World, step: KisInvokeStep):
    st = world.kis.get(step.obj)
    return _NO_PID if st is None else st.pending


# The guard of each guarded step class, keyed by exact type, with the number
# of leading record fields it reads: (array, min_filled) of a scan, the
# watches of a wait, the object of an invoke. A write, a propose and an
# unknown step have no guard: they are always ready, so stepping an unknown
# one reaches `_apply_step`, which raises.
_GUARDS = {
    ScanStep: (_scan_refused, 2),
    WaitAnyStep: (_wait_refused, 1),
    KisInvokeStep: (_invoke_refused, 1),
}


def enabled_step_actions(world: World) -> list[tuple]:
    """("step", pid) for every process with a guard-enabled step, by pid:
    a scan or wait has its registers filled, and an invoke is not already
    parked in its k-IS object. A process whose record has the class of the
    previous guarded process's and agrees with it on the fields the guard
    reads takes that process's refused pids."""
    crashed = world.crashed
    guards = _GUARDS
    out = []
    cls = key = None
    width = 0
    for pid, p in enumerate(world.procs, 1):
        step = p.step
        if step is None or pid in crashed:
            continue
        if type(step) is not cls or step[:width] != key:
            entry = guards.get(type(step))
            if entry is None:
                out.append(("step", pid))
                continue
            guard, width = entry
            cls = type(step)
            key = step[:width]
            refused = guard(world, step)
        if pid not in refused:
            out.append(("step", pid))
    return out


def commit_candidates(world: World) -> list[tuple[str, tuple[int, ...], int]]:
    """Objects with a committable pending set: (obj, pending sorted, min batch)."""
    out = []
    for obj, st in world.kis.items():
        pending = st.pending
        if pending:
            need = st.min_batch_size()
            if need <= len(pending):
                out.append((obj, tuple(sorted(pending)), need))
    return out


def enabled_commit_actions(world: World) -> list[tuple]:
    out = []
    for obj, pending, need in commit_candidates(world):
        for size in range(need, len(pending) + 1):
            out += [("commit", obj, batch) for batch in combinations(pending, size)]
    return out


def crash_candidates(world: World) -> list[tuple]:
    """("crash", pid) for every live, unreturned process, by pid, while the
    crash budget lasts."""
    crashed = world.crashed
    if len(crashed) >= world.t:
        return []
    return [
        ("crash", pid)
        for pid, p in enumerate(world.procs, 1)
        if p.step is not None and pid not in crashed
    ]


# ── Action application ───────────────────────────────────────────────────────


def _advance(
    procs: list[ProgramState], pid: int, result, events: list[Event]
) -> None:
    """Feed a step result to `pid`'s program; append its announce events."""
    node = procs[pid - 1] = procs[pid - 1].after(result)
    if node.announces:
        events += _announce_events(node.announces, pid)


def apply_action(world: World, action: tuple) -> tuple[World, list[Event]]:
    kind = action[0]
    if kind == "step":
        return _apply_step(world, action[1])
    if kind == "commit":
        return _apply_commit(world, action[1], tuple(action[2]))
    if kind == "crash":
        return _apply_crash(world, action[1])
    raise SimError(f"unknown action {action!r}")


def _apply_step(world: World, pid: int) -> tuple[World, list[Event]]:
    n, t, k, procs, regs, kis, cons, crashed = world
    if not 1 <= pid <= n:
        raise SimError(f"no process {pid!r} among pids 1..{n}")
    step = None if pid in crashed else procs[pid - 1].step
    if step is None:
        raise SimError(f"process {pid} has no enabled step")
    cls = type(step)
    # A parked process keeps its invoke step; its guard refuses it.
    entry = _GUARDS.get(cls)
    if entry is not None and pid in entry[0](world, step):
        raise SimError(f"step guard not satisfied for process {pid}: {step}")
    events: list[Event]

    if cls is WriteStep:
        cells = regs.get(step.array)
        if cells is None:
            raise SimError(f"unknown register array {step.array!r}")
        idx = pid - 1
        regs = {**regs, step.array: cells[:idx] + (step.value,) + cells[idx + 1 :]}
        events = [Event(-1, "reg_write", pid, step.array, "write", step.value)]
        result = None

    elif cls is ScanStep:
        result = regs[step.array]
        events = [Event(-1, "reg_read", pid, step.array, "scan", None, result)]

    elif cls is WaitAnyStep:
        result = tuple(_cell(world, a, c) for a, c in step.watches)
        events = [
            Event(-1, "reg_read", pid, a, "read", c, v)
            for (a, c), v in zip(step.watches, result)
        ]

    elif cls is KisInvokeStep:
        try:
            st = kis[step.obj]
        except KeyError:
            raise SimError(f"unknown k-IS object {step.obj!r}") from None
        kis = {**kis, step.obj: kis_invoke(st, pid, step.value)}
        events = [
            Event(-1, "invoke", pid, step.obj, "write_snapshot_k", step.value)
        ]
        # The process parks: its program state stays as it is.
        return World(n, t, k, procs, regs, kis, cons, crashed), events

    elif cls is ConsProposeStep:
        try:
            st = cons[step.obj]
        except KeyError:
            raise SimError(f"unknown consensus object {step.obj!r}") from None
        new_st, result = consensus_propose(st, step.value)
        cons = {**cons, step.obj: new_st}
        events = [
            Event(-1, "invoke", pid, step.obj, "propose", step.value),
            Event(-1, "respond", pid, step.obj, "propose", None, result),
        ]

    else:
        raise SimError(f"process {pid} yielded an unknown step {step!r}")

    slots = list(procs)
    _advance(slots, pid, result, events)
    return World(n, t, k, tuple(slots), regs, kis, cons, crashed), events


def _apply_commit(
    world: World, obj: str, batch: tuple[int, ...]
) -> tuple[World, list[Event]]:
    try:
        st = world.kis[obj]
    except KeyError:
        raise SimError(f"unknown k-IS object {obj!r}") from None
    new_st, view, releases = kis_commit_batch(st, batch, world.crashed)
    kis = {**world.kis, obj: new_st}
    events = [
        Event(-1, "commit_batch", None, obj, "commit", tuple(sorted(batch)), view)
    ]
    procs = list(world.procs)
    for pid, delivered in releases:
        events.append(
            Event(-1, "respond", pid, obj, "write_snapshot_k", None, delivered)
        )
        _advance(procs, pid, delivered, events)
    world = World(
        world.n, world.t, world.k, tuple(procs), world.regs, kis, world.cons,
        world.crashed,
    )
    return world, events


def _apply_crash(world: World, pid: int) -> tuple[World, list[Event]]:
    n, t, k, procs, regs, kis, cons, crashed = world
    if not 1 <= pid <= n:
        raise SimError(f"no process {pid!r} among pids 1..{n}")
    if len(crashed) >= t:
        raise SimError("crash budget exhausted")
    if pid in crashed:
        raise SimError(f"process {pid} already crashed")
    if procs[pid - 1].step is None:
        raise SimError(f"process {pid} already returned; crash is a no-op")
    world = World(n, t, k, procs, regs, kis, cons, crashed | {pid})
    return world, [Event(-1, "crash", pid)]


# ── Schedules ────────────────────────────────────────────────────────────────


class RandomSchedule:
    """Seeded adversary: uniform over enabled non-crash actions plus the
    pending crashes of its designated victims, pids of the world it runs.
    Commit batches are sampled (object, then size, then members) rather
    than enumerated.

    The commit part of the menu depends on `world.kis` alone, and every
    transition that leaves the k-IS state alone passes the same dict on,
    so it is rebuilt only when `world.kis` is a different object."""

    def __init__(self, rng: random.Random, crash_victims: tuple[int, ...]):
        self.rng = rng
        self.victims = tuple(crash_victims)
        self.kis = None  # the `world.kis` that `commits` was built from
        self.commits: list[tuple] = []

    def choose(self, world: World) -> tuple | None:
        menu = enabled_step_actions(world)
        if world.kis is not self.kis:
            self.kis = world.kis
            self.commits = [
                ("commit?", obj, pending, need)
                for obj, pending, need in commit_candidates(world)
            ]
        commits = self.commits
        if not menu and not commits:
            return None
        menu += commits
        crashed = world.crashed
        if len(crashed) < world.t:
            procs = world.procs
            menu += [
                ("crash", p)
                for p in self.victims
                if p not in crashed and procs[p - 1].step is not None
            ]
        pick = menu[self.rng.randrange(len(menu))]
        if pick[0] != "commit?":
            return pick
        _, obj, pending, need = pick
        size = self.rng.randint(need, len(pending))
        batch = tuple(sorted(self.rng.sample(pending, size)))
        return ("commit", obj, batch)


class ReplaySchedule:
    """Plays back a recorded action list; raises on illegal actions."""

    def __init__(self, actions: list[tuple]):
        self.actions = list(actions)
        self.pos = 0

    def choose(self, world: World) -> tuple | None:
        if self.pos >= len(self.actions):
            return None
        action = self.actions[self.pos]
        self.pos += 1
        return action


# ── Run loop ─────────────────────────────────────────────────────────────────


@dataclass
class RunResult:
    trace: Trace
    actions: list[tuple]


def _stamp(events: list[Event], new_events: list[Event]) -> None:
    base = len(events)
    for i, e in enumerate(new_events):
        e.step = base + i
    events.extend(new_events)


_CRASHED = (CRASHED,)
_BLOCKED = (BLOCKED,)


def outcomes_of(world: World) -> dict[int, tuple]:
    """Each pid's outcome, in pid order."""
    crashed = world.crashed
    out: dict[int, tuple] = {}
    for pid, p in enumerate(world.procs, 1):
        if pid in crashed:
            out[pid] = _CRASHED
        elif p.step is None:
            out[pid] = (RETURNED, p.value)
        else:
            out[pid] = _BLOCKED
    return out


def finalize_trace(
    world: World,
    events: list[Event],
    *,
    truncated: bool = False,
    meta: dict | None = None,
) -> Trace:
    """Close a run: compute outcomes, emit blocked events on quiescence.

    A truncated run (cut off with actions still enabled) also marks
    unfinished processes as blocked in the outcomes but is flagged
    `truncated`, not `quiescent`.
    """
    outcomes = outcomes_of(world)
    quiescent = False
    if not truncated:
        blocked = [p for p, o in outcomes.items() if o[0] == BLOCKED]
        if blocked:
            quiescent = True
            _stamp(events, [Event(-1, "blocked", pid) for pid in blocked])
    return Trace(
        n=world.n,
        t=world.t,
        k=world.k,
        events=events,
        outcomes=outcomes,
        truncated=truncated,
        quiescent=quiescent,
        meta=dict(meta or {}),
    )


def run(
    instance: Instance,
    schedule,
    *,
    initial_crashes: tuple[int, ...] = (),
    step_bound: int = DEFAULT_STEP_BOUND,
) -> RunResult:
    """Run one schedule to quiescence/completion.

    The run ends truncated when `step_bound` scheduler actions (initial
    crashes included) have been applied and the schedule still offers
    another, or when the schedule stops while a step or commit is still
    enabled (a replayed prefix)."""
    world, init_events = initial_world(instance)
    events: list[Event] = []
    _stamp(events, init_events)
    actions: list[tuple] = []
    for pid in initial_crashes:
        world, evs = apply_action(world, ("crash", pid))
        _stamp(events, evs)
        actions.append(("crash", pid))
    truncated = False
    while True:
        action = schedule.choose(world)
        if action is None:
            truncated = bool(
                enabled_step_actions(world) or commit_candidates(world)
            )
            break
        if len(actions) >= step_bound:
            truncated = True
            break
        world, evs = apply_action(world, action)
        step = len(events)
        for e in evs:
            e.step = step
            step += 1
        events += evs
        actions.append(action)
    trace = finalize_trace(
        world, events, truncated=truncated, meta=instance.meta
    )
    return RunResult(trace=trace, actions=actions)


def run_random(
    instance: Instance,
    seed: int,
    *,
    crash_victims: tuple[int, ...] | None = None,
    initial_crashes: tuple[int, ...] = (),
    step_bound: int = DEFAULT_STEP_BOUND,
) -> RunResult:
    """Seeded random run; samples crash count and victims unless given."""
    rng = random.Random(seed)
    if crash_victims is None:
        budget = instance.t - len(initial_crashes)
        count = rng.randint(0, budget) if budget > 0 else 0
        pool = [p for p in range(1, instance.n + 1) if p not in initial_crashes]
        crash_victims = tuple(sorted(rng.sample(pool, count))) if count else ()
    elif not all(1 <= p <= instance.n for p in crash_victims):
        raise SimError(
            f"crash victims {crash_victims} not among pids 1..{instance.n}"
        )
    elif len(set(crash_victims)) != len(crash_victims):
        raise SimError(f"crash victims {crash_victims} name a pid twice")
    schedule = RandomSchedule(rng, crash_victims)
    return run(
        instance,
        schedule,
        initial_crashes=initial_crashes,
        step_bound=step_bound,
    )
