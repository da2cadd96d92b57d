"""Deterministic simulator core for the t-crash asynchronous SWMR model.

A system is an `Instance`: n processes (pids 1..n), each running a step
program, plus declared register arrays (one single-writer cell per
process), k-immediate-snapshot oracle objects, and consensus objects.
The scheduler-visible unit is an action:

    ("step", pid)            run the process's next enabled step
    ("commit", obj, batch)   commit a pending k-IS batch as a concurrency class
    ("crash", pid)           crash a live, unreturned process (budget t)

`apply_action` is a pure transition on `World` values: it builds a new world
and returns it with the emitted events, so the same core drives single
seeded/replayed runs and exhaustive enumeration. A world is never changed
once built, apart from one write-once memo of its step menu
(`World.steps`), which equality ignores. Identical (instance, schedule
state) always yields a bit-identical trace.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, NamedTuple

from .objects import KisState, consensus_propose, kis_commit_batch, kis_invoke
from .primitives import (
    BOTTOM,
    Announce,
    ConsProposeStep,
    KisInvokeStep,
    ScanStep,
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
    `Ctx`, its parameters bound (`functools.partial`). Each k-IS object is
    declared by its name and has the instance's k, which must then satisfy
    1 <= k <= n-1: it is shared by all n processes, so its views must hold
    at least n-k pairs."""

    n: int
    t: int
    k: int | None
    programs: dict[int, Program]
    arrays: tuple[str, ...] = ()
    kis_objects: tuple[str, ...] = ()
    cons_objects: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise SimError(f"need at least 2 processes, got n={self.n}")
        if not (0 <= self.t < self.n):
            raise SimError(f"crash budget must satisfy 0 <= t < n, got t={self.t}")
        if set(self.programs) != set(range(1, self.n + 1)):
            raise SimError("programs must cover exactly pids 1..n")
        ids = [*self.arrays, *self.kis_objects, *self.cons_objects]
        twice = sorted({o for o in ids if ids.count(o) > 1})
        if twice:
            raise SimError(f"object ids declared twice: {twice}")
        k = self.k
        if self.kis_objects and (k is None or not 1 <= k <= self.n - 1):
            raise SimError(
                f"declaring k-IS objects requires 1 <= k <= n-1, "
                f"got n={self.n} k={k}"
            )


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
    it, then the step it takes next, or the value it returned (`step` None).

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
    announces: tuple[Announce, ...] = ()
    try:
        item = gen.send(result)
        while type(item) is Announce:
            announces += (item,)
            item = gen.send(None)
    except StopIteration as stop:
        return ProgramState(program, ctx, history, announces, None, stop.value, None)
    return ProgramState(program, ctx, history, announces, item, None, gen)


def _replay(program: Program, ctx: Ctx, history: tuple):
    """A fresh generator fed `history`, paused at the step that follows it:
    a new root walked along `history`, so `_resume` alone steps programs."""
    node = program_root(program, ctx)
    for result in history:
        if node.step is None:
            break
        node = node.after(result)
    if node.step is None:
        raise SimError(f"program of p{ctx.pid} ended before consuming its history")
    return node.gen


def program_root(program: Program, ctx: Ctx) -> ProgramState:
    """The start state of `program`, root of a new state graph."""
    return _resume(program, ctx, (), program(ctx), None)


@dataclass(slots=True)
class World:
    """The system state: only what a transition changes, plus the crash
    budget `t`. `procs[pid - 1]` is `pid`'s program state, so n is
    `len(procs)`: its step is None once the program returned, and an invoke
    step stays in place while the process is parked in its k-IS object's
    `pending` map. A crash leaves the program state as it was and is
    recorded in `crashed`. No transition changes a world it is given.

    `steps` is a memo, not state, and not a constructor argument: the
    world's step menu, which `enabled_step_actions` fills on its first call
    (a crash child gets it from `_apply_crash`) and copies on every call.
    Equality and `repr` read the six fields alone."""

    t: int
    procs: tuple[ProgramState, ...]
    regs: dict  # array -> tuple of n cells
    kis: dict  # obj -> KisState, keyed in sorted order
    cons: dict  # obj -> decided value, BOTTOM until the first propose
    crashed: frozenset[int]
    steps: list[tuple] | None = field(
        default=None, init=False, compare=False, repr=False
    )


def _announce_events(announces: tuple[Announce, ...], pid: int) -> list[Event]:
    """The events of `pid`'s announces, unstamped; an announce with no pid
    of its own is the acting process's."""
    return [
        Event(-1, kind, pid if by is None else by, obj, op, args, ret)
        for kind, obj, op, args, ret, by in announces
    ]


def initial_world(instance: Instance) -> tuple[World, list[Event]]:
    """Build the start state; returns it with the programs' initial events,
    stamped from step 0, as the list a run appends its later events to."""
    n, t, k = instance.n, instance.t, instance.k
    regs = {arr: (BOTTOM,) * n for arr in instance.arrays}
    kis = {o: KisState(n - k) for o in sorted(instance.kis_objects)}
    cons = dict.fromkeys(instance.cons_objects, BOTTOM)
    procs = []
    events: list[Event] = []
    for pid in range(1, n + 1):
        node = program_root(instance.programs[pid], Ctx(n, t, k, pid))
        _stamp(events, _announce_events(node.announces, pid))
        procs.append(node)
    world = World(t, tuple(procs), regs, kis, cons, frozenset())
    return world, events


# ── Enabled actions ──────────────────────────────────────────────────────────


def _scan_ready(world: World, step: ScanStep) -> bool:
    """A scan's guard: at least `min_filled` cells of its array are filled."""
    cells = world.regs.get(step.array)
    if cells is None:
        raise SimError(f"unknown register array {step.array!r}")
    return len(cells) - cells.count(BOTTOM) >= step.min_filled


def enabled_step_actions(world: World) -> list[tuple]:
    """("step", pid) for every process with a guard-enabled step, by pid:
    a scan has its registers filled, and an invoke is not already parked
    in its k-IS object. Scans of one record share one verdict per call. A
    write, a propose and an unknown step have no guard, so stepping an
    unknown one reaches `_apply_step`, which raises.

    The menu is computed once per world and kept in `world.steps`, which a
    crash child inherits less the crashed pid (`_apply_crash`); every call
    returns a fresh copy, which the caller may extend."""
    steps = world.steps
    if steps is not None:
        return steps[:]
    crashed, kis = world.crashed, world.kis
    scans: dict = {}  # scan record -> its guard's verdict in this world
    out = []
    for pid, p in enumerate(world.procs, 1):
        step = p.step
        if step is None or pid in crashed:
            continue
        cls = type(step)
        if cls is ScanStep:
            ready = scans.get(step)
            if ready is None:
                ready = scans[step] = _scan_ready(world, step)
            if not ready:
                continue
        elif cls is KisInvokeStep:
            st = kis.get(step.obj)
            if st is not None and pid in st.pending:
                continue
        out.append(("step", pid))
    world.steps = out
    return out[:]


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
        return _apply_commit(world, action[1], action[2])
    if kind == "crash":
        return _apply_crash(world, action[1])
    raise SimError(f"unknown action {action!r}")


def _apply_step(world: World, pid: int) -> tuple[World, list[Event]]:
    procs, crashed = world.procs, world.crashed
    regs, kis, cons = world.regs, world.kis, world.cons
    if not 1 <= pid <= len(procs):
        raise SimError(f"no process {pid!r} among pids 1..{len(procs)}")
    step = None if pid in crashed else procs[pid - 1].step
    if step is None:
        raise SimError(f"process {pid} has no enabled step")
    cls = type(step)
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
        if not _scan_ready(world, step):
            raise SimError(f"step guard not satisfied for process {pid}: {step}")
        result = regs[step.array]
        events = [Event(-1, "reg_read", pid, step.array, "scan", None, result)]

    elif cls is KisInvokeStep:
        try:
            st = kis[step.obj]
        except KeyError:
            raise SimError(f"unknown k-IS object {step.obj!r}") from None
        # A parked process keeps its invoke step until its batch commits.
        if pid in st.pending:
            raise SimError(f"step guard not satisfied for process {pid}: {step}")
        kis = {**kis, step.obj: kis_invoke(st, pid, step.value)}
        events = [
            Event(-1, "invoke", pid, step.obj, "write_snapshot_k", step.value)
        ]
        # The process parks: its program state stays as it is.
        return World(world.t, procs, regs, kis, cons, crashed), events

    elif cls is ConsProposeStep:
        try:
            decided = cons[step.obj]
        except KeyError:
            raise SimError(f"unknown consensus object {step.obj!r}") from None
        decided, result = consensus_propose(decided, step.value)
        cons = {**cons, step.obj: decided}
        events = [
            Event(-1, "invoke", pid, step.obj, "propose", step.value),
            Event(-1, "respond", pid, step.obj, "propose", None, result),
        ]

    else:
        raise SimError(f"process {pid} yielded an unknown step {step!r}")

    slots = list(procs)
    _advance(slots, pid, result, events)
    return World(world.t, tuple(slots), regs, kis, cons, crashed), events


def _apply_commit(world: World, obj: str, batch) -> tuple[World, list[Event]]:
    """Commit `batch`, in any order, as the next class of `obj`: it is
    sorted once, so its event and its releases follow pid order."""
    try:
        st = world.kis[obj]
    except KeyError:
        raise SimError(f"unknown k-IS object {obj!r}") from None
    batch = tuple(sorted(batch))
    new_st, view, releases = kis_commit_batch(st, batch, world.crashed)
    kis = {**world.kis, obj: new_st}
    events = [Event(-1, "commit_batch", None, obj, "commit", batch, view)]
    procs = list(world.procs)
    for pid, delivered in releases:
        events.append(
            Event(-1, "respond", pid, obj, "write_snapshot_k", None, delivered)
        )
        _advance(procs, pid, delivered, events)
    world = World(world.t, tuple(procs), world.regs, kis, world.cons, world.crashed)
    return world, events


def _apply_crash(world: World, pid: int) -> tuple[World, list[Event]]:
    procs, crashed = world.procs, world.crashed
    if not 1 <= pid <= len(procs):
        raise SimError(f"no process {pid!r} among pids 1..{len(procs)}")
    if len(crashed) >= world.t:
        raise SimError("crash budget exhausted")
    if pid in crashed:
        raise SimError(f"process {pid} already crashed")
    if procs[pid - 1].step is None:
        raise SimError(f"process {pid} already returned; crash is a no-op")
    # A crash changes no program state, register or k-IS object, so no
    # guard verdict moves: the child's step menu is the parent's less `pid`.
    child = World(world.t, procs, world.regs, world.kis, world.cons, crashed | {pid})
    if world.steps is not None:
        child.steps = [a for a in world.steps if a[1] != pid]
    return child, [Event(-1, "crash", pid)]


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
    """Plays back a recorded action list, copied when the schedule is made,
    then passes each decision to `then`, or offers None without one; `run`
    raises on an illegal action."""

    def __init__(self, actions: list[tuple], then=None):
        self.actions = iter(list(actions))
        self.then = then

    def choose(self, world: World) -> tuple | None:
        action = next(self.actions, None)
        if action is None and self.then is not None:
            return self.then.choose(world)
        return action


# ── Run loop ─────────────────────────────────────────────────────────────────


@dataclass
class RunResult:
    trace: Trace
    actions: list[tuple]


def _stamp(events: list[Event], new_events: list[Event]) -> None:
    """Number `new_events` on from the end of `events` and append them: the
    one place a run or a walk gives its events their `step`."""
    step = len(events)
    for e in new_events:
        e.step = step
        step += 1
    events += new_events


_CRASHED = (CRASHED,)
_BLOCKED = (BLOCKED,)


def finalize_trace(
    instance: Instance, world: World, events: list[Event], *, truncated: bool
) -> Trace:
    """Close a run of `instance` with each pid's outcome, in pid order: a
    process that neither crashed nor returned is blocked, in a truncated
    run too, where only the `truncated` flag tells it from one that can
    never move."""
    crashed = world.crashed
    outcomes: dict[int, tuple] = {}
    for pid, p in enumerate(world.procs, 1):
        if pid in crashed:
            outcomes[pid] = _CRASHED
        elif p.step is None:
            outcomes[pid] = (RETURNED, p.value)
        else:
            outcomes[pid] = _BLOCKED
    return Trace(
        n=instance.n,
        t=instance.t,
        k=instance.k,
        events=events,
        outcomes=outcomes,
        truncated=truncated,
        meta=dict(instance.meta),
    )


def run(
    instance: Instance, schedule, *, step_bound: int = DEFAULT_STEP_BOUND
) -> RunResult:
    """Run one schedule to quiescence/completion; every action, crashes
    included, comes from `schedule.choose`.

    The run ends truncated when `step_bound` scheduler actions have been
    applied and the schedule still offers another, or when the schedule
    stops while a step or commit is still enabled (a replayed prefix)."""
    world, events = initial_world(instance)
    actions: list[tuple] = []
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
        _stamp(events, evs)
        actions.append(action)
    trace = finalize_trace(instance, world, events, truncated=truncated)
    return RunResult(trace=trace, actions=actions)


def run_random(
    instance: Instance, seed: int, *, step_bound: int = DEFAULT_STEP_BOUND
) -> RunResult:
    """Seeded random run. The seed first samples how many processes may
    crash, up to the budget t, and which; then it drives `RandomSchedule`."""
    rng = random.Random(seed)
    count = rng.randint(0, instance.t) if instance.t else 0
    victims = tuple(sorted(rng.sample(range(1, instance.n + 1), count)))
    return run(instance, RandomSchedule(rng, victims), step_bound=step_bound)
