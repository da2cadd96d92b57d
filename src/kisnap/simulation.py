"""Two-simulator emulation of a k-IS-based algorithm.

Two simulators Q0, Q1 (outer pids 1, 2; at most one may crash) jointly run
`INNER_ALGO`, an inner n-process algorithm whose only shared objects are
k-IS objects.
The inner processes are split into A0 and A1 with |A0| = |A1| = n-t; when
2t > n the remaining 2t-n processes are initially crashed. Simulator Qi
runs its members A_i one stage per inner k-IS object o, with an outer
SWMR register REG[i][o] (array "sim.o") and a shared one-shot
1-immediate-snapshot object ("med.o", 2 processes):

* a stage starts with every member waiting on o; the simulator announces
  their invokes in member order, runs their proposal set through med.o,
  takes the union U of the proposal sets in the returned view and writes
  it to REG[i][o];
* then, member by member, it writes U to REG[i][o] again, answers the
  member with U and advances the member's program.

U holds every member's pair, since the mediator's view includes the
simulator's own proposal set. Information crosses between the simulators
only through the mediators: nothing reads the registers. The writes are
the protocol's crash points: each member's answer is preceded by its own
outer step, so a simulator crash can fall between two members' answers,
leaving some of its members returned and the others crashed. Without
those steps a crashed simulator's members would all share one fate.

Every member of `INNER_ALGO` invokes the same objects in the same order,
so every stage finds all members on one object. A stage that finds them
on different objects, or some finished and others not, raises
`SimError`; a program that invokes an object twice reaches its mediator
twice, which raises `ObjectError`. All members finish in the same stage,
and the simulator decides what the first of them returned. The crash of
a simulator silently crashes all its unfinished members; that is sound
because |D| + |A_i| = t, the inner crash budget.

Inner-level invoke/respond events are embedded in the outer trace under
object ids prefixed "inner."; `extract_inner_trace` recovers a standalone
inner trace (synthesizing the implied crash events) on which the k-IS
checkers run unchanged, and `max_concurrent_inside` evaluates the witness
that some instant had at least n-k processes inside a k-IS operation, which
is what forces information to cross between the simulators.
"""

from __future__ import annotations

from functools import partial

from .checkers import CheckReport, Verdict, check_is, object_history
from .core import Ctx, Instance, ProgramState, SimError, program_root
from .primitives import Announce, KisInvokeStep, WriteStep
from .reductions import CATALOG, XSA_OBJ
from .trace import BLOCKED, CRASHED, INNER_PREFIX, RETURNED, Event, Trace

SIM_OBJ = "sim"

# The simulated algorithm: of the catalog, only it uses k-IS objects alone
# and decides through XSA_OBJ, as the simulation requires.
INNER_ALGO = "alg1_variant"


def sim_array(obj: str) -> str:
    return f"sim.{obj}"


def mediator(obj: str) -> str:
    return f"med.{obj}"


# ── Partitions ───────────────────────────────────────────────────────────────


def make_partition(n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Split of the inner pids into (A0, A1, D): the two simulated groups,
    |A0| = |A1| = n-t, and the last 2t-n pids, which crash initially.

    Requires n <= 2t (so the two groups cover the crash budget) and
    t <= n-1 (so the groups are non-empty). For n = 2t this is the balanced
    split with D empty.
    """
    if not (n / 2 <= t <= n - 1):
        raise SimError(
            f"two-simulator partition needs n/2 <= t <= n-1, got n={n} t={t}"
        )
    size = n - t
    return (
        tuple(range(1, size + 1)),
        tuple(range(size + 1, 2 * size + 1)),
        tuple(range(2 * size + 1, n + 1)),
    )


# ── The simulator program ────────────────────────────────────────────────────


def q_simulator(ctx, members, inner_n, inner_t, inner_k, inner_prog, value):
    """One simulator: one stage per inner k-IS object, all members at once.

    All members run `inner_prog`, the inner algorithm's generator function
    of (ctx, value), and propose the simulator's own input `value` (the
    simulation forwards one proposal per simulator, not per member). Inner
    programs may only interact through k-IS invocations; any other shared
    step raises. Each member's program state comes from `core.program_root`
    and `ProgramState.after`, the mechanism the core uses for processes,
    with its own graph that lives as long as this generator.

    A stage starts with every member waiting on one object o. It announces
    their invokes in member order, runs their proposal set through o's
    mediator and publishes the union U of the returned view; then, member
    by member, it publishes U again, answers the member with U and
    advances its program. So all members finish in the same stage, and the
    simulator decides what the first of them returned.
    """
    yield Announce("invoke", SIM_OBJ, "simulate", args=value)
    inner = partial(inner_prog, value=value)
    nodes: dict[int, ProgramState] = {}

    def absorb(p, node):
        """Make `node` member p's program state and emit its announces."""
        nodes[p] = node
        for a in node.announces:
            yield Announce(a.kind, INNER_PREFIX + a.obj, a.op, a.args, a.ret, pid=p)

    for p in members:
        yield from absorb(p, program_root(inner, Ctx(inner_n, inner_t, inner_k, p)))

    while any(nodes[p].step is not None for p in members):
        steps = {p: nodes[p].step for p in members}
        for p, step in steps.items():
            if step is not None and type(step) is not KisInvokeStep:
                raise SimError(
                    f"inner program of p{p} uses unsupported shared step {step!r}; "
                    "only k-IS invocations can be simulated"
                )
        waits = {p: None if step is None else step.obj for p, step in steps.items()}
        if len(set(waits.values())) > 1:
            raise SimError(
                f"members wait on different unpublished objects {waits}; only "
                "programs that invoke their objects in one order can be simulated"
            )
        o = waits[members[0]]
        for p, step in steps.items():
            yield Announce(
                "invoke", INNER_PREFIX + o, "write_snapshot_k", step.value, None, pid=p
            )
        propset = frozenset((p, step.value) for p, step in steps.items())
        med_view = yield KisInvokeStep(mediator(o), propset)
        view: frozenset = frozenset().union(*(s for _, s in med_view))
        yield WriteStep(sim_array(o), view)
        for p in members:
            # Each answer is preceded by its own outer step, so a crash of
            # this simulator can fall between two members' answers.
            yield WriteStep(sim_array(o), view)
            yield Announce(
                "respond", INNER_PREFIX + o, "write_snapshot_k", None, view, pid=p
            )
            yield from absorb(p, nodes[p].after(view))

    result = nodes[members[0]].value
    yield Announce("respond", SIM_OBJ, "simulate", ret=result)
    return result


# ── Building and running simulations ─────────────────────────────────────────


def build_simulation(n: int, t: int, k: int, q_inputs: tuple = (0, 1)) -> Instance:
    """Outer 2-process instance simulating `INNER_ALGO` at (n, t, k), the
    simulators proposing `q_inputs`, one value each.

    The program is read from the catalog at each call. Its k-IS objects are
    lifted into one outer register array and one 2-process 1-IS mediator
    per inner object, and its decisions are the responses of its XSA_OBJ
    object.
    """
    if len(q_inputs) != 2:
        raise SimError(f"two simulators need two inputs, got {len(q_inputs)}")
    groups = make_partition(n, t)
    spec = CATALOG[INNER_ALGO]
    spec.check_range(n, t, k)
    inner_objs = spec.kis
    programs = {
        1 + side: partial(
            q_simulator,
            members=groups[side],
            inner_n=n,
            inner_t=t,
            inner_k=k,
            inner_prog=spec.program,
            value=q_inputs[side],
        )
        for side in (0, 1)
    }
    meta = {
        "algo": "simulation",
        "inner_algo": INNER_ALGO,
        "inner_n": n,
        "inner_t": t,
        "inner_k": k,
        "inner_objects": list(inner_objs),
        "inner_top": XSA_OBJ,
        "partition": [list(group) for group in groups],
        "q_inputs": list(q_inputs),
        "objects": [SIM_OBJ]
        + [sim_array(o) for o in inner_objs]
        + [mediator(o) for o in inner_objs]
        + [INNER_PREFIX + o for o in inner_objs]
        + [INNER_PREFIX + XSA_OBJ],
    }
    return Instance(
        n=2,
        t=1,
        k=None,
        programs=programs,
        arrays=tuple(sim_array(o) for o in inner_objs),
        kis_objects=tuple((mediator(o), 1) for o in inner_objs),
        meta=meta,
    )


def extract_inner_trace(outer: Trace) -> Trace:
    """Recover the simulated processes' trace from an outer simulation trace.

    Copies the embedded inner invoke/respond events (dropping the "inner."
    prefix), synthesizes crash events for the initially crashed group and,
    at the point a simulator crashes, for its members that had not finished
    their whole program. Outcomes: returned if the member's top-level
    respond is present, crashed as above, blocked otherwise. The trace is
    truncated when the outer run was.
    """
    meta = outer.meta
    a0, a1, d = meta["partition"]
    inner_n = meta["inner_n"]
    top = meta.get("inner_top", XSA_OBJ)
    events: list[Event] = []
    returned: dict[int, object] = {}
    crashed: set[int] = set()

    def emit(kind, pid, obj=None, op=None, args=None, ret=None):
        events.append(Event(len(events), kind, pid, obj, op, args, ret))

    for p in d:
        crashed.add(p)
        emit("crash", p)
    for e in outer.events:
        if e.kind == "crash":
            for p in (a0, a1)[e.pid - 1]:
                if p not in returned and p not in crashed:
                    crashed.add(p)
                    emit("crash", p)
            continue
        if e.obj is None or not e.obj.startswith(INNER_PREFIX):
            continue
        obj = e.obj[len(INNER_PREFIX) :]
        emit(e.kind, e.pid, obj, e.op, e.args, e.ret)
        if e.kind == "respond" and obj == top:
            returned[e.pid] = e.ret
    outcomes: dict[int, tuple] = {}
    for p in range(1, inner_n + 1):
        if p in returned:
            outcomes[p] = (RETURNED, returned[p])
        elif p in crashed:
            outcomes[p] = (CRASHED,)
        else:
            outcomes[p] = (BLOCKED,)
    return Trace(
        n=inner_n,
        t=meta["inner_t"],
        k=meta["inner_k"],
        events=events,
        outcomes=outcomes,
        truncated=outer.truncated,
        meta={
            "algo": meta.get("inner_algo"),
            "extracted_from": "simulation",
            "objects": list(meta.get("inner_objects", ())) + [top],
        },
    )


def max_concurrent_inside(trace: Trace, obj: str) -> tuple[int, int | None]:
    """Largest number of processes simultaneously inside an operation on
    `obj`, and a step index where that happens.

    A process is inside from its invoke until its respond; a process that
    never responds (crashed or blocked mid-operation) stays inside. This is
    the quantity the minimum-view lemma bounds from below by n-k whenever
    some operation completes.
    """
    h = object_history(trace, obj)
    deltas: dict[int, int] = {}
    for pid, (_, step) in h.invokes.items():
        deltas[step] = deltas.get(step, 0) + 1
        if pid in h.responds:
            rstep = h.responds[pid][1]
            deltas[rstep] = deltas.get(rstep, 0) - 1
    best, best_step, cur = 0, None, 0
    for step in sorted(deltas):
        cur += deltas[step]
        if cur > best:
            best, best_step = cur, step
    return best, best_step


def check_simulation_trace(outer: Trace) -> list[CheckReport]:
    """Extract the inner trace and check every simulated k-IS object history.
    For an object with responses, its report also carries the
    concurrent-inside witness (Lemma 1, verdict `concurrent_inside`): some
    instant had at least n-k processes inside an operation on it. The
    verdict's text gives the peak and the step where it is first reached,
    whether it passes or fails."""
    inner = extract_inner_trace(outer)
    n, k = inner.n, inner.k
    reports = []
    for obj in outer.meta.get("inner_objects", ()):
        rep = check_is(inner, obj, k=k)
        reports.append(rep)
        if object_history(inner, obj).responds:
            peak, at = max_concurrent_inside(inner, obj)
            ok = peak >= n - k
            rep.verdicts["concurrent_inside"] = Verdict(
                ok,
                f"max {peak} {'>=' if ok else '<'} n-k = {n - k} processes "
                f"inside at once, at step {at}",
            )
    return reports
