"""Two-simulator emulation of a k-IS-based algorithm.

Two simulators Q0, Q1 (outer pids 1, 2; at most one may crash) jointly run
`INNER_ALGO`, an inner n-process algorithm whose only shared objects are
k-IS objects.
The inner processes are split into A0 and A1 with |A0| = |A1| = n-t; when
2t > n the remaining 2t-n processes are initially crashed. Each simulator
round-robins over its members and, per inner k-IS object o, maintains a
proposal buffer and an outer SWMR register REG[i][o] (array "sim.o"):

* once all its members' invocations on o are buffered and nothing is
  published yet, the simulator runs the buffered proposal set through a
  shared one-shot 1-immediate-snapshot object ("med.o", 2 processes), takes
  the union of the proposal sets in the returned view, and publishes it;
* once REG[i][o] is published, a member's invocation is answered with
  REG[i][o] extended by the member's pair (the union is re-published
  first).

Information crosses between the simulators only through the mediators:
a simulator never reads the other's registers. Every member of
`INNER_ALGO` invokes the same objects in the same order, so a pass over
the members in which none can be answered from REG[i] ends with all of
them buffered on one unpublished object, and the mediator runs; a program
whose members wait on different unpublished objects raises `SimError`.

A simulator records the first decision any of its members reaches as its
own decision and returns it once every member has finished. The crash of a
simulator silently crashes all its unfinished members; that is sound
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
    """One simulator: round-robin member service, publish-or-mediate protocol.

    All members run `inner_prog`, the inner algorithm's generator function
    of (ctx, value), and propose the simulator's own input `value` (the
    simulation forwards one proposal per simulator, not per member). Inner
    programs may only interact through k-IS invocations; any other shared
    step raises. Each member's program state comes from `core.program_root`
    and `ProgramState.after`, the mechanism the core uses for processes,
    with its own graph that lives as long as this generator.
    """
    yield Announce("invoke", SIM_OBJ, "simulate", args=value)
    inner = partial(inner_prog, value=value)
    nodes: dict[int, ProgramState] = {}
    decided: list = []  # first inner decision, recorded once

    def absorb(p, node):
        """Make `node` member p's program state and emit its announces."""
        nodes[p] = node
        if node.step is None and not decided:
            decided.append(node.value)
        for a in node.announces:
            yield Announce(a.kind, INNER_PREFIX + a.obj, a.op, a.args, a.ret, pid=p)

    for p in members:
        yield from absorb(p, program_root(inner, Ctx(inner_n, inner_t, inner_k, p)))

    prop: dict[str, dict[int, object]] = {}
    own: dict[str, frozenset] = {}
    ptr = 0

    def pending_op(p):
        step = nodes[p].step
        if type(step) is not KisInvokeStep:
            raise SimError(
                f"inner program of p{p} uses unsupported shared step {step!r}; "
                "only k-IS invocations can be simulated"
            )
        return step.obj, step.value

    while any(nodes[p].step is not None for p in members):
        for off in range(len(members)):
            p = members[(ptr + off) % len(members)]
            if nodes[p].step is None:
                continue
            o, v = pending_op(p)
            if (o not in prop) or (p not in prop[o]):
                prop.setdefault(o, {})[p] = v
                yield Announce(
                    "invoke", INNER_PREFIX + o, "write_snapshot_k", v, None, pid=p
                )
            if o in own:
                # Publish the value extended by p's pair and answer p with it.
                view = own[o] = own[o] | {(p, v)}
                yield WriteStep(sim_array(o), view)
                yield Announce(
                    "respond", INNER_PREFIX + o, "write_snapshot_k", None, view, pid=p
                )
                yield from absorb(p, nodes[p].after(view))
                ptr = (ptr + off + 1) % len(members)
                break
            if len(prop[o]) == len(members):
                # Every member points at o and nothing is published: push the
                # buffered proposals through the shared 1-IS and publish.
                propset = frozenset(sorted(prop[o].items()))
                med_view = yield KisInvokeStep(mediator(o), propset)
                flat: frozenset = frozenset().union(*(s for _, s in med_view))
                yield WriteStep(sim_array(o), flat)
                own[o] = flat
                break
        else:
            waits = {p: nodes[p].step.obj for p in members if nodes[p].step is not None}
            raise SimError(
                f"members wait on different unpublished objects {waits}; only "
                "programs that invoke their objects in one order can be simulated"
            )

    result = decided[0] if decided else None
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
    respond is present, crashed as above, blocked otherwise. As in
    `core.finalize_trace`, the trace is quiescent when some member is
    blocked and the outer run was not truncated.
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
        quiescent=(BLOCKED,) in outcomes.values() and not outer.truncated,
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
    return _check_inner_trace(outer, extract_inner_trace(outer))


def _check_inner_trace(outer: Trace, inner: Trace) -> list[CheckReport]:
    """`check_simulation_trace` on `inner`, the trace already extracted
    from `outer`."""
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
