"""Engine-level tests: determinism, interleaving counts, crash budget,
quiescence, trace and schedule round-trips, exploration soundness."""

from __future__ import annotations

import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kisnap import (
    Instance,
    ReplaySchedule,
    SimError,
    enumerate_runs,
    make_instance,
    run,
    run_random,
    standard_reports,
    trace_from_jsonl,
    trace_to_jsonl,
    validate_trace,
)
from kisnap import core, explore
from kisnap.core import (
    RandomSchedule,
    apply_action,
    commit_candidates,
    enabled_commit_actions,
    enabled_step_actions,
    initial_world,
)
from kisnap.objects import kis_once
from kisnap.primitives import (
    BOTTOM,
    Announce,
    ConsProposeStep,
    KisInvokeStep,
    ScanStep,
    WriteStep,
)
from kisnap.reductions import CATALOG
from kisnap.simulation import build_simulation

from conftest import (
    toy_instance,
    toy_kis_then_write,
    toy_one_write,
    toy_two_writes,
    toy_write_scan,
)


# ── Exhaustive interleaving counts ──────────────────────────────────────────


def test_two_processes_two_steps_each_gives_six_literal_runs():
    """2 processes x 2 steps: C(4,2) = 6 interleavings, enumerated literally."""
    inst = toy_instance(toy_two_writes)
    assert sum(1 for _ in enumerate_runs(inst, reduced=False)) == 6


def test_two_processes_one_step_each_gives_two_literal_runs():
    inst = toy_instance(toy_one_write)
    assert sum(1 for _ in enumerate_runs(inst, reduced=False)) == 2


def test_depth_bound_counts_actions():
    """Every maximal run of two toy_two_writes processes takes 4 actions
    (one write event each): a bound of 3 cuts all 6, a bound of 4 none."""
    inst = toy_instance(toy_two_writes)
    cut = list(enumerate_runs(inst, depth_bound=3))
    assert [(tr.truncated, len(tr.events)) for tr in cut] == [(True, 3)] * 6
    whole = list(enumerate_runs(inst, depth_bound=4))
    assert [(tr.truncated, len(tr.events)) for tr in whole] == [(False, 4)] * 6


def test_reduction_collapses_independent_programs_to_one_run():
    """All steps commute (distinct SWMR cells), so one representative
    interleaving suffices."""
    inst = toy_instance(toy_two_writes)
    assert sum(1 for _ in enumerate_runs(inst, reduced=True)) == 1


def test_reduced_alg1_explore_call_pattern(monkeypatch):
    """The counts the benchmark's explore counters take at the
    `kisnap.explore` bindings, pinned at a cheap cell: one
    `enabled_step_actions` call per DFS node, one `crash_candidates` call
    per interior node, and `action_footprint` calls at every interior node
    that has a live action; the rest are sleep-blocked. The benchmark's
    apply and finalize layers time the walk's `apply_action` calls, one per
    transition, and its `finalize_trace` calls, one per leaf."""
    calls = dict.fromkeys(
        ("enabled_step_actions", "crash_candidates", "apply_action", "finalize_trace"),
        0,
    )
    footprinted = set()  # interior nodes, by index, that took a footprint

    def count(attr):
        fn = getattr(explore, attr)

        def counted(*args, **kwargs):
            if attr in calls:
                calls[attr] += 1
            else:
                footprinted.add(calls["crash_candidates"])
            return fn(*args, **kwargs)

        monkeypatch.setattr(explore, attr, counted)

    for attr in (*calls, "action_footprint"):
        count(attr)
    inst = make_instance("alg1", 3, 2, 2)
    leaves = sum(1 for _ in enumerate_runs(inst, reduced=True))
    interior = calls["crash_candidates"]
    assert (leaves, calls["enabled_step_actions"], interior) == (2140, 7805, 5665)
    assert interior - len(footprinted) == 1800
    assert (calls["apply_action"], calls["finalize_trace"]) == (7804, 2140)


def _outcome_summary(trace):
    return tuple(sorted(trace.outcomes.items(), key=repr))


def test_reduced_exploration_preserves_outcome_sets():
    """Order-sensitive program (write then scan): the reduced search must
    reach exactly the literal set of outcome combinations."""
    inst = toy_instance(toy_write_scan, n=3, t=1, arrays=("a",))
    literal = [_outcome_summary(tr) for tr in enumerate_runs(inst, reduced=False)]
    reduced = [_outcome_summary(tr) for tr in enumerate_runs(inst, reduced=True)]
    assert set(reduced) == set(literal)
    assert len(reduced) <= len(literal)


def test_reduced_exploration_matches_literal_for_oracle_algorithm():
    inst = make_instance("kis_oracle", 3, 1, 1)
    literal = {_outcome_summary(tr) for tr in enumerate_runs(inst, reduced=False)}
    reduced = {_outcome_summary(tr) for tr in enumerate_runs(inst, reduced=True)}
    assert reduced == literal


def _run_count_and_outcomes(traces) -> tuple[int, set]:
    runs, outcomes = 0, set()
    for tr in traces:
        runs += 1
        outcomes.add(_outcome_summary(tr))
    return runs, outcomes


def _assert_walks_agree(inst, runs: tuple[int, int], outcomes: int) -> None:
    """The literal and the reduced walk of `inst` take the pinned numbers
    of runs and reach the same `outcomes` outcome combinations."""
    literal_runs, literal = _run_count_and_outcomes(enumerate_runs(inst))
    reduced_runs, reduced = _run_count_and_outcomes(
        enumerate_runs(inst, reduced=True)
    )
    assert (literal_runs, reduced_runs) == runs
    assert reduced == literal
    assert len(literal) == outcomes


@pytest.mark.slow
@pytest.mark.parametrize(
    "algo,ntk,runs,outcomes",
    [
        ("alg2", (3, 1, 1), (20652, 306), 16),
        ("is_impl", (3, 1, None), (89274, 4741), 37),
    ],
    ids=["alg2", "is_impl"],
)
def test_reduced_exploration_matches_literal_for_catalog(algo, ntk, runs, outcomes):
    """Consensus proposals (alg2) and the register-level immediate snapshot
    (both) under the reduction reach the outcomes of every interleaving."""
    _assert_walks_agree(make_instance(algo, *ntk), runs, outcomes)


def _checked_outcomes(traces) -> tuple[int, set]:
    """Run count and outcome set of a walk; every run must pass its standard
    checks and be well formed."""
    runs, outcomes = 0, set()
    for tr in traces:
        runs += 1
        assert not tr.truncated
        assert [r.failures() for r in standard_reports(tr) if not r.passed] == []
        assert validate_trace(tr) == []
        outcomes.add(_outcome_summary(tr))
    return runs, outcomes


@pytest.mark.slow
def test_reduced_exploration_matches_literal_for_alg1():
    """The sleep-set reduction of alg1 at (3,1,1) reaches exactly the
    outcomes of every interleaving, and all runs of both walks pass."""
    inst = make_instance("alg1", 3, 1, 1)
    literal_runs, literal = _checked_outcomes(enumerate_runs(inst, reduced=False))
    reduced_runs, reduced = _checked_outcomes(enumerate_runs(inst, reduced=True))
    assert (literal_runs, reduced_runs) == (30120, 139)
    assert reduced == literal


# ── Determinism and round-trips ──────────────────────────────────────────────


def test_same_seed_gives_bit_identical_traces():
    inst = make_instance("alg1", 4, 2, 2)
    a = trace_to_jsonl(run_random(inst, 42).trace)
    b = trace_to_jsonl(run_random(inst, 42).trace)
    assert a == b


def test_seeds_differ():
    inst = make_instance("alg1", 4, 2, 2)
    texts = {trace_to_jsonl(run_random(inst, s).trace) for s in range(20)}
    assert len(texts) > 1


def test_trace_jsonl_roundtrip_is_byte_identical():
    inst = make_instance("alg2", 3, 1, 1)
    trace = run_random(inst, 7).trace
    text = trace_to_jsonl(trace)
    assert trace_to_jsonl(trace_from_jsonl(text)) == text
    # Blank lines, between events or anywhere else, are skipped.
    assert trace_from_jsonl(text.replace("\n", "\n\n  \n")) == trace


def test_roundtrip_preserves_views_and_outcomes():
    inst = make_instance("kis_oracle", 3, 1, 1)
    trace = run_random(inst, 3).trace
    back = trace_from_jsonl(trace_to_jsonl(trace))
    assert back.outcomes == trace.outcomes
    assert back.decisions() == trace.decisions()
    for e, f in zip(trace.events, back.events):
        assert (e.step, e.kind, e.pid, e.obj, e.op, e.args, e.ret) == (
            f.step, f.kind, f.pid, f.obj, f.op, f.args, f.ret,
        )


def test_recorded_actions_replay_to_identical_trace():
    """A run's actions are its whole schedule, crashes made before the
    seed takes over included: a plain replay of them gives the bytes."""
    inst = make_instance("alg1", 4, 2, 3)
    crash_first = ReplaySchedule([("crash", 2)], RandomSchedule(random.Random(3), ()))
    for res in (run_random(inst, 11), run(inst, crash_first)):
        replayed = run(inst, ReplaySchedule(res.actions))
        assert trace_to_jsonl(replayed.trace) == trace_to_jsonl(res.trace)
    assert res.actions[0] == ("crash", 2) and len(res.actions) > 1


def test_replayed_prefix_is_truncated_not_blocked():
    """A schedule that stops while a step or commit is still enabled ends
    the run truncated, not quiescent. Crashes alone never enable
    anything, so a prefix is cut short exactly when the rest of the recorded
    schedule holds a step or commit."""
    inst = make_instance("alg1", 4, 2, 3)
    actions = run_random(inst, 11).actions
    for cut in range(len(actions) + 1):
        trace = run(inst, ReplaySchedule(actions[:cut])).trace
        cut_short = any(a[0] != "crash" for a in actions[cut:])
        assert trace.truncated == cut_short, cut
        if cut_short:
            assert not trace.quiescent


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    algo=st.sampled_from(["alg1", "alg2", "kis_oracle", "is_impl"]),
)
def test_random_runs_produce_wellformed_traces(seed, algo):
    """Every seeded run yields a trace the well-formedness validator accepts:
    monotone steps, silence after crash, respond-after-invoke, crash budget,
    single-writer register consistency."""
    inst = make_instance(algo, 3, 1, 1)
    trace = run_random(inst, seed).trace
    assert validate_trace(trace) == []
    assert not trace.truncated


# ── Crash semantics ──────────────────────────────────────────────────────────


def test_crash_budget_is_enforced():
    inst = toy_instance(toy_two_writes, n=3, t=1)
    world, _ = initial_world(inst)
    world, _ = apply_action(world, ("crash", 1))
    with pytest.raises(SimError):
        apply_action(world, ("crash", 2))


def test_crashed_process_cannot_step_or_crash_again():
    inst = toy_instance(toy_two_writes, n=3, t=2)
    world, _ = initial_world(inst)
    world, _ = apply_action(world, ("crash", 1))
    with pytest.raises(SimError):
        apply_action(world, ("step", 1))
    with pytest.raises(SimError):
        apply_action(world, ("crash", 1))


def test_crashed_process_emits_no_further_events():
    inst = make_instance("alg1", 4, 2, 2)
    crashes = 0
    for seed in range(20):
        trace = run_random(inst, seed).trace
        for pid in trace.crashed_pids():
            crashes += 1
            crash_step = next(
                e.step for e in trace.events if e.kind == "crash" and e.pid == pid
            )
            later = [e for e in trace.events if e.pid == pid and e.step > crash_step]
            assert later == []
    assert crashes > 0


@pytest.mark.parametrize("action", [("step", 0), ("step", 4), ("crash", 0), ("crash", 4)])
def test_action_on_unknown_pid_is_rejected(action):
    """A schedule naming no process must not act on another one."""
    world, _ = initial_world(toy_instance(toy_two_writes, n=3, t=2))
    with pytest.raises(SimError):
        apply_action(world, action)


def test_unknown_action_kind_is_rejected():
    world, _ = initial_world(toy_instance(toy_two_writes, n=3, t=2))
    with pytest.raises(SimError, match=r"unknown action \('jump', 1\)"):
        apply_action(world, ("jump", 1))


def test_returned_process_cannot_be_crashed():
    inst = toy_instance(toy_one_write, n=2, t=1, arrays=("a",))
    world, _ = initial_world(inst)
    world, _ = apply_action(world, ("step", 1))  # p1 returns
    with pytest.raises(SimError):
        apply_action(world, ("crash", 1))


class _ScanSubclass(ScanStep):
    """Not one of the step classes a program may yield."""


def _yields_scan_subclass(ctx):
    yield _ScanSubclass("a", min_filled=ctx.n + 1)  # a guard never met


def test_step_subclass_is_an_unknown_step():
    """Steps dispatch on exact type: a subclass of a step class is stepped
    as an unknown step and raises, instead of running without its guard
    or blocking on the guard it inherits."""
    programs = {pid: _yields_scan_subclass for pid in (1, 2)}
    inst = Instance(2, 0, None, programs, arrays=("a",))
    with pytest.raises(SimError, match=r"process [12] yielded an unknown step"):
        run_random(inst, 0)
    with pytest.raises(SimError, match=r"process [12] yielded an unknown step"):
        sum(1 for _ in enumerate_runs(inst))


def _yields(ctx, step):
    yield step


@pytest.mark.parametrize(
    "step, message",
    [
        (WriteStep("nope", 1), "unknown register array 'nope'"),
        (ScanStep("nope"), "unknown register array 'nope'"),
        (KisInvokeStep("nope", 1), "unknown k-IS object 'nope'"),
        (ConsProposeStep("nope", 1), "unknown consensus object 'nope'"),
    ],
    ids=["write", "scan", "invoke", "propose"],
)
def test_step_on_an_undeclared_array_is_rejected(step, message):
    """A step on an array or object the instance does not declare."""
    programs = {pid: partial(_yields, step=step) for pid in (1, 2)}
    inst = Instance(2, 0, None, programs, arrays=("a",))
    with pytest.raises(SimError, match=message):
        run_random(inst, 0)
    with pytest.raises(SimError, match=message):
        sum(1 for _ in enumerate_runs(inst, reduced=True))


def test_commit_on_an_undeclared_object_is_rejected():
    world, _ = initial_world(toy_instance(toy_one_write))
    with pytest.raises(SimError, match="unknown k-IS object 'nope'"):
        apply_action(world, ("commit", "nope", (1,)))


# ── Parked processes and world equality ─────────────────────────────────────


def test_parked_process_is_enabled_again_only_after_its_commit():
    """A process that invoked a k-IS object keeps its invoke step but cannot
    take it until the adversary commits a batch that includes it."""
    programs = {pid: partial(toy_kis_then_write, value=pid) for pid in (1, 2)}
    inst = Instance(2, 0, 1, programs, arrays=("a",), kis_objects=("kis",))
    world, _ = initial_world(inst)
    world, _ = apply_action(world, ("step", 1))
    assert enabled_step_actions(world) == [("step", 2)]
    refused = "step guard not satisfied for process 1"
    with pytest.raises(SimError, match=refused):
        apply_action(world, ("step", 1))
    world, _ = apply_action(world, ("step", 2))
    assert enabled_step_actions(world) == []
    world, _ = apply_action(world, ("commit", "kis", (2,)))
    assert enabled_step_actions(world) == [("step", 2)]
    with pytest.raises(SimError, match=refused):
        apply_action(world, ("step", 1))
    world, _ = apply_action(world, ("commit", "kis", (1,)))
    assert enabled_step_actions(world) == [("step", 1), ("step", 2)]


def test_commit_actions_come_in_object_name_order():
    """Objects declared out of name order still offer their commits by
    name, the order the menu and the reduced walk depend on."""
    programs = {
        1: partial(kis_once, obj="b", value=1),
        2: partial(kis_once, obj="a", value=2),
    }
    inst = Instance(2, 0, 1, programs, kis_objects=("b", "a"))
    world, _ = initial_world(inst)
    for pid in (1, 2):
        world, _ = apply_action(world, ("step", pid))
    assert enabled_commit_actions(world) == [
        ("commit", "a", (2,)),
        ("commit", "b", (1,)),
    ]


def test_worlds_reached_in_either_order_are_equal():
    """Program states are memoized per step result, so commuting steps lead
    to the same nodes and equal worlds within one walk."""
    world, _ = initial_world(toy_instance(toy_two_writes))
    w1, _ = apply_action(world, ("step", 1))
    w12, _ = apply_action(w1, ("step", 2))
    w2, _ = apply_action(world, ("step", 2))
    w21, _ = apply_action(w2, ("step", 1))
    assert w12 == w21
    assert all(a is b for a, b in zip(w12.procs, w21.procs))
    assert w1 != w2
    # The step menu memo is private: a world whose memo is filled equals
    # and prints as one whose memo is not, and the caller's list is a copy.
    menu = enabled_step_actions(w12)
    assert w12.steps is not None and w21.steps is None
    assert w12 == w21
    assert repr(w12) == repr(w21)
    menu += [("crash", 1)]
    assert enabled_step_actions(w12) == enabled_step_actions(w21) == [
        ("step", 1),
        ("step", 2),
    ]


# ── Quiescence vs truncation ─────────────────────────────────────────────────


def test_blocked_run_is_quiescent_by_its_outcomes():
    """k < t naive attempt: crash t processes first, survivors block forever;
    the run must end quiescent, not truncated, its blocked processes stated
    by their outcomes alone."""
    inst = make_instance("naive", 4, 2, 1)
    crashes = [("crash", 1), ("crash", 2)]
    res = run(inst, ReplaySchedule(crashes, RandomSchedule(random.Random(0), ())))
    trace = res.trace
    assert trace.quiescent and not trace.truncated
    assert trace.outcomes == {
        1: ("crashed",), 2: ("crashed",), 3: ("blocked",), 4: ("blocked",)
    }
    assert not any(e.kind == "blocked" for e in trace.events)


def test_step_bound_truncates_instead_of_hanging():
    inst = make_instance("alg1", 3, 1, 1)
    res = run_random(inst, 1, step_bound=4)
    trace = res.trace
    assert len(res.actions) == 4
    assert trace.truncated and not trace.quiescent


def test_terminating_run_is_neither_blocked_nor_truncated():
    inst = make_instance("alg1", 3, 1, 1)
    trace = run_random(inst, 9).trace
    assert not trace.truncated
    assert all(o[0] in ("returned", "crashed") for o in trace.outcomes.values())


# ── Exploration with crashes ─────────────────────────────────────────────────


def test_exploration_branches_crashes_within_budget():
    """With t=1 the exhaustive tree includes runs with zero and one crash,
    never more."""
    inst = make_instance("kis_oracle", 3, 1, 1)
    counts = set()
    for tr in enumerate_runs(inst, reduced=False):
        counts.add(len(tr.crashed_pids()))
        assert len(tr.crashed_pids()) <= 1
    assert counts == {0, 1}


def test_replay_rejects_disabled_action():
    inst = make_instance("kis_oracle", 3, 1, 1)
    # Committing before anyone invoked is illegal.
    with pytest.raises(Exception):
        run(inst, ReplaySchedule([("commit", "kis", (1, 2))]))


# ── Program states against from-scratch replay ───────────────────────────────


def _replayed(node):
    """(announces, step, return value) of `node`'s program after its
    history, rebuilt from a fresh generator."""
    gen = node.program(node.ctx)
    announces = []
    try:
        item = next(gen)
        for h in node.history:
            while isinstance(item, Announce):
                item = gen.send(None)
            item = gen.send(h)
        while isinstance(item, Announce):
            announces.append(item)
            item = gen.send(None)
    except StopIteration as stop:
        return tuple(announces), None, stop.value
    return tuple(announces), item, None


def _assert_states_replay(world):
    for node in world.procs:
        replayed = _replayed(node)
        assert (node.announces, node.step, node.value) == replayed
        assert type(node.step) is type(replayed[1])  # records compare as tuples


@pytest.fixture
def checked_worlds(monkeypatch):
    """Check every world that `run` and `enumerate_runs` build; gives a
    function returning the number of worlds checked so far."""
    checked = [0]

    def check(world):
        _assert_states_replay(world)
        checked[0] += 1

    def initial(instance):
        world, events = initial_world(instance)
        check(world)
        return world, events

    def apply(world, action):
        world, events = apply_action(world, action)
        check(world)
        return world, events

    for module in (core, explore):
        monkeypatch.setattr(module, "initial_world", initial)
        monkeypatch.setattr(module, "apply_action", apply)
    return lambda: checked[0]


SEEDED_CELLS = {
    "alg1": (5, 2, 3),
    "alg1_variant": (5, 2, 3),
    "alg2": (5, 2, 2),
    "naive": (4, 2, 1),
    "alg1_over_alg2": (5, 2, 2),
    "kis_oracle": (4, 1, 2),
    "is_impl": (3, 1, None),
    "cons_oracle": (4, 1, 2),
}


def test_seeded_cells_cover_the_catalog():
    assert set(SEEDED_CELLS) == set(CATALOG)


@pytest.mark.parametrize("algo", sorted(SEEDED_CELLS))
def test_seeded_program_states_match_replay(algo, checked_worlds):
    inst = make_instance(algo, *SEEDED_CELLS[algo])
    for seed in range(6):
        run_random(inst, seed)
    assert checked_worlds() > 6


def test_simulator_program_states_match_replay(checked_worlds):
    inst = build_simulation(4, 2, 2)
    for seed in range(4):
        run_random(inst, seed)
    assert checked_worlds() > 4


@pytest.mark.parametrize("algo", ["alg1", "alg2"])
def test_literal_walk_program_states_match_replay(algo, checked_worlds, monkeypatch):
    """Sibling branches of a literal walk hand one program state different
    step results, so all but the first rebuild the program by replay."""
    replays = [0]
    original = core._replay

    def replay(*args):
        replays[0] += 1
        return original(*args)

    monkeypatch.setattr(core, "_replay", replay)
    inst = make_instance(algo, 3, 1, 1)
    runs = sum(1 for _ in enumerate_runs(inst, depth_bound=7))
    assert runs > 100
    assert checked_worlds() > runs
    assert replays[0] > 0


_starts = [0]  # instantiations of `_forgets_on_replay`


def _forgets_on_replay(ctx, writes):
    """Writes `writes` times on its first instantiation; returns at once on
    any later one, so a replay of its history cannot be fed."""
    _starts[0] += 1
    if _starts[0] == 1:
        for _ in range(writes):
            yield WriteStep("a", 1)


def test_replay_of_a_program_that_ends_early_names_the_process():
    """A second result at a state rebuilds its generator by replaying the
    state's history: the empty history at the root, or one result at the
    second state, which the replayed program returns before taking."""
    for writes in (1, 2):
        _starts[0] = 0
        program = partial(_forgets_on_replay, writes=writes)
        node = core.program_root(program, core.Ctx(2, 0, None, 2))
        for _ in range(writes - 1):
            node = node.after("first")
        assert node.after("first").step is None
        with pytest.raises(SimError, match="program of p2 ended before consuming"):
            node.after("second")


# ── Per-decision reuse: shared guard verdicts and the commit menu ────────────


def _step_actions_by_definition(world):
    """`enabled_step_actions` by the model, each process on its own: a scan
    waits until `min_filled` cells of its array are filled, and an invoke
    waits while its process is pending in the k-IS object."""
    out = []
    for pid, p in enumerate(world.procs, 1):
        step = p.step
        if step is None or pid in world.crashed:
            continue
        if type(step) is ScanStep:
            filled = sum(cell is not BOTTOM for cell in world.regs[step.array])
            if filled < step.min_filled:
                continue
        elif type(step) is KisInvokeStep:
            if pid in world.kis[step.obj].pending:
                continue
        out.append(("step", pid))
    return out


def _toy_two_scans(ctx, value):
    """Write, then scan `a`: odd pids once one cell is filled, even pids
    once every cell is, so neighbours wait on records that share the
    array and differ in `min_filled`."""
    yield WriteStep("a", value)
    cells = yield ScanStep("a", 1 if ctx.pid % 2 else ctx.n)
    return cells


@pytest.fixture
def step_menus_by_definition(monkeypatch):
    """Compare every `enabled_step_actions` result the schedule or the walk
    asks for with the per-process reference; gives the number of worlds
    compared, by their number of crashed processes."""
    compared = Counter()
    shared = core.enabled_step_actions

    def both(world):
        got = shared(world)
        assert got == _step_actions_by_definition(world)
        compared[len(world.crashed)] += 1
        return got

    for module in (core, explore):
        monkeypatch.setattr(module, "enabled_step_actions", both)
    return compared


# The seeded benchmark's cells: alg1 across the n=11 sweep, and the
# replayed composition.
BENCHMARK_CELLS = [
    ("alg1", (11, 1, 1)),
    ("alg1", (11, 5, 7)),
    ("alg1", (11, 10, 10)),
    ("alg1_over_alg2", (7, 3, 3)),
]


@pytest.mark.parametrize(
    "algo,ntk",
    [pytest.param(algo, SEEDED_CELLS[algo], id=algo) for algo in sorted(SEEDED_CELLS)]
    + [
        pytest.param(algo, ntk, id="{}_{}_{}_{}".format(algo, *ntk))
        for algo, ntk in BENCHMARK_CELLS
    ],
)
def test_shared_guard_verdicts_match_per_process_guards(
    algo, ntk, step_menus_by_definition
):
    inst = make_instance(algo, *ntk)
    for seed in range(12):
        run_random(inst, seed)
    assert step_menus_by_definition.total() > 12


def test_shared_guard_verdicts_match_for_the_simulator(step_menus_by_definition):
    """Two simulators invoke the lifted 1-IS mediators, whose guard refuses
    a simulator parked in the mediator's pending set."""
    inst = build_simulation(4, 2, 2)
    for seed in range(6):
        run_random(inst, seed)
    assert step_menus_by_definition.total() > 6


def test_shared_guard_verdicts_tell_scans_of_one_array_apart(step_menus_by_definition):
    inst = toy_instance(_toy_two_scans, n=5, t=1, arrays=("a",))
    outcomes = set()
    for seed in range(40):
        trace = run_random(inst, seed).trace
        outcomes.add(tuple(o[0] for o in trace.outcomes.values()))
    assert step_menus_by_definition.total() > 40
    # Runs where a victim crashed before its write end with the even pids
    # blocked: their scans were refused while their odd neighbours' were not.
    assert any("blocked" in o for o in outcomes)


def test_apply_action_rechecks_a_scan_guard():
    """A scan refused by its guard is refused when it is applied, whether
    or not the world's step menu was asked for, and when a replay plays it."""
    inst = toy_instance(_toy_two_scans, n=5, t=1, arrays=("a",))
    schedule = [("step", 1), ("step", 2), ("step", 2)]
    world, _ = initial_world(inst)
    for action in schedule[:2]:
        world, _ = apply_action(world, action)
    # p2 has written and scans with min_filled=5; two cells are filled.
    assert world.procs[1].step == ScanStep("a", 5)
    message = "step guard not satisfied for process 2"
    with pytest.raises(SimError, match=message):
        apply_action(world, ("step", 2))
    assert ("step", 2) not in enabled_step_actions(world)
    with pytest.raises(SimError, match=message):
        apply_action(world, ("step", 2))
    with pytest.raises(SimError, match=message):
        run(inst, ReplaySchedule(schedule))


@pytest.mark.parametrize(
    "algo,ntk,nodes",
    [
        ("alg1", (3, 2, 2), 7805),
        ("alg1_variant", (3, 2, 2), 11465),
        ("kis_oracle", (4, 2, 2), 1615),
    ],
)
def test_walk_step_menus_match_per_process_guards(
    algo, ntk, nodes, step_menus_by_definition
):
    """Every node of a reduced walk, where a crash child takes its parent's
    menu less the crashed pid. With t = 2, crash children of crash children
    are compared too."""
    sum(1 for _ in enumerate_runs(make_instance(algo, *ntk), reduced=True))
    assert step_menus_by_definition.total() == nodes
    assert step_menus_by_definition[2] > 0


class _CommitsEveryCall(RandomSchedule):
    """`RandomSchedule` by its definition: the commit candidates of every
    world, asked for afresh on every call."""

    def choose(self, world):
        menu = enabled_step_actions(world)
        commits = commit_candidates(world)
        if not menu and not commits:
            return None
        menu += [("commit?", obj, pending, need) for obj, pending, need in commits]
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
        return ("commit", obj, tuple(sorted(self.rng.sample(pending, size))))


@pytest.mark.parametrize("algo", ["alg1", "alg1_variant", "kis_oracle"])
def test_reused_commit_menu_chooses_as_a_fresh_one(algo, monkeypatch):
    inst = make_instance(algo, *SEEDED_CELLS[algo])
    reused = [run_random(inst, seed).actions for seed in range(200)]
    monkeypatch.setattr(core, "RandomSchedule", _CommitsEveryCall)
    fresh = [run_random(inst, seed).actions for seed in range(200)]
    assert reused == fresh
    assert sum(a[0] == "commit" for run in fresh for a in run) > 200
