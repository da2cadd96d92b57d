"""Object catalog tests: k-IS oracle commit semantics, consensus oracle,
and the register-level wait-free immediate snapshot routine."""

from __future__ import annotations

import re
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from kisnap import (
    BOTTOM,
    Instance,
    KisState,
    ObjectError,
    ReplaySchedule,
    SimError,
    build_simulation,
    enumerate_runs,
    make_instance,
    run,
)
from kisnap import core
from kisnap.checkers import check_is, object_history
from kisnap.core import initial_world
from kisnap.objects import consensus_propose, kis_commit_batch, kis_invoke, kis_once
from kisnap.reductions import default_inputs, standard_reports
from kisnap.trace import RETURNED


def invoked(st: KisState, *pairs) -> KisState:
    for pid, v in pairs:
        st = kis_invoke(st, pid, v)
    return st


# ── k-IS oracle: batches, gate, cumulative views ─────────────────────────────


def test_first_batch_must_reach_output_size_floor():
    """n=3, k=1: the first concurrency class needs n-k = 2 members."""
    st = invoked(KisState(2), (1, "a"), (2, "b"), (3, "c"))
    assert st.min_batch_size() == 2
    with pytest.raises(ObjectError):
        kis_commit_batch(st, (1,), frozenset())


def test_commit_releases_cumulative_union_views():
    st = invoked(KisState(2), (1, "a"), (2, "b"), (3, "c"))
    st, view1, rel1 = kis_commit_batch(st, (1, 2), frozenset())
    assert view1 == frozenset({(1, "a"), (2, "b")})
    assert rel1 == [(1, view1), (2, view1)]
    # After 2 committed members the gate admits singletons.
    assert st.min_batch_size() == 1
    st, view2, rel2 = kis_commit_batch(st, (3,), frozenset())
    assert view2 == frozenset({(1, "a"), (2, "b"), (3, "c")})
    assert rel2 == [(3, view2)]
    assert view1 < view2
    assert st.pending == {}
    assert st.view == view2


def test_single_full_batch_gives_everyone_the_same_view():
    st = invoked(KisState(1), (1, 10), (2, 20), (3, 30))
    st, view, rel = kis_commit_batch(st, (1, 2, 3), frozenset())
    assert view == frozenset({(1, 10), (2, 20), (3, 30)})
    assert [p for p, _ in rel] == [1, 2, 3]
    assert all(v == view for _, v in rel)


def test_crashed_batch_member_contributes_but_is_not_released():
    """A crashed pending invocation stays committable: its value enters the
    class (so survivor views satisfy the size floor) but it gets no view."""
    st = invoked(KisState(2), (1, "a"), (2, "b"))
    st, view, rel = kis_commit_batch(st, (1, 2), frozenset({1}))
    assert view == frozenset({(1, "a"), (2, "b")})
    assert rel == [(2, view)]


def test_double_invoke_raises():
    """A second invoke raises whether the pid is pending or already
    committed (in `view`, no longer pending)."""
    st = invoked(KisState(2), (1, "a"), (2, "b"))
    with pytest.raises(ObjectError):
        kis_invoke(st, 1, "again")
    st, _, _ = kis_commit_batch(st, (1, 2), frozenset())
    assert 1 not in st.pending
    with pytest.raises(ObjectError):
        kis_invoke(st, 1, "again")


def test_commit_batch_must_be_pending():
    """Each refusal by its message, and a crashed member that is committed
    but not released."""
    st = invoked(KisState(2), (1, "a"), (2, "b"))
    with pytest.raises(ObjectError, match=r"batch \(2, 3\) not a subset of pending"):
        kis_commit_batch(st, (2, 3), frozenset())
    with pytest.raises(ObjectError, match="empty commit batch"):
        kis_commit_batch(st, (), frozenset())
    with pytest.raises(ObjectError, match="duplicate pids"):
        kis_commit_batch(st, (1, 2, 1), frozenset())
    with pytest.raises(ObjectError, match="batch of 1 violates output-size gate"):
        kis_commit_batch(st, (2,), frozenset())
    st2, view, releases = kis_commit_batch(st, (1, 2), frozenset({2}))
    assert view == frozenset({(1, "a"), (2, "b")})
    assert releases == [(1, view)]
    assert st2.pending == {}
    with pytest.raises(ObjectError, match=r"batch \(1,\) not a subset of pending"):
        kis_commit_batch(st2, (1,), frozenset())  # already committed


def test_simulator_commits_a_batch_in_pid_order():
    """A replayed batch in any order gives the trace of the sorted one: one
    commit event naming the batch sorted, then the releases by pid."""
    programs = {pid: partial(kis_once, obj="kis", value=pid) for pid in (1, 2, 3)}
    inst = Instance(3, 1, 1, programs, kis_objects=(("kis", 1),))
    steps = [("step", 1), ("step", 2), ("step", 3)]
    traces = [
        run(inst, ReplaySchedule([*steps, ("commit", "kis", batch)])).trace
        for batch in ((3, 1, 2), (1, 2, 3))
    ]
    assert traces[0].events == traces[1].events
    commit, *responds = traces[0].events[3:]
    assert commit.args == (1, 2, 3)
    assert [e.pid for e in responds] == [1, 2, 3]


def test_object_parameter_bounds():
    """An instance declares each k-IS object with a k in 1..n-1."""
    programs = {pid: partial(kis_once, obj="kis", value=pid) for pid in (1, 2, 3)}
    for k in (0, 3):
        with pytest.raises(SimError, match="requires 1 <= k <= n-1"):
            Instance(3, 1, k, programs, kis_objects=(("kis", k),))
    for k in (1, 2):
        Instance(3, 1, k, programs, kis_objects=(("kis", k),))


@pytest.mark.parametrize(
    "n,t,pids,message",
    [
        (1, 0, (1,), "need at least 2 processes, got n=1"),
        (3, -1, (1, 2, 3), "0 <= t < n, got t=-1"),
        (3, 3, (1, 2, 3), "0 <= t < n, got t=3"),
        (3, 1, (1, 2), "programs must cover exactly pids 1..n"),
        (3, 1, (0, 1, 2), "programs must cover exactly pids 1..n"),
        (3, 1, (1, 2, 3, 4), "programs must cover exactly pids 1..n"),
    ],
    ids=["n1", "t_negative", "t_n", "pid_missing", "pid_0", "pid_n_plus_1"],
)
def test_instance_parameter_bounds(n, t, pids, message):
    """An instance has n >= 2 processes, a crash budget in 0..n-1 and one
    program for each of pids 1..n."""
    programs = {pid: partial(kis_once, obj="kis", value=pid) for pid in pids}
    with pytest.raises(SimError, match=re.escape(message)):
        Instance(n, t, None, programs)


@pytest.mark.parametrize(
    "objects",
    [
        {"arrays": ("a", "a")},
        {"kis_objects": (("a", 1), ("a", 2))},
        {"cons_objects": ("a", "a")},
        {"arrays": ("a",), "cons_objects": ("a",)},
        {"arrays": ("a",), "kis_objects": (("a", 1),)},
        {"kis_objects": (("a", 1),), "cons_objects": ("a",)},
    ],
    ids=["arrays", "kis", "cons", "array_and_cons", "array_and_kis", "kis_and_cons"],
)
def test_object_id_declared_twice_is_rejected(objects):
    """Two declarations of one id would share, or overwrite, one state."""
    programs = {pid: partial(kis_once, obj="a", value=pid) for pid in (1, 2, 3)}
    with pytest.raises(SimError, match=r"object ids declared twice: \['a'\]"):
        Instance(3, 1, 1, programs, **objects)


@pytest.mark.parametrize(
    "inst, floors",
    [
        (
            Instance(
                3, 1, 1,
                {pid: partial(kis_once, obj="a", value=pid) for pid in (1, 2, 3)},
                kis_objects=(("a", 1), ("b", 2)),
            ),
            {"a": 2, "b": 1},
        ),
        (build_simulation(4, 2, 2), {"med.kis1": 1, "med.kis2": 1}),
    ],
    ids=["toy", "two_simulators"],
)
def test_initial_world_gives_each_object_the_floor_n_minus_k(inst, floors):
    world, _ = initial_world(inst)
    assert {obj: st.floor for obj, st in world.kis.items()} == floors
    assert all(st == KisState(st.floor) for st in world.kis.values())


def test_gate_arithmetic_across_classes():
    """n=5, k=2: floor is 3, so min batch 3, then 1 forever after."""
    st = invoked(KisState(3), *((p, p) for p in range(1, 6)))
    assert st.min_batch_size() == 3
    with pytest.raises(ObjectError):
        kis_commit_batch(st, (1, 2), frozenset())
    st, _, _ = kis_commit_batch(st, (1, 2, 3), frozenset())
    assert st.min_batch_size() == 1
    st, view, _ = kis_commit_batch(st, (4,), frozenset())
    assert len(view) == 4


@settings(max_examples=200, deadline=None)
@given(hs.data())
def test_gate_tracks_committed_invokers_under_random_operations(data):
    """Random legal invokes and gate-respecting commits at n <= 6: every
    invoker is pending or has exactly one pair in the committed view, which
    is the identity the gate's committed count (the view's size) rests on."""
    n = data.draw(hs.integers(2, 6), label="n")
    k = data.draw(hs.integers(1, n - 1), label="k")
    state = KisState(n - k)
    invokers = []
    for _ in range(2 * n):
        seen = {p for p, _ in state.view} | state.pending.keys()
        uninvoked = sorted(set(range(1, n + 1)) - seen)
        pending = sorted(state.pending)
        need = state.min_batch_size()
        if uninvoked and (len(pending) < need or data.draw(hs.booleans())):
            pid = data.draw(hs.sampled_from(uninvoked))
            state = kis_invoke(state, pid, data.draw(hs.integers(0, 9)))
            invokers.append(pid)
        elif pending and len(pending) >= need:
            size = data.draw(hs.integers(need, len(pending)))
            batch = data.draw(hs.permutations(pending))[:size]
            state, _, _ = kis_commit_batch(state, tuple(batch), frozenset())
        else:
            break
        committed = [p for p, _ in state.view]
        assert sorted(committed + sorted(state.pending)) == sorted(invokers)
        assert state.min_batch_size() == max(1, n - k - len(committed))


# Every (n, t, k) of the paper's zone at n <= 4.
ORACLE_CELLS = [
    (n, t, k) for n in (3, 4) for k in range(1, n) for t in range(1, k + 1)
]


def _ordered_partitions(items: tuple) -> list[list[tuple]]:
    """Every sequence of nonempty disjoint classes whose union is `items`."""
    if not items:
        return [[]]
    out = []
    for size in range(1, len(items) + 1):
        for first in combinations(items, size):
            rest = tuple(p for p in items if p not in first)
            out += [[first, *tail] for tail in _ordered_partitions(rest)]
    return out


def _oracle_spec(n: int, t: int, k: int, inputs: tuple) -> set:
    """The outcomes a k-IS object allows: (responders' views, silent pids).
    At most t pids are silent; the participants (the responders plus any
    silent pids that invoked) are ordered into classes, each responder sees
    the union of its class and the earlier ones, and every view holds at
    least n-k pairs."""
    pids = tuple(range(1, n + 1))
    out = set()
    for silent in range(t + 1):
        for quiet in combinations(pids, silent):
            responders = tuple(p for p in pids if p not in quiet)
            for extra in range(silent + 1):
                for invoked in combinations(quiet, extra):
                    members = tuple(sorted(responders + invoked))
                    for classes in _ordered_partitions(members):
                        seen, views = [], []
                        for cls in classes:
                            seen += [(p, inputs[p - 1]) for p in cls]
                            views += [
                                (p, frozenset(seen)) for p in cls if p not in quiet
                            ]
                        if all(len(v) >= n - k for _, v in views):
                            out.add((frozenset(views), frozenset(quiet)))
    return out


def _oracle_outcomes(n: int, t: int, k: int) -> set:
    out = set()
    for trace in enumerate_runs(make_instance("kis_oracle", n, t, k), reduced=True):
        views = frozenset(
            (p, o[1]) for p, o in trace.outcomes.items() if o[0] == RETURNED
        )
        silent = frozenset(p for p, o in trace.outcomes.items() if o[0] != RETURNED)
        out.add((views, silent))
    return out


def _oracle_mismatches() -> list[tuple[int, int, int]]:
    """The cells where the reduced walk of `kis_oracle` does not reach
    exactly the spec's outcomes."""
    return [
        (n, t, k)
        for n, t, k in ORACLE_CELLS
        if _oracle_outcomes(n, t, k) != _oracle_spec(n, t, k, default_inputs(n))
    ]


def test_kis_oracle_reaches_exactly_its_spec():
    """Soundness and completeness of the oracle: no outcome outside the
    spec, and every outcome of the spec reached, at every cell."""
    assert _oracle_mismatches() == []


@pytest.mark.parametrize(
    "shift", [-1, 1], ids=["admits_n_minus_k_minus_1", "requires_n_minus_k_plus_1"]
)
def test_kis_oracle_spec_test_catches_gate_mutants(monkeypatch, shift):
    """A gate that admits one pair fewer breaks soundness (views of size
    n-k-1) wherever k < n-1; one that requires one more breaks completeness
    (no view of size n-k) in every cell."""
    monkeypatch.setattr(
        KisState,
        "min_batch_size",
        lambda st: max(1, st.floor + shift - len(st.view)),
    )
    assert _oracle_mismatches() != []


def _forgetful_commit(st, batch, crashed):
    """A k-IS mutant: a class that alone reaches the floor n-k is released
    without the earlier classes, so views are no longer cumulative."""
    new_st, view, releases = kis_commit_batch(st, batch, crashed)
    own = frozenset((p, st.pending[p]) for p in batch)
    if len(own) >= st.floor:
        return new_st, own, [(p, own) for p, _ in releases]
    return new_st, view, releases


def test_containment_mutant_reaches_the_checkers(monkeypatch):
    """alg1 does not judge view containment itself: under an object that
    breaks it, the reduced walk still yields every leaf, and `check_is`
    reports the broken containment."""
    monkeypatch.setattr(core, "kis_commit_batch", _forgetful_commit)
    leaves = failing = 0
    for trace in enumerate_runs(make_instance("alg1", 3, 2, 2), reduced=True):
        leaves += 1
        if not check_is(trace, "kis", k=2).verdicts["containment"].ok:
            failing += 1
            assert not all(r.passed for r in standard_reports(trace))
    assert (leaves, failing) == (2140, 1764)


# ── Consensus oracle ─────────────────────────────────────────────────────────


def test_consensus_first_proposal_wins():
    decided = BOTTOM
    decided, d1 = consensus_propose(decided, "x")
    decided, d2 = consensus_propose(decided, "y")
    decided, d3 = consensus_propose(decided, "z")
    assert d1 == d2 == d3 == "x"
    assert decided == "x"


def test_consensus_oracle_runs_agree():
    inst = make_instance("cons_oracle", 3, 1, 1)
    for tr in enumerate_runs(inst, reduced=True):
        decided = set(tr.decisions().values())
        assert len(decided) <= 1
        if decided:
            assert decided <= set(tr.meta["inputs"])


# ── Register-level immediate snapshot (level descent) ────────────────────────


def test_solo_snapshot_descends_to_singleton():
    """A process running alone descends from level n to level 1 and returns
    only itself: wait-freedom makes small views unavoidable."""
    inst = make_instance("is_impl", 3, 1, None)
    # p1 alone: (write, scan) per level, levels 3, 2, 1.
    res = run(inst, ReplaySchedule([("step", 1)] * 6))
    assert res.trace.outcomes[1] == ("returned", frozenset({(1, 101)}))


def test_lockstep_snapshot_returns_full_view():
    """All n processes running in lockstep stay at level n together."""
    inst = make_instance("is_impl", 3, 0, None)
    actions = [("step", p) for p in (1, 2, 3)] * 2  # all write, then all scan
    res = run(inst, ReplaySchedule(actions))
    full = frozenset({(1, 101), (2, 102), (3, 103)})
    assert all(res.trace.outcomes[p] == ("returned", full) for p in (1, 2, 3))


def test_snapshot_views_satisfy_all_is_properties_exhaustively():
    inst = make_instance("is_impl", 2, 0, None)
    count = 0
    for tr in enumerate_runs(inst, reduced=False):
        count += 1
        rep = check_is(tr, "is", k=1)
        assert rep.passed, rep.failures()
        h = object_history(tr, "is")
        assert set(h.responds) == {1, 2}  # wait-free: everyone returns
    assert count > 1


def test_snapshot_termination_is_wait_free():
    """No crash pattern within budget can block a correct process."""
    inst = make_instance("is_impl", 3, 2, None)
    for tr in enumerate_runs(inst, reduced=True):
        for pid, outcome in tr.outcomes.items():
            assert outcome[0] in ("returned", "crashed")
