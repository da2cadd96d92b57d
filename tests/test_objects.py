"""Object catalog tests: k-IS oracle commit semantics, consensus oracle,
and the register-level wait-free immediate snapshot routine."""

from __future__ import annotations

import pytest

from kisnap import (
    ConsState,
    KisState,
    ObjectError,
    ReplaySchedule,
    enumerate_runs,
    make_instance,
    run,
)
from kisnap.checkers import check_is, object_history
from kisnap.objects import consensus_propose, kis_commit_batch, kis_invoke


def invoked(st: KisState, *pairs) -> KisState:
    for pid, v in pairs:
        st = kis_invoke(st, pid, v)
    return st


# ── k-IS oracle: batches, gate, cumulative views ─────────────────────────────


def test_first_batch_must_reach_output_size_floor():
    """n=3, k=1: the first concurrency class needs n-k = 2 members."""
    st = invoked(KisState(3, 1), (1, "a"), (2, "b"), (3, "c"))
    assert st.min_batch_size() == 2
    with pytest.raises(ObjectError):
        kis_commit_batch(st, (1,), frozenset())


def test_commit_releases_cumulative_union_views():
    st = invoked(KisState(3, 1), (1, "a"), (2, "b"), (3, "c"))
    st, view1, rel1 = kis_commit_batch(st, (1, 2), frozenset())
    assert view1 == frozenset({(1, "a"), (2, "b")})
    assert rel1 == [(1, view1), (2, view1)]
    # After 2 committed members the gate admits singletons.
    assert st.min_batch_size() == 1
    st, view2, rel2 = kis_commit_batch(st, (3,), frozenset())
    assert view2 == frozenset({(1, "a"), (2, "b"), (3, "c")})
    assert rel2 == [(3, view2)]
    assert view1 < view2
    assert st.pending == frozenset()
    assert st.classes == (view1, frozenset({(3, "c")}))


def test_single_full_batch_gives_everyone_the_same_view():
    st = invoked(KisState(3, 2), (1, 10), (2, 20), (3, 30))
    st, view, rel = kis_commit_batch(st, (1, 2, 3), frozenset())
    assert view == frozenset({(1, 10), (2, 20), (3, 30)})
    assert [p for p, _ in rel] == [1, 2, 3]
    assert all(v == view for _, v in rel)


def test_crashed_batch_member_contributes_but_is_not_released():
    """A crashed pending invocation stays committable: its value enters the
    class (so survivor views satisfy the size floor) but it gets no view."""
    st = invoked(KisState(3, 1), (1, "a"), (2, "b"))
    st, view, rel = kis_commit_batch(st, (1, 2), frozenset({1}))
    assert view == frozenset({(1, "a"), (2, "b")})
    assert rel == [(2, view)]


def test_double_invoke_raises():
    st = invoked(KisState(3, 1), (1, "a"))
    with pytest.raises(ObjectError):
        kis_invoke(st, 1, "again")


def test_commit_batch_must_be_pending():
    st = invoked(KisState(3, 1), (1, "a"), (2, "b"))
    with pytest.raises(ObjectError):
        kis_commit_batch(st, (2, 3), frozenset())
    with pytest.raises(ObjectError):
        kis_commit_batch(st, (), frozenset())
    st2, _, _ = kis_commit_batch(st, (1, 2), frozenset())
    with pytest.raises(ObjectError):  # already committed
        kis_commit_batch(st2, (1,), frozenset())


def test_object_parameter_bounds():
    with pytest.raises(ObjectError):
        KisState(3, 0)
    with pytest.raises(ObjectError):
        KisState(3, 3)
    KisState(3, 1)
    KisState(3, 2)


def test_gate_arithmetic_across_classes():
    """n=5, k=2: floor is 3, so min batch 3, then 1 forever after."""
    st = invoked(KisState(5, 2), *((p, p) for p in range(1, 6)))
    assert st.min_batch_size() == 3
    with pytest.raises(ObjectError):
        kis_commit_batch(st, (1, 2), frozenset())
    st, _, _ = kis_commit_batch(st, (1, 2, 3), frozenset())
    assert st.min_batch_size() == 1
    st, view, _ = kis_commit_batch(st, (4,), frozenset())
    assert len(view) == 4


# ── Consensus oracle ─────────────────────────────────────────────────────────


def test_consensus_first_proposal_wins():
    st = ConsState()
    st, d1 = consensus_propose(st, 2, "x")
    st, d2 = consensus_propose(st, 1, "y")
    st, d3 = consensus_propose(st, 3, "z")
    assert d1 == d2 == d3 == "x"
    assert st.decided == "x"


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
