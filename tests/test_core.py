import numpy as np
import pytest
from hypothesis import given, strategies as st

from mpvkit import (
    Instance,
    TrivialVerdict,
    WeightedInstance,
    feasible_committee,
    score,
    symdiff_size,
    verify,
)

from conftest import E1_BALLOTS, e1


# ---------------------------------------------------------------------------
# Instance construction
# ---------------------------------------------------------------------------


def test_counts_from_ballots(e1_cmpv):
    assert e1_cmpv.counts == ((0, 2, 0, 0), (0, 0, 2, 0), (0, 1, 0, 1))
    assert e1_cmpv.n == 2
    assert e1_cmpv.tau == 3


def test_abstentions_do_not_count():
    inst = Instance(variant="C", m=2, ballots=((0, 1), (0, 0)), k=1, ell=1, x=1)
    assert inst.counts == ((0, 1, 0), (0, 0, 0))


def test_zero_agents_allowed():
    inst = Instance(variant="C", m=2, ballots=((), ()), k=1, ell=0, x=1)
    assert inst.n == 0
    assert inst.counts == ((0, 0, 0), (0, 0, 0))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(variant="X", m=3, ballots=E1_BALLOTS, k=1, ell=2, x=1),
        dict(variant="C", m=0, ballots=(), k=1, ell=0, x=1),
        dict(variant="C", m=3, ballots=(), k=1, ell=0, x=1),
        dict(variant="C", m=3, ballots=E1_BALLOTS, k=0, ell=2, x=1),
        dict(variant="C", m=3, ballots=E1_BALLOTS, k=1, ell=-1, x=1),
        dict(variant="C", m=3, ballots=E1_BALLOTS, k=1, ell=2, x=0),
        dict(variant="C", m=3, ballots=((1, 1), (2, 2), (1, 4)), k=1, ell=2, x=1),
        dict(variant="C", m=3, ballots=((1, 1), (2, 2), (-1, 3)), k=1, ell=2, x=1),
        dict(variant="C", m=3, ballots=((1, 1), (2,), (1, 3)), k=1, ell=2, x=1),
        dict(variant="C", m=3, ballots=((1, 1), (2, 2), (1, 3.0)), k=1, ell=2, x=1),
        dict(variant="C", m=True, ballots=((1, 1),), k=1, ell=2, x=1),
        dict(variant="C", m=3, ballots=E1_BALLOTS, k=True, ell=2, x=1),
        dict(variant="C", m=3, ballots=E1_BALLOTS, k=1, ell=True, x=1),
        dict(variant="C", m=3, ballots=E1_BALLOTS, k=1, ell=2, x=True),
    ],
)
def test_rejects_malformed(kwargs):
    with pytest.raises(ValueError):
        Instance(**kwargs)


def test_accepts_numpy_integer_parameters():
    inst = Instance(
        variant="C", m=np.int64(3), ballots=E1_BALLOTS, k=np.int32(1), ell=np.uint8(2), x=np.int64(1)
    )
    assert inst == e1()
    assert all(type(v) is int for v in (inst.m, inst.k, inst.ell, inst.x))


def test_instances_hash_and_compare():
    assert e1() == e1()
    assert e1() != e1(x=1, ell=0)
    assert len({e1(), e1(), e1("R")}) == 2


def test_weighted_rows_must_have_zero_slot():
    w = WeightedInstance(
        variant="C", m=2, weights=((0, 3, 1), (0, 0, 2)), k=1, ell=0, x=1
    )
    assert w.tau == 2
    with pytest.raises(ValueError):
        WeightedInstance(variant="C", m=2, weights=((1, 3, 1),), k=1, ell=0, x=1)
    with pytest.raises(ValueError):
        WeightedInstance(variant="C", m=2, weights=((0, -1, 1),), k=1, ell=0, x=1)
    with pytest.raises(ValueError):
        WeightedInstance(variant="C", m=2, weights=((0, 3),), k=1, ell=0, x=1)
    with pytest.raises(ValueError):
        WeightedInstance(variant="C", m=2, weights=((0, True, 3),), k=1, ell=0, x=1)


def test_trivial_verdict_is_frozen():
    v = TrivialVerdict(False, "because")
    assert v.answer is False
    with pytest.raises(AttributeError):
        v.answer = True


# ---------------------------------------------------------------------------
# score / symdiff / verify
# ---------------------------------------------------------------------------


def test_score_values(e1_cmpv):
    assert score(e1_cmpv, 1, {1}) == 2
    assert score(e1_cmpv, 1, {3}) == 0
    assert score(e1_cmpv, 3, {1, 3}) == 2
    assert score(e1_cmpv, 2, frozenset()) == 0


def test_score_range_checks(e1_cmpv):
    with pytest.raises(ValueError):
        score(e1_cmpv, 0, {1})
    with pytest.raises(ValueError):
        score(e1_cmpv, 4, {1})
    with pytest.raises(ValueError):
        score(e1_cmpv, 1, {4})


def test_symdiff_size():
    assert symdiff_size({1, 2}, {2, 3}) == 2
    assert symdiff_size(set(), set()) == 0
    assert symdiff_size({1}, set()) == 1


def test_verify_accepts_valid_sequence(e1_cmpv):
    seq = (frozenset({1}), frozenset({2}), frozenset({1}))
    assert verify(e1_cmpv, seq) == []


def test_verify_reports_all_violations():
    inst = e1("C", k=1, ell=0, x=1)
    seq = (frozenset({1}), frozenset({2}), frozenset({1}))
    violations = verify(inst, seq)
    assert len(violations) == 2
    assert all("symmetric difference" in v for v in violations)

    inst = e1("C", k=1, ell=2, x=2)
    violations = verify(inst, (frozenset({1}), frozenset({2}), frozenset({1})))
    assert violations == ["stage 3: score 1 is below x=2"]

    inst = e1("R", k=1, ell=2, x=1)
    violations = verify(inst, (frozenset({1}), frozenset({1}), frozenset({1})))
    # stage 2 score fails and both transitions change too little
    assert len(violations) == 3
    assert sum("is below ell" in v for v in violations) == 2

    big = (frozenset({1, 2}), frozenset({2}), frozenset({1}))
    assert any("exceeds k=1" in v for v in verify(e1(), big))


def test_verify_rejects_malformed_sequences(e1_cmpv):
    with pytest.raises(ValueError):
        verify(e1_cmpv, (frozenset({1}),))
    with pytest.raises(ValueError):
        verify(e1_cmpv, (frozenset({1}), frozenset({4}), frozenset({1})))


@given(
    a=st.frozensets(st.integers(1, 6), max_size=4),
    b=st.frozensets(st.integers(1, 6), max_size=4),
)
def test_symdiff_is_metric_like(a, b):
    assert symdiff_size(a, b) == symdiff_size(b, a)
    assert symdiff_size(a, a) == 0
    assert symdiff_size(a, b) == len(a | b) - len(a & b)


# ---------------------------------------------------------------------------
# feasible_committee
# ---------------------------------------------------------------------------


def test_feasible_committee_greedy():
    inst = e1("C", k=2, ell=2, x=2)
    assert feasible_committee(inst, 1, required={2}) == frozenset({1, 2})
    assert feasible_committee(inst, 1, required={2}, forbidden={1}) is None


def test_feasible_committee_edge_cases(e1_cmpv):
    # k=1 leaves no room beside a required candidate
    assert feasible_committee(e1_cmpv, 1, required={1}) == frozenset({1})
    assert feasible_committee(e1_cmpv, 1, required={3}) is None  # score 0 < 1
    assert feasible_committee(e1_cmpv, 1, required={1, 2}) is None  # exceeds k
    with pytest.raises(ValueError):
        feasible_committee(e1_cmpv, 1, required={1}, forbidden={1})


def test_feasible_committee_prefers_low_ids_on_ties():
    inst = Instance(variant="C", m=3, ballots=((1, 2, 3),), k=1, ell=0, x=1)
    assert feasible_committee(inst, 1) == frozenset({1})
