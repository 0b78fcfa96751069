import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from mpvkit import (
    BudgetExceededError,
    Instance,
    brute_force,
    enumerate_solutions,
    random_instance,
    verify,
)
from mpvkit.oracle import DEFAULT_SEQUENCE_BUDGET, _decode, _feasible_masks, _subsets_upto

from conftest import e1


def test_subset_order_is_lexicographic():
    subs = [tuple(sorted(s)) for s in _subsets_upto((1, 2, 3), 3)]
    assert subs == [
        (),
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (2,),
        (2, 3),
        (3,),
    ]
    ones = [tuple(sorted(s)) for s in _subsets_upto((1, 2, 3), 1)]
    assert ones == [(), (1,), (2,), (3,)]


@pytest.mark.parametrize(
    "m, pool_size, k, scale",
    [
        (6, 6, 2, 1),
        (5, 5, 7, 1),  # k >= |pool|
        (4, 0, 2, 1),  # no candidates at all
        (8, 5, 3, 2**70),  # weights near 2^70
        (80, 70, 2, 1),  # masks longer than one 64-bit word
    ],
)
def test_feasible_masks_match_filtered_subsets(m, pool_size, k, scale):
    rng = random.Random(f"{m}/{pool_size}/{k}")
    for _ in range(10):
        # zero columns are common: most candidates are approved by nobody
        row = [0] + [rng.choice((0, 0, 0, 1, 2, 5)) * scale + rng.randint(0, 2) for _ in range(m)]
        pool = sorted(rng.sample(range(1, m + 1), pool_size))
        reference = sorted(
            c for j in range(min(k, len(pool)) + 1) for c in combinations(pool, j)
        )
        assert [tuple(sorted(s)) for s in _subsets_upto(pool, k)] == reference
        for x in (1, scale, 3 * scale, 7 * scale, 20 * scale):
            got = [_decode(mask, pool) for mask in _feasible_masks(row, pool, k, x)]
            assert got == [s for s in _subsets_upto(pool, k) if sum(row[c] for c in s) >= x]
            assert got == [frozenset(c) for c in reference if sum(row[i] for i in c) >= x]


def test_e1_answers():
    assert brute_force(e1("C", ell=2)).answer is True
    assert brute_force(e1("C", ell=0)).answer is False
    rep = brute_force(e1("R", ell=2))
    assert rep.answer is True
    assert rep.witness == (frozenset({1}), frozenset({2}), frozenset({1}))
    assert rep.algorithm == "brute-force"
    assert verify(e1("R", ell=2), rep.witness) == []


def test_no_instance_has_no_witness():
    rep = brute_force(e1("C", ell=0))
    assert rep.witness is None
    assert rep.stats["states"] >= 0


def test_witness_is_lexicographically_first():
    # two agents approving both of two candidates at both stages: the
    # singleton {1},{1} precedes every other valid sequence
    inst = Instance(variant="C", m=2, ballots=((1, 2), (1, 2)), k=1, ell=2, x=1)
    rep = brute_force(inst)
    assert rep.witness == (frozenset({1}), frozenset({1}))


def test_enumerate_solutions():
    inst = e1("R", ell=2)
    sols = enumerate_solutions(inst, limit=10)
    assert (frozenset({1}), frozenset({2}), frozenset({1})) in sols
    for seq in sols:
        assert verify(inst, seq) == []
    assert len(sols) <= 10

    just_one = enumerate_solutions(inst, limit=1)
    assert len(just_one) == 1
    assert just_one[0] == brute_force(inst).witness


def test_enumerate_limit_validation(e1_rmpv):
    assert enumerate_solutions(e1_rmpv, limit=0) == []
    with pytest.raises(ValueError):
        enumerate_solutions(e1_rmpv, limit=-1)


def test_budget_exhaustion():
    inst = Instance(
        variant="C",
        m=8,
        ballots=((1, 2, 3, 4, 5, 6, 7, 8),) * 4,
        k=4,
        ell=8,
        x=1,
    )
    with pytest.raises(BudgetExceededError):
        brute_force(inst, budget=10)


def test_empty_committee_allowed_when_x_reachable():
    # x=1 with nobody approving anything: no committee can score
    inst = Instance(variant="C", m=2, ballots=((0, 0),), k=1, ell=0, x=1)
    assert brute_force(inst).answer is False


def _sequence_reference(instance, budget, max_solutions):
    """The oracle's search as a closure DFS that collects its solutions.

    Returns ``(solutions, extensions)`` with at most ``max_solutions``
    sequences, or the message of the budget error the search raises.
    """
    m, k, ell, x, tau = instance.m, instance.k, instance.ell, instance.x, instance.tau
    conservative = instance.variant == "C"
    pool_size = sum(comb(m, j) for j in range(min(k, m) + 1))
    if pool_size > budget or pool_size * tau > 8 * budget:
        return f"enumerating {pool_size} committees per stage exceeds the budget of {budget}"
    pool = range(1, m + 1)
    feasible = [_feasible_masks(row, pool, k, x) for row in instance.counts]

    solutions = []
    prefix = []
    extensions = 0

    def extend(t, prev):
        nonlocal extensions
        for committee in feasible[t]:
            if prev is not None:
                d = (prev ^ committee).bit_count()
                if conservative:
                    if d > ell:
                        continue
                elif d < ell:
                    continue
            extensions += 1
            if extensions > budget:
                raise BudgetExceededError(
                    f"search exceeded the budget of {budget} partial sequences"
                )
            prefix.append(committee)
            if t + 1 == tau:
                solutions.append(tuple(_decode(mask, pool) for mask in prefix))
                done = len(solutions) >= max_solutions
            else:
                done = extend(t + 1, committee)
            prefix.pop()
            if done:
                return True
        return False

    try:
        extend(0, None)
    except BudgetExceededError as exc:
        return str(exc)
    return solutions, extensions


def _outcome(call):
    try:
        return call()
    except BudgetExceededError as exc:
        return str(exc)


def test_search_matches_the_closure_reference():
    seen = Counter()
    rng = random.Random(13)
    for trial in range(320):
        variant = rng.choice("CR")
        n, tau, m, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 7), rng.randint(1, 4)
        inst = random_instance(
            n, m, tau, k, rng.randint(0, min(m, 2 * k) + 1), rng.randint(1, n), variant,
            abstain_probability=rng.choice((0.0, 0.2, 0.5)), seed=trial,
        )
        # a random budget, the default, and one short of what five solutions take
        _, needed = _sequence_reference(inst, DEFAULT_SEQUENCE_BUDGET, 5)
        for budget in {rng.randint(1, 300), DEFAULT_SEQUENCE_BUDGET, max(1, needed - 1)}:
            expected = _sequence_reference(inst, budget, 1)
            got = _outcome(lambda: brute_force(inst, budget=budget))
            if isinstance(expected, str):
                assert got == expected, (inst, budget)
            else:
                witness = expected[0][0] if expected[0] else None
                seen[variant + ("yes" if witness else "no")] += 1
                assert (got.answer, got.witness, got.stats["states"]) == (
                    witness is not None, witness, expected[1]
                ), (inst, budget)
            assert enumerate_solutions(inst, 0, budget=budget) == []
            for limit in range(1, 6):
                expected = _sequence_reference(inst, budget, limit)
                if isinstance(expected, str):
                    seen["refused" if expected.startswith("enumerating") else "search"] += 1
                else:
                    expected = expected[0]
                got = _outcome(lambda: enumerate_solutions(inst, limit, budget=budget))
                assert got == expected, (inst, budget, limit)
    # both variants answer yes and no, and both budget errors occur
    assert min(seen.values()) >= 10 and len(seen) == 6, seen
