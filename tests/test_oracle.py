import random
from collections import Counter
from itertools import combinations
from math import comb, prod

import pytest

from mpvkit import (
    BudgetExceededError,
    Graph,
    Instance,
    brute_force,
    cmpv_normalize_half,
    cmpv_to_rmpv,
    enumerate_solutions,
    mcc_to_cmpv,
    random_instance,
    vc_to_cmpv,
    verify,
)
from mpvkit.core import DEFAULT_BUDGET
from mpvkit.oracle import _decode, _feasible_masks

from conftest import e1, feasible_masks, subsets_upto


def test_subset_order_is_lexicographic():
    subs = [tuple(sorted(s)) for s in subsets_upto((1, 2, 3), 3)]
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
    ones = [tuple(sorted(s)) for s in subsets_upto((1, 2, 3), 1)]
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
        assert [tuple(sorted(s)) for s in subsets_upto(pool, k)] == reference
        for x in (1, scale, 3 * scale, 7 * scale, 20 * scale):
            got = [_decode(mask, pool) for mask in feasible_masks(row, pool, k, x)]
            assert got == [s for s in subsets_upto(pool, k) if sum(row[c] for c in s) >= x]
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
    # its 163 committees per stage are refused before any sequence is
    # read, so at limit 0 too
    for limit in (0, 1):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_solutions(inst, limit, budget=10)
        assert str(err.value) == "163 committees per stage exceed the budget of 10"
    # a pool of 42 fits a budget of 100 at each stage, but not over 20
    # stages, which list 840 committees, 105 blocks of 8
    rows = ((1, 2, 3, 4, 5, 6),) * 20
    inst = Instance(variant="C", m=6, ballots=rows, k=3, ell=6, x=1)
    for limit in (0, 1):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_solutions(inst, limit, budget=100)
        assert str(err.value) == "105 blocks of 8 committees over all stages exceed the budget of 100"
    # 19 stages list 798 committees, within 8 * 100; with nobody voting at
    # the last one, the search runs out instead
    nineteen = Instance(variant="C", m=6, ballots=rows[:18] + ((0,) * 6,), k=3, ell=6, x=1)
    with pytest.raises(BudgetExceededError) as err:
        brute_force(nineteen, budget=100)
    assert str(err.value) == "partial sequences exceed the budget of 100"


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
    if pool_size > budget:
        return f"{pool_size} committees per stage exceed the budget of {budget}"
    if pool_size * tau > 8 * budget:
        blocks = (pool_size * tau + 7) // 8
        return f"{blocks} blocks of 8 committees over all stages exceed the budget of {budget}"
    pool = range(1, m + 1)
    feasible = [feasible_masks(row, pool, k, x) for row in instance.counts]

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
                raise BudgetExceededError(f"partial sequences exceed the budget of {budget}")
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
        _, needed = _sequence_reference(inst, DEFAULT_BUDGET, 5)
        for budget in {rng.randint(1, 300), DEFAULT_BUDGET, max(1, needed - 1)}:
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
            # limit 0 reads no sequence, but a pool too large is refused up front
            refused = isinstance(expected, str) and not expected.startswith("partial sequences")
            got = _outcome(lambda: enumerate_solutions(inst, 0, budget=budget))
            assert got == (expected if refused else []), (inst, budget)
            for limit in range(1, 6):
                expected = _sequence_reference(inst, budget, limit)
                if isinstance(expected, str):
                    seen["search" if expected.startswith("partial sequences") else "refused"] += 1
                else:
                    expected = expected[0]
                got = _outcome(lambda: enumerate_solutions(inst, limit, budget=budget))
                assert got == expected, (inst, budget, limit)
    # both variants answer yes and no, and both budget errors occur
    assert min(seen.values()) >= 10 and len(seen) == 6, seen


def _gadget_shaped(rng, trial):
    """A random instance at the extremes where successors are looked up.

    Conservative with ``ell`` 0-1 or revolutionary with ``ell`` from
    ``m - 1`` to ``m + 1``, ``m`` 8-10, with abstentions and with stage
    rows repeated in a random pattern.
    """
    m = rng.randint(8, 10)
    if rng.random() < 0.5:
        variant, ell, k = "C", rng.randint(0, 1), rng.randint(2, 3)
    else:
        variant, ell, k = "R", rng.randint(m - 1, m + 1), m // 2
    n, tau = rng.randint(4, 9), rng.randint(2, 4)
    base = random_instance(
        n, m, rng.randint(1, tau), k, ell, 1, variant,
        abstain_probability=rng.choice((0.1, 0.3)), seed=trial,
    )
    rows = tuple(rng.choice(base.ballots) for _ in range(tau))
    return Instance(variant, m, rows, k, ell, rng.randint(1, 4))


def test_neighbourhood_lookup_matches_the_closure_reference():
    seen = Counter()
    rng = random.Random(14)
    for trial in range(120):
        inst = _gadget_shaped(rng, trial)
        m, ell = inst.m, inst.ell
        radius = ell if inst.variant == "C" else m - ell
        ball = sum(comb(m, j) for j in range(radius + 1))
        # a lookup serves every stage after the first
        seen["lookup"] += ball <= 64 and inst.tau > 1
        seen["repeated"] += len(set(inst.counts)) < inst.tau
        _, needed = _sequence_reference(inst, DEFAULT_BUDGET, 5)
        for budget in (DEFAULT_BUDGET, rng.randint(1, max(1, needed)), max(1, needed - 1)):
            expected = _sequence_reference(inst, budget, 1)
            got = _outcome(lambda: brute_force(inst, budget=budget))
            if isinstance(expected, str):
                seen["exceeded"] += 1
                assert got == expected, (inst, budget)
            else:
                witness = expected[0][0] if expected[0] else None
                seen[inst.variant + ("yes" if witness else "no")] += 1
                assert (got.answer, got.witness, got.stats["states"]) == (
                    witness is not None, witness, expected[1]
                ), (inst, budget)
            for limit in range(1, 6):
                expected = _sequence_reference(inst, budget, limit)
                if not isinstance(expected, str):
                    expected = expected[0]
                got = _outcome(lambda: enumerate_solutions(inst, limit, budget=budget))
                assert got == expected, (inst, budget, limit)
    assert seen["lookup"] >= 70 and seen["repeated"] >= 70, seen
    assert min(seen[key] for key in ("Cyes", "Cno", "Ryes", "Rno", "exceeded")) >= 10, seen


def _forced(rng, trial):
    """A random instance whose every transition is forced.

    Conservative with ``ell = 0``, where a committee's one successor is
    itself, or revolutionary with ``ell = m``, where it is its complement;
    ``m`` 8-12, ``tau`` 1-25, stage rows drawn with repeats from at most
    four. Where the pool is small enough for the reference's full search,
    a last stage nobody votes at kills every tail there, so that the
    search outgrows budgets the pool check lets through.
    """
    m = rng.randint(8, 12)
    if rng.random() < 0.5:
        variant, ell, k = "C", 0, rng.randint(1, 4)
    else:
        variant, ell, k = "R", m, rng.randint(m // 2 - 1, (m + 1) // 2)
    n, tau = rng.randint(4, 10), rng.randint(1, 25)
    base = random_instance(
        n, m, rng.randint(1, 4), k, ell, 1, variant,
        abstain_probability=rng.choice((0.0, 0.2)), seed=trial,
    )
    rows = tuple(rng.choice(base.ballots) for _ in range(tau))
    if sum(comb(m, j) for j in range(k + 1)) <= 400 and rng.random() < 0.3:
        rows = rows[:-1] + ((0,) * n,)
    x = max(1, rng.choice((1, 2, n // 3, n // 2) if variant == "R" else (1, 2, n // 2, n)))
    return Instance(variant, m, rows, k, ell, x)


@pytest.mark.parametrize(
    "draws, least",
    [
        pytest.param(range(24), 1, id="24-draws"),
        pytest.param(range(24, 600), 20, id="576-draws", marks=pytest.mark.full_box),
    ],
)
def test_forced_transitions_match_the_closure_reference(draws, least):
    # the walk of forced tails against the closure DFS: witness, states and
    # budget errors at the default budget, at states and one short of it,
    # and the first 0-5 sequences at each
    seen = Counter()
    rng = random.Random(45)
    for trial in range(draws.stop):
        inst = _forced(rng, trial)  # every draw, so that each slice sees the same stream
        if trial not in draws:
            continue
        default = _sequence_reference(inst, DEFAULT_BUDGET, 1)
        states = default[1]
        for budget in {DEFAULT_BUDGET, states, max(0, states - 1)}:
            expected = default if budget == DEFAULT_BUDGET else _sequence_reference(inst, budget, 1)
            got = _outcome(lambda: brute_force(inst, budget=budget))
            refused = isinstance(expected, str) and not expected.startswith("partial sequences")
            if isinstance(expected, str):
                seen["refused" if refused else "exceeded"] += 1
                assert got == expected, (inst, budget)
            else:
                witness = expected[0][0] if expected[0] else None
                seen[inst.variant + ("yes" if witness else "no")] += 1
                assert (got.answer, got.witness, got.stats["states"]) == (
                    witness is not None, witness, expected[1]
                ), (inst, budget)
            assert _outcome(lambda: enumerate_solutions(inst, 0, budget=budget)) == (
                expected if refused else []
            ), (inst, budget)
            # a search that fails, or finds nothing, before its first
            # sequence does so at every limit
            first = expected
            for limit in range(1, 6):
                if isinstance(first, str) or not first[0]:
                    expected = first if isinstance(first, str) else []
                else:
                    expected = _sequence_reference(inst, budget, limit)
                    expected = expected if isinstance(expected, str) else expected[0]
                got = _outcome(lambda: enumerate_solutions(inst, limit, budget=budget))
                assert got == expected, (inst, budget, limit)
        seen["repeated"] += len(set(inst.counts)) < inst.tau
    assert min(seen[key] for key in ("Cyes", "Cno", "Ryes", "Rno", "exceeded", "repeated")) >= least, seen


def test_dead_tails_still_count_every_extension():
    # six candidates, a of them approved at each stage, and none at the
    # last: with x = 1 no committee meets the last stage, and ell = m
    # allows every transition before it
    m, k = 6, 3
    approved = (6, 5, 6, 4, 0)
    rows = tuple(tuple(range(1, a + 1)) + (0,) * (m - a) for a in approved)
    inst = Instance(variant="C", m=m, ballots=rows, k=k, ell=m, x=1)
    # a feasible committee holds at least one approved candidate
    sizes = [sum(comb(m, j) - comb(m - a, j) for j in range(1, k + 1)) for a in approved]
    assert sizes == [41, 40, 41, 38, 0]
    # the full search extends every prefix through stage t once per
    # sequence of feasible committees of stages 1..t
    extensions = sum(prod(sizes[: t + 1]) for t in range(len(sizes)))
    assert extensions == 2_624_041
    rep = brute_force(inst)
    assert (rep.answer, rep.witness, rep.stats["states"]) == (False, None, extensions)
    assert brute_force(inst, budget=extensions).stats["states"] == extensions
    for budget in (extensions - 1, 70_000):
        with pytest.raises(BudgetExceededError) as exc:
            brute_force(inst, budget=budget)
        assert str(exc.value) == f"partial sequences exceed the budget of {budget}"
    assert enumerate_solutions(inst, 5) == []


def test_lookup_stages_build_no_feasible_list(monkeypatch):
    # ell = 0: every stage after the first looks its successor up in the
    # ball of radius 0, so the ball and stage 1's row are the only lists
    # enumerated, even where a later stage repeats that row
    a, b = (1, 2, 2, 3), (2, 2, 3, 3)
    inst = Instance(variant="C", m=5, ballots=(a, b, a, a, b), k=2, ell=0, x=3)
    (witness,), states = _sequence_reference(inst, DEFAULT_BUDGET, 1)
    assert witness == (frozenset({2, 3}),) * 5
    calls = Counter()

    def counted(weights, k, x):
        calls[tuple(weights), k, x] += 1
        return _feasible_masks(weights, k, x)

    monkeypatch.setattr("mpvkit.oracle._feasible_masks", counted)
    rep = brute_force(inst)
    assert (rep.witness, rep.stats["states"]) == (witness, states)
    assert calls == {(inst.counts[0][1:], 2, 3): 1, ((0,) * 5, 0, 0): 1}


def test_limit_zero_lists_no_stage(monkeypatch):
    # the checks run on the call and the listing on the first read: with
    # every listing failing, limit 0 returns [] on a lookup instance (ell
    # 0, a ball of one committee) and a scan one (a ball of 99), and a bad
    # budget still raises first
    def unexpected(*args):
        raise AssertionError("a stage was listed")

    monkeypatch.setattr("mpvkit.oracle._feasible_masks", unexpected)
    lookup = e1("C", k=1, ell=0, x=1)
    scan = Instance("C", 7, ((3, 6, 0), (2, 4, 7)), 2, 4, 2)
    for inst in (lookup, scan):
        assert enumerate_solutions(inst, 0) == []
        with pytest.raises(ValueError, match="budget must be a non-negative integer, got -5"):
            enumerate_solutions(inst, 0, budget=-5)
        with pytest.raises(AssertionError, match="a stage was listed"):
            enumerate_solutions(inst, 1)


def test_brute_force_keeps_the_14_edge_clique_gadget_answers():
    # answers, witnesses and states of the search that listed every
    # stage's feasible committees, on mcc_to_cmpv of the 14-edge 3+3+3
    # samples (m 23, tau 12, k 6, ell 0)
    from test_acceptance import sampled_partitioned_graphs

    graphs = [
        pg for pg in sampled_partitioned_graphs()
        if list(map(len, pg.parts)) == [3, 3, 3] and len(pg.edges) == 14
    ]
    recorded = [
        ({1, 6, 8, 12, 13, 22}, 57_000),
        ({1, 4, 7, 10, 13, 19}, 30_706),
        ({1, 4, 8, 10, 13, 21}, 33_422),
    ]
    assert len(graphs) == len(recorded)
    for pg, (committee, states) in zip(graphs, recorded):
        inst = mcc_to_cmpv(pg)
        rep = brute_force(inst)
        assert (rep.answer, rep.witness, rep.stats["states"]) == (
            True, (frozenset(committee),) * inst.tau, states
        )


def test_brute_force_keeps_the_vc_chain_answers():
    # witnesses and states of the search that opened one generator per
    # stage, on the revolutionary VC chains of two seeded 10-vertex graphs
    # with 12 edges (m 12, tau 25, k 6, ell 12: every transition swaps the
    # whole committee); the first has a half cover, the second none
    recorded = [
        (0, ({2, 3, 4, 5, 7, 11}, {1, 6, 8, 9, 10, 12}), 3_006),
        (9, None, 5_032),
    ]
    for seed, pair, states in recorded:
        rng = random.Random(seed)
        g = Graph(10, tuple(rng.sample(list(combinations(range(1, 11), 2)), 12)))
        inst = cmpv_to_rmpv(cmpv_normalize_half(vc_to_cmpv(g)))
        assert (inst.m, inst.tau, inst.k, inst.ell) == (12, 25, 6, 12)
        witness = pair and tuple(frozenset(pair[t % 2]) for t in range(inst.tau))
        rep = brute_force(inst)
        assert (rep.answer, rep.witness, rep.stats["states"]) == (pair is not None, witness, states)
