import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mpvkit import (
    BudgetExceededError,
    Instance,
    PreconditionError,
    WeightedInstance,
    brute_force,
    feasible_committee,
    random_instance,
    solve_auto,
    solve_dp_tau,
    solve_inout_ell,
    solve_layered_k,
    solve_unconstrained,
    verify,
)

from mpvkit import solvers
from mpvkit.core import DEFAULT_BUDGET, _change_out_of_reach, _hopeless
from mpvkit.oracle import _feasible_masks

from conftest import e1, feasible_masks, subsets_upto

EXACT_SOLVERS = [solve_layered_k, solve_dp_tau, solve_auto]


def small_sweep():
    """A grid of instances small enough for the brute-force oracle."""
    cases = []
    seed = 0
    for variant in ("C", "R"):
        for n, m, tau, k in [(1, 2, 2, 1), (2, 3, 3, 1), (3, 3, 2, 2), (2, 4, 3, 2)]:
            for ell in range(0, 2 * k + 1):
                seed += 1
                cases.append(
                    random_instance(
                        n, m, tau, k, ell, max(1, n - 1), variant,
                        abstain_probability=0.2, seed=seed,
                    )
                )
    return cases


# ---------------------------------------------------------------------------
# greedy decoupling
# ---------------------------------------------------------------------------


def test_greedy_regime_answers():
    assert solve_unconstrained(e1("C", ell=2, x=1)).answer is True
    assert solve_unconstrained(e1("C", ell=2, x=2)).answer is False
    assert solve_unconstrained(e1("R", ell=0, x=2)).answer is False
    single = Instance(variant="R", m=2, ballots=((1, 1),), k=1, ell=2, x=2)
    assert solve_unconstrained(single).answer is True  # tau == 1


def test_greedy_rejects_coupled_instances():
    with pytest.raises(PreconditionError):
        solve_unconstrained(e1("C", ell=1))
    with pytest.raises(PreconditionError):
        solve_unconstrained(e1("R", ell=2))


def test_greedy_matches_brute_in_regime():
    for trial in range(80):
        variant = "C" if trial % 2 else "R"
        k = 1 + trial % 3
        ell = 2 * k if variant == "C" else 0
        inst = random_instance(
            3, 4, 3, k, ell, 1 + trial % 3, variant,
            abstain_probability=0.25, seed=trial,
        )
        rep = solve_unconstrained(inst)
        assert rep.answer == brute_force(inst).answer, inst
        if rep.answer:
            assert verify(inst, rep.witness) == []


# ---------------------------------------------------------------------------
# exact solvers vs the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("solver", EXACT_SOLVERS)
def test_solver_agrees_with_brute_force(solver):
    for inst in small_sweep():
        truth = brute_force(inst)
        rep = solver(inst)
        assert rep.answer == truth.answer, inst
        if rep.answer:
            assert verify(inst, rep.witness) == [], (inst, rep.witness)


def test_inout_agrees_with_brute_force():
    for inst in small_sweep():
        if inst.variant != "R":
            continue
        rep = solve_inout_ell(inst)
        assert rep.answer == brute_force(inst).answer, inst
        if rep.answer:
            assert verify(inst, rep.witness) == [], (inst, rep.witness)


def test_inout_rejects_conservative(e1_cmpv):
    with pytest.raises(PreconditionError):
        solve_inout_ell(e1_cmpv)


def test_e1_by_every_solver():
    yes = e1("R", ell=2)
    no = e1("C", ell=0)
    for solver in EXACT_SOLVERS + [solve_inout_ell]:
        rep = solver(yes)
        assert rep.answer is True
        assert verify(yes, rep.witness) == []
    for solver in EXACT_SOLVERS:
        assert solver(no).answer is False


def test_solvers_are_deterministic():
    inst = random_instance(3, 4, 3, 2, 1, 2, "C", abstain_probability=0.2, seed=9)
    for solver in EXACT_SOLVERS:
        first = solver(inst)
        second = solver(inst)
        assert first.answer == second.answer
        assert first.witness == second.witness


def test_reports_carry_stats():
    rep = solve_dp_tau(e1("C", ell=1))
    assert rep.algorithm == "dp-tau"
    assert rep.stats["states"] > 0
    assert rep.stats["time_ms"] >= 0.0
    rep = solve_layered_k(e1("C", ell=1))
    assert rep.algorithm == "layered-k"
    rep = solve_inout_ell(e1("R", ell=1))
    assert rep.algorithm == "inout-ell"


def _unexpected_path(*args):
    raise AssertionError("layered-k took the other path")


def _overflowing(*args):
    """:func:`solvers._feasible_layers`'s answer when int64 could overflow."""
    return None


def _listed_empty(weights, k, x):
    """:func:`_feasible_masks` where the numpy pass leaves it only the
    layers of an instance whose stages all stay below ``x``."""
    masks = _feasible_masks(weights, k, x)
    assert not masks, "layered-k took the other path"
    return masks


# layered-k's three paths, each as the SCAN_PYTHON_MAX that forces it and
# the stand-ins it puts in place of solvers functions: plain Python, up to
# SCAN_PYTHON_MAX committees in the pool and committee pairs; Python-listed
# layers scanned with numpy, when only the pairs exceed it or the numpy
# pass would overflow int64; and the numpy pass with the numpy scan, which
# leaves to Python only the empty layers of an x that no stage reaches
_SCAN_PATHS = {
    "python": (10**12, {"_scan_arcs": _unexpected_path, "_feasible_layers": _unexpected_path}),
    "numpy scan": (0, {"_first_links": _unexpected_path, "_feasible_layers": _overflowing}),
    "numpy": (0, {"_first_links": _unexpected_path, "_feasible_masks": _listed_empty}),
}


def _on_each_scan_path(monkeypatch):
    """Force layered-k onto each path in turn, yielding the path's name.

    The other paths' enumeration and scan fail if they are called.
    """
    for path, (cap, replaced) in _SCAN_PATHS.items():
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "SCAN_PYTHON_MAX", cap)
            for name, stand_in in replaced.items():
                patch.setattr(solvers, name, stand_in)
            yield path


def test_budget_raises(monkeypatch):
    inst = random_instance(4, 8, 6, 3, 2, 1, "C", seed=11)
    with pytest.raises(BudgetExceededError):
        solve_layered_k(inst, budget=5)
    # the arc scan spends exactly its reported states: one fewer raises,
    # with the same count and message on every path
    states = solve_layered_k(inst).stats["states"]
    for path in _on_each_scan_path(monkeypatch):
        assert solve_layered_k(inst, budget=states).stats["states"] == states, path
        with pytest.raises(BudgetExceededError) as err:
            solve_layered_k(inst, budget=states - 1)
        assert str(err.value) == f"arc scan exceeded the budget of {states - 1}", path
    with pytest.raises(BudgetExceededError):
        solve_dp_tau(inst, budget=5)
    # dp-tau counts every discovered profile: its exact count is enough
    small = random_instance(4, 8, 3, 3, 2, 1, "R", seed=11)
    assert solve_dp_tau(small, budget=806).stats["states"] == 806
    with pytest.raises(BudgetExceededError, match="806 profiles exceed the budget of 805"):
        solve_dp_tau(small, budget=805)
    with pytest.raises(BudgetExceededError):
        solve_inout_ell(
            random_instance(4, 8, 6, 3, 2, 1, "R", seed=11), budget=5
        )


def test_no_answer_reports_more_states_than_its_budget():
    # in/out-ell checks the budget after each node's scan, the first and
    # last stage's too: one state fewer than an answer needs raises
    for s in range(300):
        inst = random_instance(4, 6, 2 + s % 3, 2, 1, 2, "R", seed=s)
        with pytest.raises(BudgetExceededError):
            solve_inout_ell(inst, budget=solve_inout_ell(inst).stats["states"] - 1)
    # and no budgeted solver answers with more states than its budget
    rng = random.Random(3)
    answered = Counter()
    for trial in range(150):
        variant = rng.choice("CR")
        n, m, tau, k = rng.randint(1, 5), rng.randint(1, 6), rng.randint(2, 4), rng.randint(1, 3)
        inst = random_instance(
            n, m, tau, k, rng.randint(1, 2 * k), rng.randint(1, n), variant,
            abstain_probability=0.2, seed=trial,
        )
        budget = rng.randint(1, 400)
        solvers_here = [solve_layered_k, solve_dp_tau, brute_force]
        if variant == "R":
            solvers_here.append(solve_inout_ell)
        for solver in solvers_here:
            try:
                rep = solver(inst, budget=budget)
            except BudgetExceededError:
                continue
            answered[rep.algorithm] += 1
            assert rep.stats["states"] <= budget, (solver.__name__, inst, budget)
    assert min(answered[a] for a in ("layered-k", "dp-tau", "brute-force", "inout-ell")) >= 20, answered


def _layered_reference(inst, budget):
    """solve_layered_k's search as a row-by-row loop over frozensets.

    Returns (witness, states, layer sizes), or None where the loop runs out
    of budget.
    """
    pool = range(1, inst.m + 1)
    if inst.variant == "C":
        pool = [c for c in pool if any(row[c] for row in inst.counts)]
    if len(subsets_upto(pool, inst.k)) * inst.tau > budget:
        return None
    layers = [
        [s for s in subsets_upto(pool, inst.k) if sum(row[c] for c in s) >= inst.x]
        for row in inst.counts
    ]
    sizes = list(map(len, layers))
    states = sum(sizes)
    reach = [(s, None) for s in layers[0]]
    for layer in layers[1:]:
        if not reach:
            break
        cur = []
        for committee in layer:
            for entry in reach:
                states += 1
                if states > budget:
                    return None
                d = len(entry[0] ^ committee)
                if (d <= inst.ell) if inst.variant == "C" else (d >= inst.ell):
                    cur.append((committee, entry))
                    break
        reach = cur
    chain = []
    entry = reach[0] if reach else None
    while entry is not None:
        chain.append(entry[0])
        entry = entry[1]
    return (tuple(reversed(chain)) or None), states, sizes


def test_layered_matches_row_by_row_scan(monkeypatch):
    rng = random.Random(5)
    for trial in range(60):
        variant = rng.choice("CR")
        n, m = rng.randint(2, 40), rng.choice((6, 12, 70))
        k = rng.randint(1, 3 if m < 70 else 2)
        inst = random_instance(
            n, m, rng.randint(1, 4), k, rng.randint(0, 2 * k), rng.randint(1, 4), variant,
            abstain_probability=0.2, seed=trial,
        )
        budget = rng.choice((10**3, 10**4, 10**7))
        expected = _layered_reference(inst, budget)
        for path in _on_each_scan_path(monkeypatch):
            if expected is None:
                with pytest.raises(BudgetExceededError):
                    solve_layered_k(inst, budget=budget)
                continue
            rep = solve_layered_k(inst, budget=budget)
            got = (rep.witness, rep.stats["states"], rep.stats["layer_sizes"])
            assert got == expected, (path, inst)


def _inout_reference(inst, budget):
    """solve_inout_ell's search as separate first, middle and last passes.

    Returns (witness, states), or the message of the budget error the
    search raises.
    """
    if inst.tau == 1 or inst.ell == 0:
        rep = solve_unconstrained(inst)
        return rep.witness, rep.stats["states"]
    m, k, ell, tau = inst.m, inst.k, inst.ell, inst.tau
    cap = min(k, ell)
    lo = max(0, ell - cap)
    splits = sum(math.comb(ell, j) for j in range(lo, cap + 1)) if ell <= m else 0
    if splits == 0:
        return None, 0
    node_count = math.comb(m, ell) * splits
    if node_count * (tau - 1) + node_count**2 * max(0, tau - 2) > budget:
        return f"{node_count} witness pairs per layer exceed the budget of {budget}"
    nodes = []
    for union in itertools.combinations(range(1, m + 1), ell):
        for jx in range(lo, cap + 1):
            for xs in itertools.combinations(union, jx):
                nodes.append((frozenset(xs), frozenset(union) - frozenset(xs)))

    def feasible(t, required, forbidden):
        return feasible_committee(inst, t, required, forbidden) is not None

    states = len(nodes) * (tau - 1)  # every node per change
    reach = []
    for node in nodes:  # the first pass: one arc per node
        states += 1
        if states > budget:
            return f"arc scan exceeded the budget of {budget}"
        if feasible(1, *node):
            reach.append((node, None))
    for t in range(2, tau):
        if not reach:
            break
        cur = []
        for out2, in2 in nodes:
            for entry in reach:
                states += 1
                if states > budget:
                    return f"arc scan exceeded the budget of {budget}"
                out1, in1 = entry[0]
                if not (out1 & out2 or in1 & in2) and feasible(t, in1 | out2, out1 | in2):
                    cur.append(((out2, in2), entry))
                    break
        reach = cur
    goal = None
    for entry in reach:
        states += 1
        if states > budget:
            return f"arc scan exceeded the budget of {budget}"
        if feasible(tau, entry[0][1], entry[0][0]):
            goal = entry
            break
    if goal is None:
        return None, states
    chain = []
    while goal is not None:
        chain.append(goal[0])
        goal = goal[1]
    chain.reverse()
    committees = [feasible_committee(inst, 1, *chain[0])]
    for t in range(2, tau):
        (out1, in1), (out2, in2) = chain[t - 2], chain[t - 1]
        committees.append(feasible_committee(inst, t, in1 | out2, out1 | in2))
    committees.append(feasible_committee(inst, tau, chain[-1][1], chain[-1][0]))
    return tuple(committees), states


def test_inout_matches_three_pass_reference():
    seen = Counter()

    def check(inst, budget):
        expected = _inout_reference(inst, budget)
        if isinstance(expected, str):
            seen["scan" if expected.startswith("arc scan") else "bound"] += 1
            with pytest.raises(BudgetExceededError) as err:
                solve_inout_ell(inst, budget=budget)
            assert str(err.value) == expected, (inst, budget)
            return
        seen["yes" if expected[0] else "no"] += 1
        rep = solve_inout_ell(inst, budget=budget)
        assert (rep.witness, rep.stats["states"]) == expected, (inst, budget)
        assert rep.answer == (rep.witness is not None)

    rng = random.Random(7)
    for trial in range(400):
        n, tau, m = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 6)
        k, ell = rng.randint(1, 3), rng.randint(0, 5)
        inst = random_instance(
            n, m, tau, k, ell, rng.randint(1, n), "R", abstain_probability=0.2, seed=trial
        )
        seen.update(tau1=tau == 1, ell_over_m=ell > m, ell_over_2k=ell > 2 * k)
        check(inst, rng.choice((rng.randint(1, 400), DEFAULT_BUDGET)))
    # no arc passes the middle stage, so the arc scan's own count runs past
    # the up-front bound (2 * 24 + 24**2 = 624 for 24 witness pairs)
    inst = Instance(
        variant="R", m=4, ballots=((1, 2, 3, 4), (0,) * 4, (1, 2, 3, 4)), k=2, ell=2, x=1
    )
    for budget in range(620, 650):
        check(inst, budget)
    # every boundary case and both budget errors occur
    cases = ("tau1", "ell_over_m", "ell_over_2k", "yes", "no", "bound", "scan")
    assert min(seen[case] for case in cases) >= 10, seen


def _dp_reference(inst, budget, bound=1 << 18, tally=None):
    """solve_dp_tau's search, with group tables summed from fingerprints
    and lexsort dedup.

    Candidates go in groups of twins, equal count columns, in the order of
    their least id. A group's table holds every nonzero (sizes, changes)
    sum of its members' fingerprints, with sizes over k and conservative
    changes over min(ell, 2k) dropped and revolutionary changes clipped at
    ell, in ascending (sizes[-1], sizes[-2], changes[-1], ..., sizes[0],
    changes[0]). A group steps at once when its table has at most
    s * (2**tau - 1) rows and rows times seen profiles are at most
    ``bound``; otherwise its members step one by one with the fingerprint
    table, each over the profiles its predecessor found new. ``tally``
    counts the group steps and the groups split into members.

    Returns (witness, states), or the message of the budget error the
    search raises.
    """
    import numpy as np

    tau, k, m, x, ell = inst.tau, inst.k, inst.m, inst.x, inst.ell
    conservative = inst.variant == "C"
    if any(feasible_committee(inst, t) is None for t in range(1, tau + 1)):
        return None, 0
    if _change_out_of_reach(inst):
        return None, 0
    dcap = min(ell, 2 * k) if conservative else ell
    radii = [k + 1] * tau + [dcap + 1] * (tau - 1) + [x + 1] * tau
    if math.prod(radii) > 2**62:
        return f"profile space of size {math.prod(radii)} cannot be packed into 64-bit keys"
    mult = np.array([math.prod(radii[:i]) for i in range(len(radii))], dtype=np.int64)

    def unpack(keys):
        return keys[:, None] // mult % radii

    fingerprints = [
        (tuple(f >> t & 1 for t in range(tau)), tuple((f >> t ^ f >> (t + 1)) & 1 for t in range(tau - 1)))
        for f in range(1, 1 << tau)
    ]
    zero = ((0,) * tau, (0,) * (tau - 1))

    def table(s):
        sums = {zero}
        for _ in range(s):
            grown = set(sums)
            for sizes, changes in sums:
                for f_sizes, f_changes in fingerprints:
                    new_sizes = tuple(a + b for a, b in zip(sizes, f_sizes))
                    new_changes = tuple(a + b for a, b in zip(changes, f_changes))
                    if max(new_sizes) > k or conservative and max(new_changes, default=0) > dcap:
                        continue
                    if not conservative:
                        new_changes = tuple(min(d, ell) for d in new_changes)
                    grown.add((new_sizes, new_changes))
            sums = grown
        sums.discard(zero)
        return sorted(
            sums,
            key=lambda row: (row[0][-1], *(v for t in reversed(range(tau - 1)) for v in (row[0][t], row[1][t]))),
        )

    def step(rows, col, sources_packed):
        sources = unpack(sources_packed)
        packed_parts, parent_parts, row_parts = [], [], []
        for i, (sizes, changes) in enumerate(rows):
            scores = [j * min(v, x) for j, v in zip(sizes, col)]
            new = sources + np.array([*sizes, *changes, *scores], dtype=np.int64)
            mask = (new[:, :tau] <= k).all(axis=1)
            if conservative:
                mask &= (new[:, tau : 2 * tau - 1] <= ell).all(axis=1)
            new = new[mask]
            if not conservative:
                np.minimum(new[:, tau : 2 * tau - 1], ell, out=new[:, tau : 2 * tau - 1])
            np.minimum(new[:, 2 * tau - 1 :], x, out=new[:, 2 * tau - 1 :])
            packed_parts.append(new @ mult)
            parent_parts.append(sources_packed[mask])
            row_parts.append(np.full(new.shape[0], i, dtype=np.int64))
        packed = np.concatenate(packed_parts)
        parent = np.concatenate(parent_parts)
        picked = np.concatenate(row_parts)
        order = np.lexsort((parent, picked, packed))
        packed, parent, picked = packed[order], parent[order], picked[order]
        first = np.ones(packed.size, dtype=bool)
        first[1:] = packed[1:] != packed[:-1]
        packed, parent, picked = packed[first], parent[first], picked[first]
        fresh = ~np.isin(packed, seen)
        return packed[fresh], parent[fresh], picked[fresh]

    groups = {}
    for c in range(1, m + 1):
        col = tuple(inst.counts[t][c] for t in range(tau))
        if conservative and not any(col):
            continue
        groups.setdefault(col, []).append(c)
    tables = {1: table(1)}
    seen = np.zeros(1, dtype=np.int64)
    layer_maps = []
    for col, members in groups.items():
        s = len(members)
        if s not in tables:
            tables[s] = table(s)
        if s > 1 and len(tables[s]) <= s * ((1 << tau) - 1) and len(tables[s]) * seen.size <= bound:
            plan = [(members, tables[s])]
            if tally is not None:
                tally["group step"] += 1
        else:
            plan = [([c], tables[1]) for c in members]
            if tally is not None:
                tally["split group"] += s > 1
        sources = seen
        for group, rows in plan:
            if sources.size == 0:
                break
            new, parent, picked = step(rows, col, sources)
            if new.size:
                layer_maps.append((group, new, parent, picked, rows))
                seen = np.union1d(seen, new)
                if seen.size > budget:
                    return f"{seen.size} profiles exceed the budget of {budget}"
            sources = new

    final = unpack(seen)
    ok = (final[:, 2 * tau - 1 :] == x).all(axis=1)
    if not conservative:
        ok &= (final[:, tau : 2 * tau - 1] == ell).all(axis=1)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None, int(seen.size)
    target = int(seen[hits[0]])
    committees = [set() for _ in range(tau)]
    for group, keys, parents, picked, rows in reversed(layer_maps):
        if target == 0:
            break
        pos = int(np.searchsorted(keys, target))
        if pos < keys.size and int(keys[pos]) == target:
            # stage 1 takes the first members; each next stage keeps the first
            # shared ones of the stage before and adds the first others
            sizes, changes = rows[picked[pos]]
            stage = group[: sizes[0]]
            committees[0].update(stage)
            for t in range(1, tau):
                a, b, d = sizes[t - 1], sizes[t], changes[t - 1]
                if not conservative and d == ell:
                    # maybe clipped: the largest change the twins allow
                    d = max(a + b - 2 * i for i in range(max(0, a + b - len(group)), min(a, b) + 1))
                shared = (a + b - d) // 2
                stage = sorted(stage[:shared] + [c for c in group if c not in stage][: b - shared])
                committees[t].update(stage)
            target = int(parents[pos])
    assert target == 0
    return tuple(frozenset(s) for s in committees), int(seen.size)


def _dp_draws(trials, max_tau, max_m, max_k, min_tau=1, salt=0):
    """Random (instance, budget) draws for the dp-tau reference comparison.

    Every fifth instance carries one weight beyond int64.
    """
    rng = random.Random(9 + salt)
    for trial in range(trials):
        variant, tau = rng.choice("CR"), rng.randint(min_tau, max_tau)
        n, m, k = rng.randint(1, 6), rng.randint(1, max_m), rng.randint(1, max_k)
        inst = random_instance(
            n, m, tau, k, rng.randint(0, 2 * k + 1), rng.randint(1, n), variant,
            abstain_probability=rng.choice((0, 0.2, 0.5)), seed=trial + 1000 * salt,
        )
        if trial % 5 == 0:
            # weights beyond int64 reach the solver only clipped at x
            rows = [list(row) for row in inst.counts]
            rows[rng.randrange(tau)][rng.randint(1, m)] = 2**63 + rng.randrange(2**64)
            inst = WeightedInstance(variant, m, rows, k, inst.ell, inst.x)
        yield inst, rng.choice((rng.randint(1, 300), DEFAULT_BUDGET))


def _check_dp_against_reference(draws, bound=1 << 18):
    """Witness, states or budget message of every draw equal _dp_reference's."""
    seen = Counter()
    for inst, budget in draws:
        seen["weighted"] += isinstance(inst, WeightedInstance)
        cols = [tuple(row[c] for row in inst.counts) for c in range(1, inst.m + 1)]
        if inst.variant == "C":
            cols = [col for col in cols if any(col)]
        seen["repeated"] += any(a == b for a, b in zip(cols, cols[1:]))
        # twins apart: a column that comes back after another one
        seen["non-adjacent"] += any(a != b and a in cols[:i] for i, (a, b) in enumerate(zip(cols[1:], cols), 1))
        tally = Counter()
        expected = _dp_reference(inst, budget, bound, tally)
        seen["group step"] += tally["group step"] > 0
        seen["split group"] += tally["split group"] > 0
        if isinstance(expected, str):
            seen["budget"] += 1
            with pytest.raises(BudgetExceededError) as err:
                solve_dp_tau(inst, budget=budget)
            assert str(err.value) == expected, (inst, budget)
            continue
        seen["yes" if expected[0] else "no"] += 1
        rep = solve_dp_tau(inst, budget=budget)
        assert (rep.witness, rep.stats["states"]) == expected, (inst, budget)
        assert rep.answer == (rep.witness is not None)
    return seen


def test_dp_matches_fingerprint_reference():
    seen = _check_dp_against_reference(_dp_draws(600, 4, 7, 3))
    cases = ("weighted", "repeated", "non-adjacent", "group step", "split group", "budget", "yes", "no")
    assert min(seen[case] for case in cases) >= 20, seen


def test_dp_matches_fingerprint_reference_over_five_stages():
    # 31 fingerprints per candidate
    seen = _check_dp_against_reference(_dp_draws(100, 5, 5, 2, min_tau=5, salt=1))
    assert min(seen[case] for case in ("weighted", "budget", "yes", "no")) >= 5, seen


@pytest.mark.parametrize("bound, every", [(1, 10), (7, 5)])
def test_dp_expansion_in_small_blocks_matches_reference(monkeypatch, bound, every):
    # a bound of 1 makes every key its own block; 7 groups whole table rows
    # when the sources are few and splits each row when they are many. Both
    # send groups of twins whose table exceeds the bound member by member
    monkeypatch.setattr(solvers, "_CALL_ELEMENTS", bound)
    expand, shapes = solvers._expand, Counter()

    def counted(np, touched, room, packed, kept):
        if packed.size > bound:
            shapes["split rows"] += 1
        elif max(1, bound // packed.size) < touched.shape[0]:
            shapes["several rows"] += 1
        return expand(np, touched, room, packed, kept)

    monkeypatch.setattr(solvers, "_expand", counted)
    draws = itertools.islice(_dp_draws(700, 4, 7, 3), 0, None, every)
    seen = _check_dp_against_reference(draws, bound)
    assert min(seen[case] for case in ("budget", "yes", "no", "split group")) >= 3, seen
    assert shapes["split rows"] >= 20 and shapes["several rows"] >= 20, (seen, shapes)


@pytest.mark.parametrize("bound", [8, 32])
def test_dp_states_do_not_depend_on_candidate_order(monkeypatch, bound):
    # with a small block, whether a group of twins steps at once or member
    # by member depends on the states the groups before it left, so new
    # candidate ids can change the path; the states reached must not change
    monkeypatch.setattr(solvers, "_CALL_ELEMENTS", bound)
    expand, shapes = solvers._expand, []

    def counted(np, touched, room, packed, kept):
        shapes.append(touched.shape)
        return expand(np, touched, room, packed, kept)

    monkeypatch.setattr(solvers, "_expand", counted)
    rng = random.Random(30)
    seen = Counter()
    for trial in range(300):
        variant, n, k = "CR"[trial % 2], rng.randint(1, 3), rng.randint(1, 2)
        inst = random_instance(
            n, rng.randint(6, 10), rng.randint(2, 3), k, rng.randint(0, 2 * k), 1, variant,
            abstain_probability=0.4, seed=trial + 3000,
        )
        ids = list(range(1, inst.m + 1))
        rng.shuffle(ids)
        ballots = tuple(tuple(ids[c - 1] if c else 0 for c in row) for row in inst.ballots)
        relabelled = Instance(variant, inst.m, ballots, inst.k, inst.ell, inst.x)
        reports, paths = [], []
        for case in (inst, relabelled):
            shapes.clear()
            reports.append(solve_dp_tau(case))
            paths.append(sorted(shapes))
        base, other = reports
        assert (other.answer, other.stats["states"]) == (base.answer, base.stats["states"]), (inst, ids)
        if other.answer:
            assert verify(relabelled, other.witness) == [], (inst, ids)
        seen["paths differ"] += paths[0] != paths[1]
        seen["yes" if base.answer else "no"] += 1
    assert min(seen.values()) >= 25, seen


def test_layered_dense_layers_agree_with_brute_force():
    # x = 1 and ell = 1 make nearly every committee a node and most pairs arcs
    for seed in range(4):
        inst = random_instance(12, 14, 3, 3, 1, 1, "R", seed=seed)
        rep = solve_layered_k(inst)
        assert rep.answer == brute_force(inst).answer
        if rep.answer:
            assert verify(inst, rep.witness) == []


def test_layered_pool_over_64_candidates(monkeypatch):
    # more than 64 approved candidates: committee masks span two words
    insts = [random_instance(80, 130, 3, 2, 1, 3, "C", seed=seed) for seed in (1, 4)]
    truths = [brute_force(inst).answer for inst in insts]
    assert all(truths)
    # the only solution runs through candidates beyond the first word
    lone = Instance(
        variant="R", m=130, ballots=((70, 100, 0), (100, 129, 0), (129, 130, 0)),
        k=2, ell=2, x=2,
    )
    for path in _on_each_scan_path(monkeypatch):
        for inst, truth in zip(insts, truths):
            rep = solve_layered_k(inst)
            assert rep.answer == truth, path
            assert verify(inst, rep.witness) == []
        rep = solve_layered_k(lone)
        expected = (frozenset({70, 100}), frozenset({100, 129}), frozenset({129, 130}))
        assert rep.witness == expected, path
        assert verify(lone, rep.witness) == []


def _rows(layer):
    """A layer array's rows as int masks, low word first."""
    return [sum(int(word) << 64 * j for j, word in enumerate(row)) for row in layer]


def _pass_inputs(counts, pool, k):
    """:func:`solvers._feasible_layers`'s ``weights`` and ``top``: each
    stage's counts over ``pool``, and the largest sum of ``max(k, 1)`` of
    one stage's."""
    weights = [[row[c] for c in pool] for row in counts]
    return weights, max(sum(sorted(row, reverse=True)[: max(k, 1)]) for row in weights)


def test_feasible_layers_match_feasible_masks(monkeypatch):
    # the numpy pass lists each stage's committees in _feasible_masks's order,
    # also in blocks of 5 children, which cut every level into many blocks
    # and leave some empty
    rng = random.Random(8)
    seen = Counter()
    for trial in range(300):
        monkeypatch.setattr(solvers, "_CALL_ELEMENTS", 5 if trial % 2 else 1 << 18)
        n = rng.choice((0, 1, 5, 14, 64, 70))
        m = n + rng.randint(0, 2)
        pool = sorted(rng.sample(range(1, m + 1), n))
        k = rng.choice((0, 1, 2, n, n + 1)) if n <= 5 else rng.randint(0, 3 if n <= 14 else 2)
        high = rng.choice((0, 1, 4, 2**40))
        counts = [
            (0, *(rng.randint(0, high) if rng.random() < 0.6 else 0 for _ in range(m)))
            for _ in range(rng.randint(1, 4))
        ]
        x = rng.choice((-3, 0, 1, rng.randint(1, 3 * high + 1), 10**30))
        weights, top = _pass_inputs(counts, pool, k)
        layers = solvers._feasible_layers(weights, top, k, x)
        expected = [feasible_masks(row, pool, k, x) for row in counts]
        # no stage reaches an x above every top-k sum: None, before numpy
        seen["x > top"] += x > top
        if x > top:
            assert layers is None and not any(expected), (pool, k, x, counts)
            continue
        assert [_rows(layer) for layer in layers] == expected, (pool, k, x, counts)
        words = max(1, -(-n // 64))
        assert all(layer.dtype == "uint64" and layer.shape[1:] == (words,) for layer in layers)
        seen["x <= 0"] += x <= 0
        seen["k = 0"] += k == 0
        seen["k >= pool"] += 0 < n <= k
        seen["empty pool"] += n == 0
        seen["zero rows"] += any(not any(row) for row in counts)
        seen["pool > 64"] += n > 64
        seen["committees"] += sum(map(len, expected)) > 0
    assert min(seen.values()) >= 15, seen


# (spec, witness, states, layer sizes) of solve_layered_k on the ROADMAP's
# named instances, whose committee spaces exceed SCAN_PYTHON_MAX
_NAMED_LAYERED = [
    (("C", 30, 60, 5, 4, 2, 7, 6), None, 367_938, [1745, 205, 595, 1745, 1089]),
    (
        ("R", 40, 40, 8, 3, 2, 6, 5),
        ((1, 2, 12), (1, 3, 6), (1, 3, 12), (1, 2, 20), (1, 2, 8), (1, 6, 9), (1, 11, 16), (1, 4, 7)),
        12_320,
        [956, 522, 999, 615, 906, 922, 690, 1028],
    ),
    (
        ("C", 40, 40, 8, 3, 2, 6, 5),
        ((3, 11, 12), (3, 11, 27), (11, 12, 27), (11, 27, 28), (7, 11, 28), (7, 9, 11), (4, 7, 11), (1, 4, 7)),
        1_503_436,
        [956, 522, 999, 615, 906, 922, 690, 1028],
    ),
]


def test_layered_pins_the_named_instances_on_every_path(monkeypatch):
    for (variant, n, m, tau, k, ell, x, seed), witness, states, sizes in _NAMED_LAYERED:
        inst = random_instance(n, m, tau, k, ell, x, variant, seed=seed)
        expected = (witness and tuple(map(frozenset, witness)), states, sizes)
        rep = solve_layered_k(inst)
        assert (rep.witness, rep.stats["states"], rep.stats["layer_sizes"]) == expected
        for path in _on_each_scan_path(monkeypatch):
            rep = solve_layered_k(inst)
            assert (rep.witness, rep.stats["states"], rep.stats["layer_sizes"]) == expected, path


def test_layered_lists_and_bounds_from_one_stage_table(monkeypatch):
    # on every path, the listing (the numpy pass, _feasible_masks stage by
    # stage, or both) and the conservative score bound read the row objects
    # of one table: each stage's counts over the pool, built once per solve
    inst = random_instance(12, 18, 4, 3, 1, 3, "C", seed=0)
    pool = solvers._approved(inst.counts)
    for path in _on_each_scan_path(monkeypatch):
        listed, bounded = [], []
        layers, masks, parentless = (
            getattr(solvers, name) for name in ("_feasible_layers", "_feasible_masks", "_parentless")
        )

        def listing_layers(weights, top, k, x):
            listed.extend(weights)
            return layers(weights, top, k, x)

        def listing_masks(weights, k, x):
            listed.append(weights)
            return masks(weights, k, x)

        def bounding(np, layer, weights, k, ell, x):
            bounded.append(weights)
            return parentless(np, layer, weights, k, ell, x)

        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_feasible_layers", listing_layers)
            patch.setattr(solvers, "_feasible_masks", listing_masks)
            patch.setattr(solvers, "_parentless", bounding)
            rep = solve_layered_k(inst)
        assert rep.answer and verify(inst, rep.witness) == [], path
        table = list({id(row): row for row in listed}.values())
        assert table == [[row[c] for c in pool] for row in inst.counts], path
        assert all(any(row is own for own in table) for row in bounded), path
        # Python-listed layers with few pairs take no bound; both numpy scans do
        assert bool(bounded) == (path != "python"), path


def test_layered_weights_beyond_int64_match_the_python_path(monkeypatch):
    # 40 candidates and k = 3: a committee space of 10,701, above
    # SCAN_PYTHON_MAX; scores of 2**70 would wrap to 0 in int64, and
    # top-3 sums of 3 * 2**61 per stage leave no room for the offset bounds,
    # so both take plain Python, as does x = 2**80, above every stage's
    # top-3 sum, while 2**40 with x = 2**41 stays in numpy
    rng = random.Random(2)
    cases = ((2**70, 2**71, False), (2**61, 2**62, False), (2**40, 2**80, False), (2**40, 2**41, True))
    for high, x, in_numpy in cases:
        rows = [(0, *(rng.choice((0, 0, high, 3 * high // 2)) for _ in range(40))) for _ in range(3)]
        inst = WeightedInstance("R", 40, rows, 3, 2, x)
        layers = solvers._feasible_layers(*_pass_inputs(inst.counts, range(1, 41), 3), 3, x)
        assert (layers is not None) == in_numpy, high
        rep = solve_layered_k(inst)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "SCAN_PYTHON_MAX", 10**12)
            python = solve_layered_k(inst)
        got = (rep.answer, rep.witness, rep.stats["states"], rep.stats["layer_sizes"])
        assert got == (python.answer, python.witness, python.stats["states"], python.stats["layer_sizes"])
        assert rep.answer == (x < 2**80), high
        if rep.answer:
            assert verify(inst, rep.witness) == []


def test_layered_conservative_weights_beyond_int64_skip_the_score_bound(monkeypatch):
    # the conservative twin: weights of 2**70 list their layers in Python,
    # but 1,904,290 states' worth of pairs take the numpy scan, where the
    # score bound's int64 sums would overflow, so it is skipped
    rng = random.Random(1)
    rows = [(0, *(rng.choice([0, 0, 1, 2]) * 2**70 for _ in range(40))) for _ in range(3)]
    inst = WeightedInstance("C", 40, rows, 3, 2, 2**71)
    assert solvers._feasible_layers(*_pass_inputs(inst.counts, range(1, 41), 3), 3, inst.x) is None
    rep = solve_layered_k(inst)
    assert (rep.answer, rep.stats["states"], rep.stats["layer_sizes"]) == (True, 1_904_290, [4651, 4899, 3959])
    assert verify(inst, rep.witness) == []
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "SCAN_PYTHON_MAX", 10**12)
        python = solve_layered_k(inst)
    assert (rep.witness, rep.stats["states"]) == (python.witness, python.stats["states"])


def test_score_bound_rules_out_only_parentless_committees(monkeypatch):
    # every committee the conservative score bound flags has no committee
    # within ell among the previous stage's feasible ones, pair by pair;
    # every other trial reads the rows in blocks of 3
    import numpy as np

    rng = random.Random(29)
    seen = Counter()
    for trial in range(400):
        monkeypatch.setattr(solvers, "_CALL_ELEMENTS", 3 if trial % 2 else 1 << 18)
        n = rng.choice((1, 4, 9, 20, 70))
        k = rng.choice((1, 2, n, n + 1)) if n <= 9 else rng.randint(1, 3 if n <= 20 else 2)
        ell, high = rng.randint(0, 4), rng.choice((1, 3, 9))
        zeros = rng.choice((0.2, 0.8))  # the share of zero weights
        prev_row, row = (
            (0, *(rng.randint(1, high) if rng.random() > zeros else 0 for _ in range(n))) for _ in range(2)
        )
        x = rng.choice((-1, 0, rng.randint(1, 2 * high), rng.randint(1, k * high)))
        pool = range(1, n + 1)
        prev, layer = (feasible_masks(r, pool, k, x) for r in (prev_row, row))
        words = max(1, -(-n // 64))
        flagged = solvers._parentless(
            np, solvers._layer_array(np, layer, words), np.array(prev_row[1:], dtype=np.int64), k, ell, x
        )
        assert flagged.shape == (len(layer),)
        for a, ruled_out in zip(layer, flagged.tolist()):
            if ruled_out:
                assert all((a ^ b).bit_count() > ell for b in prev), (prev_row, row, k, ell, x, a)
        seen["flagged"] += int(flagged.sum())
        seen["kept"] += len(layer) - int(flagged.sum())
        seen["x <= 0"] += x <= 0
        seen["k >= pool"] += k >= n
        seen["zero-heavy"] += zeros > 0.5
        seen["pool > 64"] += n > 64
        seen[f"ell {ell}"] += 1
    assert min(seen.values()) >= 15, seen


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def test_auto_checks_the_budget_before_routing(monkeypatch):
    # the budget rule runs first: neither routing test is reached
    def unexpected(*args):
        raise AssertionError("solve_auto routed before checking its budget")

    monkeypatch.setattr(solvers, "_decoupled", unexpected)
    monkeypatch.setattr(solvers, "_hopeless", unexpected)
    for budget in (-1, 1.5, None):
        with pytest.raises(ValueError) as err:
            solve_auto(e1("C", ell=1), budget=budget)
        assert str(err.value) == f"budget must be a non-negative integer, got {budget!r}"


def test_auto_uses_greedy_when_decoupled():
    rep = solve_auto(e1("C", ell=2))
    assert rep.algorithm == "greedy"
    rep = solve_auto(e1("C", ell=1))
    assert rep.algorithm != "greedy"


def test_auto_answers_ell_beyond_2k_without_search():
    rep = solve_auto(e1("R", ell=3))
    assert (rep.answer, rep.algorithm, rep.stats["states"]) == (False, "dp-tau", 0)
    assert rep.stats["stage"] == 0
    # ell = 2k is still reachable, so the rule must not fire there
    rep = solve_auto(e1("R", ell=2))
    assert rep.answer is True and rep.algorithm != "dp-tau"


@pytest.mark.parametrize("variant", ["C", "R"])
def test_auto_answers_a_short_middle_stage_without_search(variant):
    # stages 2 and 3 have no candidate approved twice, so with k = 1 their
    # best committee scores 1 < x; stage 2 is the first short one
    ballots = ((1, 1), (0, 2), (1, 2), (2, 2))
    inst = Instance(variant=variant, m=2, ballots=ballots, k=1, ell=1, x=2)
    assert not solvers._decoupled(inst)
    rep = solve_auto(inst)
    assert (rep.answer, rep.algorithm, rep.stats["states"]) == (False, "dp-tau", 0)
    assert rep.stats["stage"] == 2
    assert brute_force(inst).answer is False


def _top_sums(inst):
    """Each stage's best score over committees of at most k members, by listing them."""
    committees = list(itertools.combinations(range(1, inst.m + 1), min(inst.k, inst.m)))
    return [max(sum(row[c] for c in committee) for committee in committees) for row in inst.counts]


def _hopeless_reference(inst):
    short = [t for t, best in enumerate(_top_sums(inst), start=1) if best < inst.x]
    if short:
        return short[0]
    if inst.variant == "R" and inst.tau >= 2 and inst.ell > 2 * inst.k:
        return 0
    return None


def test_hopeless_matches_listed_committees():
    rng = random.Random(31)
    seen = Counter()
    for trial in range(600):
        variant, tau = rng.choice("CR"), rng.randint(1, 4)
        n, m, k = rng.choice((0, 1, 2, 3, 5)), rng.randint(1, 6), rng.randint(1, 4)
        ell = rng.choice((0, 1, 2 * k, 2 * k + 1, rng.randint(0, 2 * k + 2)))
        inst = random_instance(
            n, m, tau, k, ell, rng.randint(1, max(1, n)), variant,
            abstain_probability=rng.choice((0, 0.2)), seed=trial,
        )
        if trial % 4 == 0:
            scale = 2**70
            rows = [[w * scale for w in row] for row in inst.counts]
            inst = WeightedInstance(variant, m, rows, k, ell, inst.x * scale - rng.randint(0, 1))
            seen["2**70"] += 1
        rule = _hopeless(inst)
        assert rule == _hopeless_reference(inst), inst
        if rule is not None:
            assert brute_force(inst).answer is False, inst
        if solvers._decoupled(inst):
            assert solve_unconstrained(inst).answer == (rule is None), inst
            seen["decoupled"] += 1
        seen["k >= m"] += k >= m
        seen["no agents"] += n == 0
        seen["stage" if rule else "none" if rule is None else "ell > 2k"] += 1
    assert min(seen.values()) >= 25, seen


@st.composite
def _small_instances(draw):
    """A small instance of either variant, from ballots, from counts or weighted."""
    variant = draw(st.sampled_from("CR"))
    m, tau, k = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ell = draw(st.integers(0, 2 * k + 1))
    build = draw(st.sampled_from(("ballots", "counts", "weights")))
    if build == "ballots":
        n = draw(st.integers(0, 3))
        row = st.lists(st.integers(0, m), min_size=n, max_size=n)
        ballots = draw(st.lists(row, min_size=tau, max_size=tau))
        return Instance(variant, m, ballots, k, ell, draw(st.integers(1, n + 1)))
    row = st.lists(st.integers(0, 2), min_size=m, max_size=m)
    counts = [[0, *row] for row in draw(st.lists(row, min_size=tau, max_size=tau))]
    if build == "counts":
        n = max(map(sum, counts)) + draw(st.integers(0, 1))
        return Instance._of_counts(variant, m, counts, n, k, ell, draw(st.integers(1, n + 1)))
    scale = draw(st.sampled_from((1, 2**70)))
    weights = [[w * scale for w in row] for row in counts]
    return WeightedInstance(variant, m, weights, k, ell, draw(st.integers(1, 5)) * scale)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_small_instances())
def test_auto_agrees_with_brute_force_on_small_instances(inst):
    rep = solve_auto(inst)
    assert rep.answer == brute_force(inst).answer
    if rep.answer:
        assert verify(inst, rep.witness) == []
    if _hopeless(inst) is not None:
        assert rep.answer is False


def test_auto_reports_all_failures_when_budget_too_small():
    inst = random_instance(4, 8, 6, 3, 2, 1, "C", seed=13)
    with pytest.raises(BudgetExceededError) as err:
        solve_auto(inst, budget=3)
    assert "layered-k" in str(err.value)
    assert "dp-tau" in str(err.value)


def test_auto_on_weird_corners():
    # k >= m: everything fits in one committee
    inst = Instance(variant="C", m=2, ballots=((1, 2), (2, 1)), k=3, ell=0, x=2)
    assert solve_auto(inst).answer is True
    # x > n can never be met
    inst = Instance(variant="C", m=2, ballots=((1, 1), (1, 1)), k=1, ell=0, x=3)
    assert solve_auto(inst).answer is False
    # revolutionary ell > 2k is impossible once tau >= 2
    inst = Instance(variant="R", m=4, ballots=((1, 2), (3, 4)), k=1, ell=3, x=1)
    assert solve_auto(inst).answer is False
    assert solve_dp_tau(inst).answer is False


def test_inout_handles_zero_splits():
    # ell > 2k: no in/out split exists, immediate no
    inst = Instance(variant="R", m=4, ballots=((1, 2), (3, 4)), k=1, ell=3, x=1)
    rep = solve_inout_ell(inst)
    assert rep.answer is False
    # ell > m: same, even though ell <= 2k
    inst = Instance(variant="R", m=1, ballots=((1,), (1,)), k=2, ell=3, x=1)
    assert solve_inout_ell(inst).answer is False
    assert brute_force(inst).answer is False


def test_exhaustive_tiny_grid():
    """Every ballot matrix on 2 agents, 2 candidates, 2 stages."""
    entries = [0, 1, 2]
    for b1 in itertools.product(entries, repeat=2):
        for b2 in itertools.product(entries, repeat=2):
            for variant, ell in (("C", 0), ("C", 1), ("R", 1), ("R", 2)):
                inst = Instance(
                    variant=variant, m=2, ballots=(b1, b2), k=1, ell=ell, x=1
                )
                truth = brute_force(inst).answer
                assert solve_layered_k(inst).answer == truth, inst
                assert solve_dp_tau(inst).answer == truth, inst
                assert solve_auto(inst).answer == truth, inst
                if variant == "R":
                    assert solve_inout_ell(inst).answer == truth, inst
