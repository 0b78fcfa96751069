import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

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


def _listed_empty(weights, k, x):
    """:func:`_feasible_masks` where the numpy pass leaves it only the
    layers of an instance whose stages all stay below ``x``."""
    masks = _feasible_masks(weights, k, x)
    assert not masks, "layered-k took the other path"
    return masks


# the real functions, which the table path's stand-in calls
_FEASIBLE_LAYERS, _LISTING_PASS = solvers._feasible_layers, solvers._listing_pass


def _building_only(np, weights, k, x, span):
    """:func:`solvers._listing_pass` where it may only build a committee table:
    over one all-zero stage at ``x = 0``."""
    assert weights.shape[0] == 1 and not weights.any() and x == 0, "listed a stage by the pass"
    return _LISTING_PASS(np, weights, k, x, span)


def _tabled(weights, top, k, x):
    """:func:`solvers._feasible_layers` with its table branch for every
    committee space, and its numpy pass only building tables."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "SCAN_PYTHON_MAX", 10**12)
        patch.setattr(solvers, "_listing_pass", _building_only)
        return _FEASIBLE_LAYERS(weights, top, k, x)


def _no_join(np, n, k, ell):
    """:func:`solvers._subset_join`'s answer where the key space exceeds its cap."""
    return ()


# layered-k's paths, each as the SCAN_PYTHON_MAX that forces it and the
# stand-ins it puts in place of solvers functions: plain Python end to end,
# up to SCAN_PYTHON_MAX committees in the pool and committee pairs; the
# numpy pass with the numpy scan; the committee table with the numpy scan;
# and the numpy pass with the pair scan (_scan_arcs, after the score bound)
# on every transition, where the other numpy paths join a conservative
# transition against more than 64 reachable committees on subset keys. The
# last three leave to Python only the empty layers of an x that no stage
# reaches
_SCAN_PATHS = {
    "python": (10**12, {"_scan_arcs": _unexpected_path, "_feasible_layers": _unexpected_path}),
    "numpy": (0, {"_first_links": _unexpected_path, "_feasible_masks": _listed_empty}),
    "table": (
        0,
        {"_first_links": _unexpected_path, "_feasible_masks": _listed_empty, "_feasible_layers": _tabled},
    ),
    "pair scan": (
        0,
        {"_first_links": _unexpected_path, "_feasible_masks": _listed_empty, "_subset_join": _no_join},
    ),
}


def _on_each_scan_path(monkeypatch, paths=tuple(_SCAN_PATHS)):
    """Force layered-k onto each of ``paths`` in turn, yielding the path's name.

    The other paths' enumeration and scan fail if they are called.
    """
    for path in paths:
        cap, replaced = _SCAN_PATHS[path]
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
        assert str(err.value) == f"nodes and examined arcs exceed the budget of {states - 1}", path
    # the up-front refusal names the committees it compared: 93 of at most
    # 3 members from the 8 approved candidates, at each of 6 stages
    with pytest.raises(BudgetExceededError) as err:
        solve_layered_k(inst, budget=557)
    assert str(err.value) == "558 committees over all stages exceed the budget of 557"
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


def test_refusals_of_sizes_too_long_to_print():
    # an up-front refusal names the number it compared, here thousands of
    # digits long, past CPython's 4,300-digit limit on printing an int; each
    # is printed as a power of ten, so every one is a BudgetExceededError
    wide = random_instance(2, 20000, 3, 10000, 3000, 1, "R", seed=0)
    tall = random_instance(2, 6, 20000, 3, 1, 1, "R", seed=0)
    cases = [
        (solve_layered_k, wide, "over 10^6020 committees over all stages exceed the budget of 100"),
        (brute_force, wide, "over 10^6020 committees per stage exceed the budget of 100"),
        (solve_inout_ell, wide, "over 10^9145 middle-layer nodes and arcs exceed the budget of 100"),
        (solve_dp_tau, tall, "profile space of size over 10^24082 cannot be packed into 64-bit keys"),
    ]
    for solver, inst, text in cases:
        with pytest.raises(BudgetExceededError) as err:
            solver(inst, budget=100)
        assert str(err.value) == text, solver.__name__
    # solve_auto prints its estimates by the same rule
    with pytest.raises(BudgetExceededError) as err:
        solve_auto(random_instance(2, 6, 20000, 3, 1, 1, "C", seed=0), budget=100)
    assert str(err.value) == (
        "layered-k (estimate 4320000): 840000 committees over all stages exceed the budget of 100; "
        "dp-tau (estimate over 10^24082): profile space of size over 10^24082 cannot be packed "
        "into 64-bit keys; brute (estimate over 10^32464): 105000 blocks of 8 committees over "
        "all stages exceed the budget of 100"
    )


def test_refusals_come_before_work_that_grows_with_k():
    # in/out-ell's up-front bound sums whichever has fewer terms: its split
    # sizes' combs, or their complement's, and dp-tau rules out a twin
    # table by a lower bound on its rows before counting them; at k = 10,000
    # and 2,000 the two refusals took 8.6 s and 4.8 s when they summed
    # every term and counted every row
    cases = [
        (
            solve_inout_ell,
            random_instance(2, 20000, 3, 10000, 10000, 1, "R", seed=0),
            "over 10^18057 middle-layer nodes and arcs exceed the budget of 100",
        ),
        (solve_dp_tau, random_instance(2, 4000, 2, 2000, 1, 1, "R", seed=0), "108 profiles exceed the budget of 100"),
    ]
    for solver, inst, text in cases:
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as err:
            solver(inst, budget=100)
        assert str(err.value) == text, solver.__name__
        assert time.perf_counter() - start < 1, solver.__name__
    # both forms of the split sum give the direct sum's bound: m 12, k 1-7
    # and every ell from 1 to 2k + 1, where each form is the shorter one
    forms = Counter()
    for k in range(1, 8):
        for ell in range(1, 2 * k + 2):
            lo, cap = max(0, ell - k), min(k, ell)
            forms["direct" if cap - lo < lo else "closed"] += 1
            _check_inout(random_instance(2, 12, 3, k, ell, 1, "R", seed=ell), 0)
    assert min(forms.values()) >= 20, forms


def test_twin_rows_bound_never_refuses_a_table_that_fits():
    # _twin_rows' lower bound on its rows, checked before it counts them,
    # never refuses a cap its exact count fits: every shape with tau <= 4,
    # s <= 6, k <= 5 and a change top up to 2k + 1
    shapes = 0
    for tau, k, s in itertools.product(range(1, 5), range(1, 6), range(1, 7)):
        for dtop, conservative in itertools.product(range(2 * k + 2), (True, False)):
            rows = solvers._twin_rows(tau, s, k, dtop, conservative, math.inf)
            assert solvers._twin_rows(tau, s, k, dtop, conservative, len(rows)) == rows
            assert solvers._twin_rows(tau, s, k, dtop, conservative, len(rows) - 1) is None
            shapes += 1
    assert shapes == 1920


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
    work = node_count * (tau - 1) + node_count**2 * max(0, tau - 2)
    if work > budget:
        return f"{work} middle-layer nodes and arcs exceed the budget of {budget}"
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
            return f"nodes and examined arcs exceed the budget of {budget}"
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
                    return f"nodes and examined arcs exceed the budget of {budget}"
                out1, in1 = entry[0]
                if not (out1 & out2 or in1 & in2) and feasible(t, in1 | out2, out1 | in2):
                    cur.append(((out2, in2), entry))
                    break
        reach = cur
    goal = None
    for entry in reach:
        states += 1
        if states > budget:
            return f"nodes and examined arcs exceed the budget of {budget}"
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


def _check_inout(inst, budget):
    """Assert that solve_inout_ell at ``budget`` gives _inout_reference's
    result, (witness, states) or a budget error's message, and return it."""
    expected = _inout_reference(inst, budget)
    if isinstance(expected, str):
        with pytest.raises(BudgetExceededError) as err:
            solve_inout_ell(inst, budget=budget)
        assert str(err.value) == expected, (inst, budget)
        return expected
    rep = solve_inout_ell(inst, budget=budget)
    assert (rep.witness, rep.stats["states"]) == expected, (inst, budget)
    assert rep.answer == (rep.witness is not None)
    return expected


def test_inout_matches_three_pass_reference():
    seen = Counter()

    def check(inst, budget):
        expected = _check_inout(inst, budget)
        if isinstance(expected, str):
            seen["scan" if expected.startswith("nodes and examined arcs") else "bound"] += 1
        else:
            seen["yes" if expected[0] else "no"] += 1

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


def _dp_cache_items():
    """Seeded dp-tau (instance, budget) draws whose twin tables share shapes.

    Each draw of tau, k and agents gives three instances per variant: two
    with equal ell and different x, and one whose larger ell gives another
    change top; the third revolutionary one carries a weight beyond int64.
    x is 1 or the tightest the stages allow, so that no instance is a no
    before search.
    """
    rng = random.Random(40)
    for trial in range(8):
        tau, k, n, m = rng.randint(2, 4), rng.randint(1, 2), rng.randint(2, 3), rng.randint(5, 8)
        low, high = rng.randint(0, k), rng.randint(k + 1, 2 * k)
        for variant in "CR":
            for i, ell in enumerate((low, low, high)):
                inst = random_instance(n, m, tau, k, ell, 1, variant, seed=10 * trial + i)
                tight = min(sum(sorted(row[1:])[-k:]) for row in inst.counts)
                inst = Instance(variant, m, inst.ballots, k, ell, (tight, 1, tight)[i])
                if i == 2 and variant == "R":
                    rows = [list(row) for row in inst.counts]
                    rows[rng.randrange(tau)][rng.randint(1, m)] = 2**63 + rng.randrange(2**64)
                    inst = WeightedInstance(variant, m, rows, k, ell, inst.x)
                yield inst, rng.choice((rng.randint(1, 30), DEFAULT_BUDGET, DEFAULT_BUDGET))


def _counting_twin_builds(monkeypatch):
    """Count the twin tables listed and built, and record each expansion's table shape.

    Returns ``(builds, outcome)``: ``outcome(inst, budget)`` solves with
    dp-tau and gives the answer, witness, states and stage, or the budget
    message, with the step tables' shapes in order.
    """
    builds, path = Counter(), []

    def counted(name):
        build = getattr(solvers, name)

        def call(*args):
            out = build(*args)
            if out is not None:  # None: _twin_rows counted past its cap and listed nothing
                builds[name] += 1
            return out

        monkeypatch.setattr(solvers, name, call)

    counted("_twin_rows")
    counted("_twin_table")
    expand = solvers._expand

    def traced(np, touched, room, packed, kept):
        path.append(touched.shape)
        return expand(np, touched, room, packed, kept)

    monkeypatch.setattr(solvers, "_expand", traced)

    def outcome(inst, budget):
        path.clear()
        try:
            rep = solve_dp_tau(inst, budget)
        except BudgetExceededError as err:
            return str(err), tuple(path)
        return rep.answer, rep.witness, rep.stats["states"], rep.stats.get("stage"), tuple(path)

    return builds, outcome


def test_dp_twin_tables_cold_and_warm_agree(monkeypatch):
    # tables are kept by (tau, s, k, dtop, variant) across solves; a cold
    # solve builds its own, and a warm one must take the kept ones and still
    # build x's arrays itself
    monkeypatch.setattr(solvers, "_KEPT", {})
    builds, outcome = _counting_twin_builds(monkeypatch)
    items = list(_dp_cache_items())

    def cold():
        out = []
        for inst, budget in items:
            solvers._KEPT.clear()
            out.append(outcome(inst, budget))
        return out

    expected = cold()
    for (inst, budget), out in zip(items, expected):  # the cold solves are right
        assert (out[0] if isinstance(out[0], str) else out[1:3]) == _dp_reference(inst, budget), inst
    solvers._KEPT.clear()
    assert [outcome(inst, budget) for inst, budget in items] == expected
    shapes = {key[1:] for key in solvers._KEPT}
    builds.clear()
    assert [outcome(inst, budget) for inst, budget in reversed(items)][::-1] == expected
    assert not builds, builds
    # blocks of 8 keys: a table kept from the default block is returned
    # whatever the cap, and a group whose kept table has more rows than its
    # cap steps member by member, as in a cold solve at 8, which keeps its
    # tables too; a budget of 3,000 keeps the many small blocks few
    twins, past_cap = solvers._twins, Counter()

    def recorded(np, tau, s, k, dtop, conservative, cap, *budget):
        table = twins(np, tau, s, k, dtop, conservative, cap, *budget)
        past_cap[table is not None and table[0].shape[0] > cap] += 1
        return table

    monkeypatch.setattr(solvers, "_twins", recorded)
    monkeypatch.setattr(solvers, "_CALL_ELEMENTS", 8)
    items = [(inst, min(budget, 3000)) for inst, budget in items]
    assert [outcome(inst, budget) for inst, budget in items] == cold()
    assert solvers._KEPT and past_cap[True] >= 2, past_cap

    seen = Counter("budget" if isinstance(out[0], str) else out[0] for out in expected)
    seen["weighted"] = sum(isinstance(inst, WeightedInstance) for inst, _ in items)
    xs = Counter((inst.variant, inst.tau, inst.k, inst.ell, inst.x) for inst, _ in items)
    seen["x differs"] = len(xs) - len({key[:4] for key in xs})
    # shapes kept for both variants, or for two change tops of one variant's tau and k
    seen["both variants"] = sum((*shape[:4], not shape[4]) in shapes for shape in shapes)
    seen["two change tops"] = len(shapes) - len({shape[:3] + shape[4:] for shape in shapes})
    seen["group steps"] = sum(shape[1] > 1 for shape in shapes)
    assert min(seen.values()) >= 2, seen


def _look_up(np, call):
    """``(table, key)`` of one store lookup through the store's callers:
    ``("committees", n, k)`` or ``("twins", tau, s, k, dtop, conservative, cap)``."""
    kind, *args = call
    if kind == "committees":
        return solvers._committee_table(np, *args), call
    return solvers._twins(np, *args), call[:-1]


def test_kept_tables_are_bounded_and_read_only(monkeypatch):
    # one sweep over both kinds of table, interleaved: small twin tables,
    # committee tables of growing pools, one larger than the whole 4 MiB
    # (8,191 candidates at k = 1, 8.5 MB of masks), one candidate's twin
    # tables at tau 9-12 (72 kB to 0.77 MB), twin shapes counted past
    # their cap, and lookups again of tables kept or evicted. After each
    # lookup the store holds the latest 64 tables built while their arrays
    # take at most 4 MiB together, oldest evicted first, whichever kind
    # the table that evicts and the one evicted are
    import numpy as np

    monkeypatch.setattr(solvers, "_KEPT", {})
    twins = [
        ("twins", tau, s, k, d, c, 4095)
        for tau in (2, 3, 4)
        for s in (1, 2)
        for k in (1, 2, 3)
        for d in range(2 * k + 1)
        for c in (True, False)
    ]
    twins += [("twins", 6, 3, 3, 6, False, 100), ("twins", 7, 2, 2, 4, True, 200)]  # past the cap: None
    committees = [("committees", n, 3) for n in range(12, 37)] + [("committees", 13, 13), ("committees", 127, 2)]
    committees += [("committees", 8191, 1)] + [("committees", n, 2) for n in range(60, 128, 4)]
    committees += [("committees", 5, 5), ("committees", 0, 0)]
    longer = [("twins", tau, 1, 1, 1, c, 4095) for tau in (9, 10, 11, 12) for c in (True, False)]
    calls = [call for pair in itertools.zip_longest(twins[::2], committees) for call in pair if call]
    calls += longer + longer[::-1] + twins[1::2] + committees[:8] + twins[:4]
    model, sizes, seen = [], {}, Counter()
    for call in calls:
        table, key = _look_up(np, call)
        if key in model:
            seen["kept, found again"] += 1
        elif table is None:
            seen["past the cap"] += 1
        elif sum(array.nbytes for array in table) > 4 * 2**20:
            seen["over 4 MiB"] += 1
        else:
            model.append(key)
            sizes[key] = sum(array.nbytes for array in table)
            seen["tau 9-12 kept"] += key[0] == "twins" and key[1] >= 9
            while len(model) > 64 or sum(sizes[old] for old in model) > 4 * 2**20:
                seen["by count" if len(model) > 64 else "by bytes"] += 1
                seen["across kinds"] += model.pop(0)[0] != key[0]
        assert list(solvers._KEPT) == model, call
        assert key not in model or solvers._KEPT[key] is table, call
    assert all(seen[name] for name in ("kept, found again", "past the cap", "over 4 MiB", "by count")), seen
    assert min(seen[name] for name in ("by bytes", "across kinds", "tau 9-12 kept")) >= 2, seen
    big = solvers._committee_table(np, 8191, 1)  # built per call
    assert big[0].nbytes > 4 * 2**20 and solvers._committee_table(np, 8191, 1) is not big
    for key, table in solvers._KEPT.items():
        assert all(isinstance(array, np.ndarray) for array in table), key
        assert not any(array.flags.writeable for array in table), key
        # a kept twin table is returned whatever the cap, 0 included
        assert _look_up(np, (*key, 0) if key[0] == "twins" else key)[0] is table, key


def test_kept_tables_retain_what_the_docs_state(monkeypatch):
    # a full store: 64 tables, one candidate's twin tables over 9 stages
    # (72 kB each) and committee tables of 44-63 candidates at k = 2, 3.7
    # MiB of arrays in all. README and _kept's docstring: the store
    # retains its arrays plus under 1 kB of Python objects per table. The
    # tables are built once before tracing, so that the row tuples a build
    # leaves on CPython's free lists, which the process holds whether or
    # not a table is kept, were allocated before it
    import numpy as np

    monkeypatch.setattr(solvers, "_KEPT", {})
    twins = [(9, 1, k, d, c) for c in (True, False) for k in range(1, 7) for d in range(1, 2 * k + 1)]

    def fill():
        for shape in twins[:44]:
            solvers._twins(np, *shape, 511)
        for n in range(44, 64):
            solvers._committee_table(np, n, 2)

    fill()
    solvers._KEPT.clear()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        fill()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    kept = solvers._KEPT
    arrays = sum(array.nbytes for table in kept.values() for array in table)
    assert len(kept) == 64 and 3.5 * 2**20 < arrays <= 4 * 2**20, (len(kept), arrays)
    assert arrays <= retained < arrays + 64 * 2**10, (retained, arrays)


def _check_twin_rows_rebuild(max_tau):
    # solve_dp_tau's witness walk keeps no rows: it reads a step's row back
    # from its touched line, each level the row takes setting column
    # levels[l] to values[l], the first tau columns the sizes and the rest
    # the changes; every shape with k <= 3, s <= k + 3 and a change top up
    # to 2k + 1 (past s = k + ceil(dtop / 2) the rows no longer grow)
    import numpy as np

    shapes = rows_seen = 0
    for tau in range(1, max_tau + 1):
        for k in (1, 2, 3):
            for s, dtop, conservative in itertools.product(
                range(1, k + 4), range(2 * k + 2), (True, False)
            ):
                rows = solvers._twin_rows(tau, s, k, dtop, conservative, math.inf)
                touched, levels, values, *_ = solvers._twin_table(np, rows, tau, min(s, k), conservative)
                steps = np.zeros((len(rows), 2 * tau - 1), dtype=np.int64)
                for level, column, value in zip(touched.T, levels, values):
                    steps[level == 1, column] = value
                assert [(tuple(row[:tau]), tuple(row[tau:])) for row in steps.tolist()] == rows
                shapes, rows_seen = shapes + 1, rows_seen + len(rows)
    return shapes, rows_seen


def test_dp_twin_rows_rebuild_from_touched():
    assert _check_twin_rows_rebuild(4) == (752, 83582)


@pytest.mark.full_box
def test_dp_twin_rows_rebuild_from_touched_up_to_six_stages():
    assert _check_twin_rows_rebuild(6) == (1128, 3672419)


def test_layered_dense_layers_agree_with_brute_force():
    # x = 1 and ell = 1 make nearly every committee a node and most pairs arcs
    for seed in range(4):
        inst = random_instance(12, 14, 3, 3, 1, 1, "R", seed=seed)
        rep = solve_layered_k(inst)
        assert rep.answer == brute_force(inst).answer
        if rep.answer:
            assert verify(inst, rep.witness) == []


def _layered_outcome(inst, budget):
    try:
        rep = solve_layered_k(inst, budget=budget)
    except BudgetExceededError as err:
        return str(err)
    return rep.answer, rep.witness, rep.stats["states"], rep.stats["layer_sizes"]


@pytest.mark.parametrize(
    "seeds",
    [
        pytest.param(range(200), id="200-draws"),
        pytest.param(range(200, 2200), id="2000-draws", marks=pytest.mark.full_box),
    ],
)
def test_layered_table_matches_plain_python(monkeypatch, seeds):
    # the committee table with the numpy scan against plain Python listing
    # and scan: answers, witnesses, states and layer sizes or the budget
    # error, at budgets states - 1, states (where the up-front refusal
    # often fires) and the default; m 8-24 and k 1-4, so committee spaces
    # of 9 to 12,951, and x at least 1 and at most 2 below the smallest
    # top-k stage sum, so that layers stay small
    seen = Counter()
    for seed in seeds:
        rng = random.Random(seed)
        variant, m, k = rng.choice("CR"), rng.randint(8, 24), rng.randint(1, 4)
        drawn = random_instance(
            rng.randint(2, 8), m, rng.randint(2, 4), k, 0, 1, variant,
            abstain_probability=rng.choice((0.2, 0.6)), seed=seed,
        )
        floor = min(sum(sorted(row[1:], reverse=True)[:k]) for row in drawn.counts)
        inst = Instance(
            variant=variant, m=m, ballots=drawn.ballots, k=k, ell=rng.randint(0, 2 * k),
            x=max(1, floor - rng.randint(0, 2)),
        )
        states = solve_layered_k(inst).stats["states"]
        for budget in (*range(max(0, states - 1), states + 1), DEFAULT_BUDGET):
            got = [_layered_outcome(inst, budget) for _ in _on_each_scan_path(monkeypatch, ("python", "table"))]
            assert got[0] == got[1], (inst, budget)
            seen["refused" if isinstance(got[0], str) else "answered"] += budget < DEFAULT_BUDGET
        seen.update((variant, got[0][0], f"k{k}"))
        seen["space > cap"] += solvers._committees(m, k) > solvers.SCAN_PYTHON_MAX
    assert min(seen.values()) >= len(seeds) // 100, seen


def _join_draw(seed):
    """A seeded conservative instance for the subset-key join sweep."""
    rng = random.Random(seed)
    shape = rng.choice(("k > m", "mid", "mid", "wide"))
    m, k = {
        "k > m": lambda: (rng.randint(2, 6), rng.randint(3, 8)),
        "mid": lambda: (rng.randint(10, 18), rng.randint(2, 4)),
        "wide": lambda: (rng.randint(70, 100), rng.randint(1, 2)),  # often two words
    }[shape]()
    tau = rng.randint(2, 4)
    agents = rng.randint(m, 3 * m) if m > 64 else rng.randint(m // (2 * tau) + 1, 2 * m // tau + 1)
    drawn = random_instance(
        agents, m, tau, k, 0, 1, "C",
        abstain_probability=rng.choice((0.1, 0.4)), seed=seed,
    )
    tops = [sum(sorted(row[1:], reverse=True)[:k]) for row in drawn.counts]
    # x low for wide layers (but near the top for wide pools at k = 2, so
    # that pair scans stay short), near the smallest top-k sum for narrow
    # ones, or above some stage's, whose layer is then empty
    low = rng.randint(1, max(1, min(tops) // 2)) if m <= 64 or k == 1 else min(tops)
    x = rng.choice((low, low, max(1, min(tops) - rng.randint(0, 2)), rng.choice(tops) + 1))
    return Instance(variant="C", m=m, ballots=drawn.ballots, k=k, ell=rng.randint(0, 2 * k + 1), x=x)


def _reach_edge(size, k, ell):
    """A conservative instance whose first stage has ``size`` committees:
    at ``k = 1`` the ``size`` first of 66 candidates, at ``x = 1``; at ``k =
    2`` candidate 1, of weight 2, alone or with any other of ``size``, at
    ``x = 2``, every one approved at stage 2. Pools over 64 take two words."""
    rng = random.Random(size * 8 + k * 3 + ell)
    m = 66 if k == 1 else size
    first = [1] * size + [0] * (m - size) if k == 1 else [2] + [0] * (size - 1)
    rows = [(0, *first), (0, *(rng.randint(k - 1, 2) for _ in range(m))), (0, *(rng.randint(0, 2) for _ in range(m)))]
    return WeightedInstance("C", m, rows, k, ell, k)


@pytest.mark.parametrize(
    "seeds",
    [
        pytest.param(range(200), id="200-draws"),
        pytest.param(range(200, 2200), id="2000-draws", marks=pytest.mark.full_box),
    ],
)
def test_layered_join_matches_pair_scan(monkeypatch, seeds):
    # the subset-key join against the pair scan, both over the numpy pass:
    # answers, witnesses, states and layer sizes or the budget error, at
    # budgets states - 1 and states; the draws cover pools over
    # 64, k > m, ell > k and ell >= 2k, and empty layers, and the fixed
    # edges a first stage of 64 committees, which the pair scan takes, and
    # one of 65, which joins
    joined = []  # the reach sizes joined
    join_parents = solvers._join_parents

    def counted(np, layer, reach, plan):
        joined.append(reach.shape[1])
        return join_parents(np, layer, reach, plan)

    monkeypatch.setattr(solvers, "_join_parents", counted)
    edges = [_reach_edge(size, k, ell) for size in (64, 65) for k in (1, 2) for ell in (0, 1, 2)]
    seen = Counter()
    for inst in [_join_draw(seed) for seed in seeds] + edges:
        rep = solve_layered_k(inst)
        states, sizes, n = rep.stats["states"], rep.stats["layer_sizes"], len(solvers._approved(inst.counts))
        joined.clear()
        for budget in range(max(0, states - 1), states + 1):
            got = [_layered_outcome(inst, budget) for _ in _on_each_scan_path(monkeypatch, ("numpy", "pair scan"))]
            assert got[0] == got[1], (inst, budget)
            seen["refused in a scan"] += got[0] == f"nodes and examined arcs exceed the budget of {budget}"
        if inst in edges:
            # the first transition, from the whole first stage, joins exactly at 65
            assert sizes[0] in (64, 65) and (joined[:1] == [sizes[0]]) == (sizes[0] == 65), sizes
            continue
        seen["joined"] += bool(joined)
        seen[f"answer {rep.answer}"] += 1
        seen["pool > 64"] += bool(joined) and n > 64
        seen["k > m"] += inst.k > inst.m
        seen["ell > k"] += bool(joined) and inst.k < inst.ell < 2 * inst.k
        seen["ell >= 2k"] += bool(joined) and inst.ell >= 2 * inst.k
        seen["empty layers"] += 0 in sizes and sizes.index(0) > 0
    assert min(seen.values()) >= len(seeds) // 100, seen


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


def _carried_digits(mask, seats):
    """The key digits a numpy layer carries for the committee ``mask``:
    ``position + 1`` per member, the last seat first, 0 for an empty seat."""
    members = [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]
    return [0] * (seats - len(members)) + members[::-1]


def _pass_inputs(counts, pool, k):
    """:func:`solvers._feasible_layers`'s ``weights`` and ``top``: each
    stage's counts over ``pool``, and the largest sum of ``max(k, 1)`` of
    one stage's."""
    weights = [[row[c] for c in pool] for row in counts]
    return weights, max(sum(sorted(row, reverse=True)[: max(k, 1)]) for row in weights)


def test_feasible_layers_match_feasible_masks(monkeypatch):
    # both branches list each stage's committees in _feasible_masks's order:
    # the numpy pass (a committee space above SCAN_PYTHON_MAX) and the
    # committee table (at most that), also in blocks of 5 children or of
    # one stage, which cut every pass level into many blocks and leave some
    # empty; the table branch runs the pass only to build its tables. Each
    # layer's digits spell exactly its masks' members
    monkeypatch.setattr(solvers, "_KEPT", {})
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
        expected = [feasible_masks(row, pool, k, x) for row in counts]
        for branch, cap, listing in (("pass", 0, _LISTING_PASS), ("table", 10**12, _building_only)):
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "SCAN_PYTHON_MAX", cap)
                patch.setattr(solvers, "_listing_pass", listing)
                listed = solvers._feasible_layers(weights, top, k, x)
            # no stage reaches an x above every top-k sum: None, before numpy
            if x > top:
                assert listed is None and not any(expected), (branch, pool, k, x, counts)
                continue
            layers, digits = listed
            assert [_rows(layer) for layer in layers] == expected, (branch, pool, k, x, counts)
            words = max(1, -(-n // 64))
            assert all(layer.dtype == "uint64" and layer.shape[1:] == (words,) for layer in layers)
            spelled = [[_carried_digits(mask, min(k, n)) for mask in layer] for layer in expected]
            assert all(seats.shape == (min(k, n), len(layer)) for seats, layer in zip(digits, layers))
            assert [seats.T.tolist() for seats in digits] == spelled, (branch, pool, k, x, counts)
        seen["x > top"] += x > top
        if x > top:
            continue
        seen["x <= 0"] += x <= 0
        seen["k = 0"] += k == 0
        seen["k >= pool"] += 0 < n <= k
        seen["empty pool"] += n == 0
        seen["zero rows"] += any(not any(row) for row in counts)
        seen["pool > 64"] += n > 64
        seen["committees"] += sum(map(len, expected)) > 0
        seen["empty layers"] += not all(expected)
    assert min(seen.values()) >= 15, seen


def test_layered_lists_below_the_cap_in_numpy_only_once_numpy_is_loaded(monkeypatch):
    # committee spaces within SCAN_PYTHON_MAX: the table lists them when
    # numpy is loaded and N**2 * (tau - 1) exceeds the cap, and plain Python
    # otherwise, as in a fresh process that has not loaded numpy or one that
    # blocks it; the answers, witnesses and counts agree
    import numpy  # noqa: F401  (loaded here, whichever tests ran before)

    listed = []
    feasible_layers = solvers._feasible_layers

    def recorded(weights, top, k, x):
        listed.append(len(weights))
        return feasible_layers(weights, top, k, x)

    monkeypatch.setattr(solvers, "_feasible_layers", recorded)
    wide = random_instance(6, 40, 3, 2, 2, 2, "R", seed=0)  # 821 committees, 450 pairs
    # 22 committees: 22**2 * 16 = 7,744 pairs at most over 17 stages, 8,228 over 18
    narrow = [random_instance(3, 6, tau, 2, 1, 2, "R", seed=tau) for tau in (17, 18)]
    for inst, in_numpy in ((wide, True), (narrow[0], False), (narrow[1], True)):
        listed.clear()
        rep = solve_layered_k(inst)
        assert listed == ([inst.tau] if in_numpy else []), inst.tau
        for modules in ({}, {"numpy": None}):  # numpy not loaded, or blocked
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "sys", SimpleNamespace(modules=modules))
                patch.setattr(solvers, "_feasible_layers", _unexpected_path)
                patch.setattr(solvers, "_scan_arcs", _unexpected_path)
                python = solve_layered_k(inst)
            got, expected = ((r.answer, r.witness, r.stats["states"], r.stats["layer_sizes"]) for r in (rep, python))
            assert got == expected and rep.answer, (inst.tau, modules)
    # x = 1 leaves 225 committees a stage, 101,250 pairs: a process without
    # numpy lists them in Python, then hands over and lists them once more
    # through _feasible_layers, with the loaded-numpy run's results
    handed = random_instance(6, 40, 3, 2, 2, 1, "R", seed=0)
    listed.clear()
    rep = solve_layered_k(handed)
    assert listed == [3] and rep.stats["layer_sizes"] == [225, 225, 225]
    listed.clear()
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "sys", SimpleNamespace(modules={}))
        fresh = solve_layered_k(handed)
    assert listed == [3]
    got, expected = ((r.answer, r.witness, r.stats["states"], r.stats["layer_sizes"]) for r in (fresh, rep))
    assert got == expected and rep.answer and verify(handed, rep.witness) == []


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
    # stage, or both) and the conservative score bound, which only the pair
    # scan runs, read the row objects of one table: each stage's counts over
    # the pool, built once per solve
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

        def bounding(np, digits, weights, k, ell, x):
            bounded.append(weights)
            return parentless(np, digits, weights, k, ell, x)

        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_feasible_layers", listing_layers)
            patch.setattr(solvers, "_feasible_masks", listing_masks)
            patch.setattr(solvers, "_parentless", bounding)
            rep = solve_layered_k(inst)
        assert rep.answer and verify(inst, rep.witness) == [], path
        table = list({id(row): row for row in listed}.values())
        assert table == [[row[c] for c in pool] for row in inst.counts], path
        assert all(any(row is own for own in table) for row in bounded), path
        # the numpy paths join their transitions against more than 64
        # reachable committees on subset keys, where misses are exact, so
        # only the pair scan takes the bound; Python scans take none
        assert bool(bounded) == (path == "pair scan"), path


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


def test_layered_conservative_weights_beyond_int64_skip_the_score_bound():
    # the conservative twin: weights of 2**70, which _feasible_layers
    # refuses, so the layers are listed and their 1,904,290 states' worth
    # of pairs scanned in plain Python, with no score bound, whose int64
    # sums would overflow. Its scaled twin, every weight and x shifted
    # right by 70 bits, keeps every feasible set, and numpy lists and joins
    # it: the two routes give the same witness, states and layer sizes
    rng = random.Random(1)
    rows = [(0, *(rng.choice([0, 0, 1, 2]) * 2**70 for _ in range(40))) for _ in range(3)]
    inst = WeightedInstance("C", 40, rows, 3, 2, 2**71)
    scaled = WeightedInstance("C", 40, [[w >> 70 for w in row] for row in rows], 3, 2, 2)
    assert solvers._feasible_layers(*_pass_inputs(inst.counts, range(1, 41), 3), 3, inst.x) is None
    assert solvers._feasible_layers(*_pass_inputs(scaled.counts, range(1, 41), 3), 3, scaled.x) is not None
    rep, numpy = solve_layered_k(inst), solve_layered_k(scaled)
    assert (rep.answer, rep.stats["states"], rep.stats["layer_sizes"]) == (True, 1_904_290, [4651, 4899, 3959])
    assert verify(inst, rep.witness) == []
    got, expected = ((r.witness, r.stats["states"], r.stats["layer_sizes"]) for r in (numpy, rep))
    assert got == expected


def test_score_bound_rules_out_only_parentless_committees(monkeypatch):
    # every committee the conservative score bound flags has no committee
    # within ell among the previous stage's feasible ones, pair by pair;
    # every other trial reads the committees' digits in blocks of at most
    # 3, or of one committee
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
        seats = min(k, n)
        digits = np.array([_carried_digits(a, seats) for a in layer], dtype=np.intp).reshape(-1, seats).T
        flagged = solvers._parentless(np, digits, np.array(prev_row[1:], dtype=np.int64), k, ell, x)
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


class _TracedNumpy:
    """numpy, recording the shape of every ``bitwise_count`` input: one
    ``(rows, columns, words)`` per block of :func:`solvers._scan_arcs`."""

    def __init__(self, np):
        self.np, self.blocks = np, []

    def __getattr__(self, name):
        return getattr(self.np, name)

    def bitwise_count(self, a):
        self.blocks.append(a.shape)
        return self.np.bitwise_count(a)


def _scan_blocks(parents, columns, words, call):
    """The blocks :func:`solvers._scan_arcs`' docstring schedules for rows
    with first parents ``parents`` (-1 for none) among ``columns``: column
    0 alone, then the remaining columns in one block once the rows still
    pending times those columns times ``words`` is at most ``call``, else
    64 columns and then doubling widths up to ``call``; each width in
    blocks of ``max(1, call // (width * words))`` rows."""
    blocks, lo, width, pending = [], 0, 1, len(parents)
    while pending and lo < columns:
        hi = min(columns, lo + width)
        rows = max(1, call // ((hi - lo) * words))
        blocks += [(min(rows, pending - a), hi - lo, words) for a in range(0, pending, rows)]
        pending = sum(not 0 <= p < hi for p in parents)
        rest = columns - hi
        lo, width = hi, rest if pending * rest * words <= call else min(max(2 * width, 64), call)
    return blocks


def test_scan_arcs_matches_pair_by_pair_reference(monkeypatch):
    # _scan_arcs against a row-by-row scan with early exit over int masks
    # of one to three words: parents, states, the budget error at the end
    # count less one and none at the end count, and the blocks its
    # docstring schedules. Each draw runs with _CALL_ELEMENTS just below,
    # at and just above the rows left after column 0 times the remaining
    # columns times the words, so the rest goes in one block from the
    # bound on and in doubling widths below it, and at the default
    import numpy as np

    rng = random.Random(53)
    seen = Counter()
    for trial in range(150):
        words = rng.choice((1, 1, 2, 3))
        positions = rng.sample(range(64 * words), rng.randint(2, 10))
        masks = [
            [sum(1 << p for p in rng.sample(positions, rng.randint(0, min(4, len(positions))))) for _ in range(size)]
            for size in (rng.randint(1, 40), rng.choice((1, 2, 70, rng.randint(3, 300))))
        ]
        conservative, ell, start = rng.random() < 0.5, rng.randint(0, 5), rng.randint(0, 50)
        layer, reach = (
            np.array([[mask >> 64 * w & (2**64 - 1) for w in range(words)] for mask in rows], dtype=np.uint64)
            for rows in masks
        )
        parents, states = [], start
        for a in masks[0]:
            linked = [(d <= ell) if conservative else (d >= ell) for d in ((a ^ b).bit_count() for b in masks[1])]
            parents.append(linked.index(True) if True in linked else -1)
            states += parents[-1] + 1 if parents[-1] >= 0 else len(masks[1])
        bound = sum(p != 0 for p in parents) * (len(masks[1]) - 1) * words
        for call in sorted({max(1, bound - 1), max(1, bound), bound + 1, 1 << 18}):
            monkeypatch.setattr(solvers, "_CALL_ELEMENTS", call)
            traced = _TracedNumpy(np)
            got, end = solvers._scan_arcs(traced, layer, reach, conservative, ell, start, states)
            assert (got.tolist(), end) == (parents, states), (trial, call)
            assert traced.blocks == _scan_blocks(parents, len(masks[1]), words, call), (trial, call)
            with pytest.raises(BudgetExceededError) as err:
                solvers._scan_arcs(np, layer, reach, conservative, ell, start, states - 1)
            assert str(err.value) == f"nodes and examined arcs exceed the budget of {states - 1}"
            if bound and len(masks[1]) > 1:
                seen["one block" if bound <= call else "doubling"] += 1
                seen["at the bound"] += bound == call
        seen["hit at column 0"] += 0 in parents
        seen["hit past column 0"] += any(p > 0 for p in parents)
        seen["miss"] += -1 in parents
        seen[f"{words} words"] += 1
    assert min(seen.values()) >= 15, seen


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_key_masks_match_divmod_reference(n):
    # _key_masks' masks and digits against divmod on Python ints, for
    # pools of one to three mask words, at one seat, two and the most
    # seats whose stage span fits twice below 2**63; the keys carry the
    # offsets of the first stage and the last two stages that
    # _feasible_layers' int64 guard lets through, so the largest is just
    # below 2**63
    import numpy as np

    rng = random.Random(n)
    for k in sorted({1, 2, int(62 / math.log2(n + 1))}):
        span = (n + 1) ** k
        stages = (2**63 - 1) // span  # the most stages the guard lets through
        committees = [(), tuple(range(n - k, n)), (n - 1,)]
        committees += [tuple(sorted(rng.sample(range(n), rng.randint(0, k)))) for _ in range(40)]
        keys = [
            stage * span + sum((p + 1) * (n + 1) ** (k - 1 - i) for i, p in enumerate(members))
            for stage in {0, max(stages - 2, 0), stages - 1}
            for members in committees
        ]
        assert max(keys) < 2**63 and (k == 1 or max(keys) >= 2**62), (n, k)
        masks, digits = solvers._key_masks(np, np.array(keys, dtype=np.int64), n, k, span)
        expected_masks, expected_digits = [], []
        for key in keys:
            rest, mask, seats = key % span, 0, []
            for _ in range(k):
                rest, digit = divmod(rest, n + 1)
                seats.append(digit)
                mask |= 1 << digit - 1 if digit else 0
            expected_masks.append(mask)
            expected_digits.append(seats)
        assert masks.dtype == "uint64" and masks.shape == (len(keys), -(-n // 64))
        assert digits.dtype == np.intp and digits.shape == (k, len(keys))
        assert _rows(masks) == expected_masks, (n, k)
        assert digits.T.tolist() == expected_digits, (n, k)


@pytest.mark.parametrize("variant", "CR")
def test_dp_first_step_refuses_before_listing(monkeypatch, variant):
    # from the empty profile every row of the first step's table is a new
    # profile, so a budget below 1 + rows is refused once the rows are
    # counted, before any is listed or stepped. 40 twins at k = 1 and tau
    # 16-17 step from a table of 2**tau - 1 rows, the group's (C) or, past
    # its cap, one member's (R). At tau 5 a cold table and a kept one both
    # refuse before the step, with the step's message, when the group
    # steps and when its members do (a cap below the group's rows)
    monkeypatch.setattr(solvers, "_KEPT", {})

    def refused(inst, budget):
        with pytest.raises(BudgetExceededError) as err:
            solve_dp_tau(inst, budget)
        return str(err.value)

    def cold(inst, budget):
        monkeypatch.setattr(solvers, "_KEPT", {})
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_twin_table", _unexpected_path)
            patch.setattr(solvers, "_expand", _unexpected_path)
            return refused(inst, budget)

    def kept(inst, budget):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_expand", _unexpected_path)
            return refused(inst, budget)

    for tau in (16, 17):
        inst = WeightedInstance(variant, 40, [[0] + [1] * 40] * tau, 1, 1, 1)
        for budget in (0, 2**tau - 1):
            assert cold(inst, budget) == f"{2**tau} profiles exceed the budget of {budget}"
    inst = WeightedInstance(variant, 40, [[0] + [1] * 40] * 5, 1, 1, 1)
    for call, rows in ((1 << 18, 31 if variant == "C" else 88), (16, 31)):
        monkeypatch.setattr(solvers, "_CALL_ELEMENTS", call)
        monkeypatch.setattr(solvers, "_KEPT", {})
        assert solve_dp_tau(inst).stats["states"] >= rows + 1
        assert any(key[0] == "twins" for key in solvers._KEPT)
        for refusal in (kept, cold):  # cold() leaves no table kept
            for budget in (0, rows):
                assert refusal(inst, budget) == f"{rows + 1} profiles exceed the budget of {budget}"
        try:  # the first step fits, and any later refusal counts more
            solve_dp_tau(inst, rows + 1)
        except BudgetExceededError as err:
            assert int(str(err).split()[0]) > rows + 1
    # only the first step is checked by its table's rows: the second
    # group's table, 33 rows, is stepped over the 16 profiles seen, cold
    # or kept, and refused with the step's own count
    monkeypatch.setattr(solvers, "_CALL_ELEMENTS", 1 << 18)
    counts = [(1, 2, 2, 2, 0, 0), (2, 1, 1, 1, 1, 1), (0, 1, 1, 1, 2, 2), (1, 2, 2, 2, 1, 1)]
    inst = WeightedInstance("C", 6, [[0, *row] for row in counts], 1, 2, 1)
    for budget in (18, 30):
        monkeypatch.setattr(solvers, "_KEPT", {})
        for _ in range(2):  # cold, then kept
            assert refused(inst, budget) == f"58 profiles exceed the budget of {budget}"


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
def _small_instances(draw, variants="CR", max_m=4, max_tau=3):
    """A small instance of a variant in ``variants``, from ballots, from
    counts or weighted, with ``m <= max_m``, ``tau <= max_tau`` and ``k <= 3``."""
    variant = draw(st.sampled_from(variants))
    m, tau = draw(st.integers(1, max_m)), draw(st.integers(1, max_tau))
    k = draw(st.integers(1, 3))
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


def _auto_attempts(inst):
    """``solve_auto``'s ranked attempts past its early exits, as (name,
    estimate) pairs in the order it tries them."""
    tau, k, m, x, ell = inst.tau, inst.k, inst.m, inst.x, inst.ell
    committees = sum(math.comb(m, j) for j in range(min(k, m) + 1))
    rows = [
        ("layered-k", tau * m ** min(k, m)),
        ("dp-tau", (k + 1) ** tau * (min(ell, 2 * k) + 1) ** (tau - 1) * (x + 1) ** tau * m),
    ]
    if inst.variant == "R":
        rows.append(("inout-ell", tau * m ** (2 * min(ell, m))))
    rows.append(("brute", committees**tau))
    return sorted(rows, key=lambda row: row[1])


def _budget_starved():
    """Seeded instances outside greedy's regime and the no-search rule, each
    with a budget every solver runs out of."""
    yield random_instance(4, 8, 6, 3, 2, 1, "C", seed=13), 3
    rng = random.Random(7)
    for trial in range(60):
        variant, tau, k = "CR"[trial % 2], rng.randint(2, 4), rng.randint(1, 4)
        m = rng.randint(k + 1, 30)
        if trial % 3 == 0:  # k >= m over two stages, where brute force can rank first
            tau, m = 2, rng.randint(2, 4)
            k = rng.randint(m, 4)
        ell = rng.randint(1, 2 * k - 1) if variant == "C" else rng.randint(1, min(2 * k, m))
        inst = random_instance(rng.randint(1, 4), m, tau, k, ell, 1, variant, seed=trial)
        yield inst, rng.randint(0, 1)


def test_auto_reports_all_failures_when_budget_too_small():
    # each attempt is named with its estimate, in the order tried, followed
    # by the error that solver raises alone
    solver_of = {
        "layered-k": solve_layered_k,
        "dp-tau": solve_dp_tau,
        "inout-ell": solve_inout_ell,
        "brute": brute_force,
    }
    firsts = Counter()
    for inst, budget in _budget_starved():
        assert not solvers._decoupled(inst) and _hopeless(inst) is None, inst
        texts = []
        for name, estimate in _auto_attempts(inst):
            with pytest.raises(BudgetExceededError) as alone:
                solver_of[name](inst, budget=budget)
            texts.append(f"{name} (estimate {estimate}): {alone.value}")
        with pytest.raises(BudgetExceededError) as err:
            solve_auto(inst, budget=budget)
        assert str(err.value) == "; ".join(texts), inst
        firsts[texts[0].split(" ")[0]] += 1
    assert set(firsts) == set(solver_of), firsts


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


def test_inout_handles_zero_splits(monkeypatch):
    # ell > 2k: no in/out split exists, immediate no
    inst = Instance(variant="R", m=4, ballots=((1, 2), (3, 4)), k=1, ell=3, x=1)
    rep = solve_inout_ell(inst)
    assert rep.answer is False
    # ell > m: same, even though ell <= 2k
    inst = Instance(variant="R", m=1, ballots=((1,), (1,)), k=2, ell=3, x=1)
    assert solve_inout_ell(inst).answer is False
    assert brute_force(inst).answer is False

    # no witness is listed at all: comb(72, 5) unions would take seconds
    def no_listing(*args):
        raise AssertionError("listed witnesses with no split")

    monkeypatch.setattr(solvers, "combinations", no_listing)
    inst = random_instance(3, 72, 5, 2, 5, 3, "R", abstain_probability=0.2, seed=2450)
    rep = solve_inout_ell(inst, budget=0)
    assert (rep.answer, rep.witness, rep.stats["states"]) == (False, None, 0)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_small_instances(variants="R", max_m=6, max_tau=5))
def test_inout_rule_out_matches_reference_and_brute_force(inst):
    # the witnesses a stage cannot host alone change no answer, witness,
    # count or budget error; at budget states the up-front bound may refuse
    witness, states = _check_inout(inst, DEFAULT_BUDGET)
    assert (witness is not None) == brute_force(inst).answer, inst
    _check_inout(inst, states)
    if states:
        _check_inout(inst, states - 1)


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
