import itertools
import operator
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpvkit import core
from mpvkit import (
    Instance,
    SolveReport,
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


def _instance(cls, **change):
    """A one-stage, one-candidate instance of ``cls`` with ``change`` applied."""
    p = {"m": 1, "k": 1, "ell": 0, "x": 1, **change}
    rows = ((1,),) if cls is Instance else ((0, 1),)
    return cls("C", p["m"], rows, p["k"], p["ell"], p["x"])


def _budget_case(solver, variant, ell):
    """``solver``'s budget on ``e1(variant, k=1, ell=ell)``: the answer,
    witness, algorithm and states it gives."""

    def call(budget):
        report = solver(e1(variant, k=1, ell=ell), budget=budget)
        return report.answer, report.witness, report.algorithm, report.stats["states"]

    return call


def _integer_arguments():
    """(name, lower bound, a valid value, call) for every public integer argument.

    ``call(value)`` passes ``value`` as that argument and returns what the
    entry point stored or computed with it.
    """
    from mpvkit import (
        Graph,
        PartitionedGraph,
        brute_force,
        enumerate_solutions,
        pad_half_vertex_cover,
        random_instance,
        shrink_weights,
        sidon,
        solve_auto,
        solve_dp_tau,
        solve_inout_ell,
        solve_layered_k,
        solve_unconstrained,
    )

    graph = Graph(4, ((1, 2),))
    cases = []
    for cls in (Instance, WeightedInstance):
        for name, low, good in (("m", 1, 1), ("k", 1, 2), ("ell", 0, 3), ("x", 1, 1)):
            call = lambda v, cls=cls, name=name: _instance(cls, **{name: v})
            cases.append((f"{cls.__name__}.{name}", name, low, good, call))
    sizes = {"n": (0, 4), "m": (1, 3), "tau": (1, 2), "k": (1, 2), "ell": (0, 1), "x": (1, 2)}
    for name, (low, good) in sizes.items():
        call = lambda v, name=name: random_instance(
            **{"n": 4, "m": 3, "tau": 2, "k": 1, "ell": 0, "x": 1, name: v}, variant="C", seed=5
        )
        cases.append((f"random_instance.{name}", name, low, good, call))
    cases += [
        ("enumerate_solutions.limit", "limit", 0, 2, lambda v: enumerate_solutions(e1(), v)),
        ("sidon.b", "b", 1, 3, lambda v: sidon(v)),
        ("Graph.num_vertices", "num_vertices", 0, 4, lambda v: Graph(v, ())),
        ("Graph.edge_endpoint", "edge endpoint", 1, 1, lambda v: Graph(2, ((v, 2),))),
        ("PartitionedGraph.vertex", "vertex id", 1, 1, lambda v: PartitionedGraph(({v}, {2}), ())),
        (
            "PartitionedGraph.edge_endpoint", "edge endpoint", 1, 1,
            lambda v: PartitionedGraph(({1, 2}, {3}), ((v, 3),)),
        ),
        ("pad_half_vertex_cover.r", "cover size", 0, 2, lambda v: pad_half_vertex_cover(graph, v)),
        # a cover size below half the vertices: the output graph is padded
        # with vertices and edges computed from it
        (
            "pad_half_vertex_cover.r.padded", "cover size", 0, 1,
            lambda v: pad_half_vertex_cover(Graph(4, ((1, 2), (3, 4))), v),
        ),
        ("shrink_weights.N", "N", 2, 3, lambda v: shrink_weights((3, 10), v)),
    ]
    # each solver on an instance it applies to; a budget of 2**62 as an
    # int64 would overflow in brute force's 8 * budget
    solvers = [
        ("brute_force", brute_force, "C", 1),
        ("solve_unconstrained", solve_unconstrained, "C", 2),
        ("solve_layered_k", solve_layered_k, "C", 1),
        ("solve_inout_ell", solve_inout_ell, "R", 1),
        ("solve_inout_ell.decoupled", solve_inout_ell, "R", 0),
        ("solve_dp_tau", solve_dp_tau, "C", 1),
        ("solve_auto", solve_auto, "C", 1),
        ("solve_auto.decoupled", solve_auto, "C", 2),
    ]
    for id_, solver, variant, ell in solvers:
        cases.append((f"{id_}.budget", "budget", 0, 2**62, _budget_case(solver, variant, ell)))
    cases.append((
        "enumerate_solutions.budget", "budget", 0, 2**62,
        lambda v: enumerate_solutions(e1(), 1, budget=v),
    ))
    # limit 0 reads no sequence, and checks the budget all the same
    cases.append((
        "enumerate_solutions.budget.limit0", "budget", 0, 2**62,
        lambda v: enumerate_solutions(e1(), 0, budget=v),
    ))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("name, low, good, call", _integer_arguments())
def test_every_integer_argument_follows_one_rule(name, low, good, call):
    kind = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
    for bad in (True, 2.5, float("inf"), "2", None, low - 1):
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == f"{name} must be {kind}, got {bad!r}"
    try:  # the bound itself is allowed, though a budget of 0 may run out
        call(low)
    except core.BudgetExceededError:
        assert name == "budget"


@pytest.mark.parametrize("name, low, good, call", _integer_arguments())
def test_every_integer_argument_takes_numpy_integers_as_int(name, low, good, call):
    # a numpy integer is taken and stored or used as int: the outcome has
    # no numpy scalar in its repr
    assert repr(call(np.int64(good))) == repr(call(good))


def test_instances_hash_and_compare():
    assert e1() == e1()
    assert e1() != e1(x=1, ell=0)
    assert len({e1(), e1(), e1("R")}) == 2
    # built from counts, an instance equals the profile of its canonical
    # spelling (E1_BALLOTS is one) and no other profile of the same counts
    canonical = e1()
    args = ("C", 3, canonical.counts, 2, 1, 2, 1)
    reordered = Instance("C", 3, tuple(row[::-1] for row in E1_BALLOTS), 1, 2, 1)
    assert reordered.counts == canonical.counts and reordered != canonical
    assert Instance._of_counts(*args) == Instance._of_counts(*args) == canonical
    assert Instance._of_counts(*args) != reordered
    assert len({Instance._of_counts(*args), canonical, reordered}) == 2
    assert Instance._of_counts("C", 3, canonical.counts, 3, 1, 2, 1) != canonical
    weighted = WeightedInstance._of_counts("C", 3, canonical.counts, None, 1, 2, 1)
    assert weighted == WeightedInstance("C", 3, canonical.counts, 1, 2, 1) != canonical


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
    with pytest.raises(ValueError, match="^an instance needs at least one stage$"):
        WeightedInstance(variant="C", m=2, weights=(), k=1, ell=0, x=1)


def test_weighted_rows_take_numpy_integers_and_store_ints():
    plain = WeightedInstance("C", 2, [[0, 3, 1]], 1, 0, 1)
    for dtype in (np.int64, np.uint8, np.int32):
        w = WeightedInstance("C", 2, [[0, dtype(3), 1]], 1, 0, 1)
        assert w == plain and hash(w) == hash(plain)
        assert [type(c) for c in w.counts[0]] == [int, int, int]
    big = WeightedInstance("C", 2, [np.array([0, 2**62, 5])], 1, 0, 1)
    assert big.counts == ((0, 2**62, 5),) and type(big.counts[0][1]) is int
    for bad in (True, np.bool_(True), 1.0, np.float64(3), "3", None, -1, np.int64(-2)):
        with pytest.raises(ValueError) as err:
            WeightedInstance("C", 2, [[0, 1, 1], [0, bad, 1]], 1, 0, 1)
        assert str(err.value) == (
            f"stage 2: weight for candidate 1 must be a non-negative integer, got {bad!r}"
        )


def test_trivial_verdict_is_frozen():
    v = TrivialVerdict(False, "because")
    assert v.answer is False
    with pytest.raises(AttributeError):
        v.answer = True


def test_records_keep_their_repr_equality_and_hash():
    # the reprs were recorded when these records were still dataclasses
    inst = Instance("C", 3, ((1, 2), (2, 0)), 2, 1, 1)
    assert repr(inst) == (
        "Instance(variant='C', m=3, k=2, ell=1, x=1, counts=((0, 1, 1, 0), (0, 0, 1, 0)))"
    )
    weighted = WeightedInstance("R", 2, ((0, 5, 10**20), (0, 0, 3)), 1, 2, 4)
    assert repr(weighted) == (
        "WeightedInstance(variant='R', m=2, k=1, ell=2, x=4, "
        "counts=((0, 5, 100000000000000000000), (0, 0, 3)))"
    )
    witness = (frozenset({1}), frozenset({2}))
    report = SolveReport(True, witness, "brute-force", {"states": 3, "time_ms": 0.5})
    assert repr(report) == (
        "SolveReport(answer=True, witness=(frozenset({1}), frozenset({2})), "
        "algorithm='brute-force', stats={'states': 3, 'time_ms': 0.5})"
    )
    verdict = TrivialVerdict(False, "x exceeds n")
    assert repr(verdict) == "TrivialVerdict(answer=False, reason='x exceeds n')"

    assert inst == Instance("C", 3, ((1, 2), (2, 0)), 2, 1, 1)
    assert hash(inst) == hash(Instance("C", 3, ((2, 1), (2, 0)), 2, 1, 1))
    assert weighted == WeightedInstance("R", 2, ((0, 5, 10**20), (0, 0, 3)), 1, 2, 4)
    assert hash(weighted) == hash(WeightedInstance("R", 2, ((0, 5, 10**20), (0, 0, 3)), 1, 2, 4))
    assert report == SolveReport(
        answer=True, witness=witness, algorithm="brute-force", stats={"states": 3, "time_ms": 0.5}
    )
    assert report != SolveReport(True, witness, "layered-k", {"states": 3, "time_ms": 0.5})
    with pytest.raises(TypeError, match="unhashable type: 'SolveReport'"):
        hash(report)
    assert verdict == TrivialVerdict(False, "x exceeds n") != TrivialVerdict(True, "x exceeds n")
    assert hash(verdict) == hash(TrivialVerdict(False, "x exceeds n"))
    assert len({verdict, TrivialVerdict(False, "x exceeds n"), TrivialVerdict(True, "")}) == 2
    # only the same class compares; a tuple of the same fields does not
    assert verdict.__eq__((False, "x exceeds n")) is NotImplemented
    assert report.__eq__(verdict) is NotImplemented and verdict != report

    for record, name in ((inst, "m"), (inst, "counts"), (weighted, "k"), (verdict, "answer")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    report.algorithm = "renamed"  # a report stays mutable
    assert report.algorithm == "renamed"


def test_graph_sidon_and_kernel_records_keep_their_behaviour():
    # pinned when these records were still dataclasses, except that
    # KernelResult's repr now shows stage_fillers, which its == compares
    from mpvkit import Graph, KernelResult, PartitionedGraph, SidonSet, sidon

    g = Graph(4, ((3, 1), (2, 4)))
    assert repr(g) == "Graph(num_vertices=4, edges=((1, 3), (2, 4)))"
    assert g == Graph(num_vertices=4, edges=[(4, 2), (1, 3)]) != Graph(5, ((1, 3), (2, 4)))
    assert hash(g) == hash(Graph(num_vertices=4, edges=((1, 3), (2, 4))))
    pg = PartitionedGraph(({1, 2}, {3}), ((3, 1),))
    assert repr(pg) == (
        "PartitionedGraph(parts=(frozenset({1, 2}), frozenset({3})), edges=((1, 3),))"
    )
    assert pg == PartitionedGraph(parts=[{2, 1}, frozenset({3})], edges=[(1, 3)])
    assert pg != PartitionedGraph(({1}, {2, 3}), ((1, 3),))
    assert hash(pg) == hash(PartitionedGraph(parts=({1, 2}, {3}), edges=((1, 3),)))
    s = SidonSet(3, 5, (11, 24, 34))
    assert repr(s) == "SidonSet(b=3, hat_b=5, elements=(11, 24, 34))"
    assert s == sidon(3) == SidonSet(b=3, hat_b=5, elements=(11, 24, 34))
    assert s != SidonSet(3, 5, (11, 24))
    assert hash(s) == hash(sidon(3))
    assert len({g, Graph(4, ((1, 3), (2, 4))), pg, s, sidon(3)}) == 3
    # only the same class compares
    assert g.__eq__((4, ((1, 3), (2, 4)))) is NotImplemented
    assert Graph(3, ((1, 3),)) != PartitionedGraph(({1, 2}, {3}), ((1, 3),))
    for record, name in ((g, "edges"), (pg, "parts"), (s, "b")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)

    messages = [
        (lambda: Graph(-1, ()), "num_vertices must be a non-negative integer, got -1"),
        (lambda: Graph(3, ((1, 2.0),)), "edge endpoint must be a positive integer, got 2.0"),
        (lambda: Graph(3, ((1, 1),)), "self-loop at vertex 1"),
        (lambda: Graph(3, ((1, 4),)), "edge (1, 4) outside 1..3"),
        (lambda: Graph(3, ((1, 2), (2, 1))), "duplicate edges"),
        (lambda: PartitionedGraph(({1, 2},), ()), "need at least two parts"),
        (lambda: PartitionedGraph(({0}, {1}), ()), "vertex id must be a positive integer, got 0"),
        (lambda: PartitionedGraph(({1}, {1}), ()), "vertex 1 appears in two parts"),
        (lambda: PartitionedGraph(({1, 2}, {4}), ()), "parts must cover exactly 1..3"),
        (lambda: PartitionedGraph(({1, 2}, {3}), ((2, 1),)), "edge (1, 2) stays inside one part"),
        (lambda: sidon(0), "b must be a positive integer, got 0"),
    ]
    for build, message in messages:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    inst = Instance("C", 3, ((1, 2), (2, 0)), 2, 1, 1)
    result = KernelResult("ntau-cmpv", inst, None, {1: 1, 2: 2, 3: 3})
    assert (result.verdict, result.gap, result.stage_fillers) == (None, False, None)
    assert result == KernelResult(
        kind="ntau-cmpv", instance=inst, verdict=None, id_map={1: 1, 2: 2, 3: 3}, gap=False,
        stage_fillers=None,
    )
    assert result != KernelResult("ntau-cmpv", inst, None, {1: 1, 2: 2, 3: 3}, False, ((4,),))
    with pytest.raises(TypeError, match="unhashable type: 'KernelResult'"):
        hash(result)
    result.gap = True  # a kernel result stays mutable
    assert result.gap is True
    decided = KernelResult("ntau-rmpv", verdict=TrivialVerdict(False, "no agents"))
    assert decided == KernelResult("ntau-rmpv", None, TrivialVerdict(False, "no agents"))
    assert repr(decided) == (
        "KernelResult(kind='ntau-rmpv', instance=None, verdict=TrivialVerdict(answer=False, "
        "reason='no agents'), id_map=None, gap=False, stage_fillers=None)"
    )


def test_counts_spell_into_canonical_ballots():
    rng = random.Random(12)
    for trial in range(200):
        m, tau = rng.randint(1, 9), rng.randint(1, 4)
        counts = [
            (0,) + tuple(rng.choice((0, 0, rng.randint(1, 6))) for _ in range(m))
            for _ in range(tau)
        ]
        n = max(map(sum, counts)) + rng.choice((0, 0, rng.randint(1, 5)))
        built = Instance._of_counts("R", m, counts, n, 2, 1, 3)
        assert built.counts == tuple(counts) and built.n == n
        assert Instance("R", m, built.ballots, 2, 1, 3) == built
        for row, spelled in zip(counts, built.ballots):
            # agents 1..total approve in id order, each candidate as often
            # as its count, and the others abstain
            assert spelled == tuple(sorted(spelled, key=lambda c: (c == 0, c)))
            assert spelled.count(0) == n - sum(row)
    assert Instance._of_counts("C", 2, [(0, 0, 0)], 0, 1, 0, 1).ballots == ((),)
    with pytest.raises(AssertionError):
        Instance._of_counts("C", 2, [(0, 2, 1)], 2, 1, 0, 1)  # 3 approvals, 2 agents
    with pytest.raises(ValueError, match="k must be a positive integer"):
        Instance._of_counts("C", 2, [(0, 2, 1)], 3, 0, 0, 1)


def test_spelling_matches_the_reference_across_the_bytes_boundary():
    # rows of at most 256 slots (m <= 255) are spelled as bytes, longer rows
    # (m >= 256) as tuples; both must give the plain ints of a chained spelling
    rng = random.Random(23)
    n = 40

    def drawn(m, total):
        row = [0] * (m + 1)
        for _ in range(total):
            row[rng.randint(1, m)] += 1
        return tuple(row)

    for m in (1, 9, 255, 256, 300):
        counts = [
            (0,) * (m + 1),  # every agent abstains
            drawn(m, n),  # every agent approves
            (0,) * m + (rng.randint(1, n),),  # one candidate, the highest id
        ] + [drawn(m, rng.randint(0, n)) for _ in range(5)]
        reference = tuple(
            tuple(itertools.chain.from_iterable(map(itertools.repeat, range(m + 1), row)))
            + (0,) * (n - sum(row))
            for row in counts
        )
        inst = Instance._of_counts("C", m, counts, n, 2, 1, 1)
        assert core._spell(inst.counts, n) == inst.ballots == reference, m
        assert all(type(entry) is int for row in inst.ballots for entry in row)
        assert Instance("C", m, inst.ballots, 2, 1, 1).counts == inst.counts


def test_counts_built_instances_compare_without_spelling(monkeypatch):
    counts = [(0, 2, 0, 1), (0, 0, 0, 0)]
    given = Instance("C", 3, Instance._of_counts("C", 3, counts, 4, 2, 1, 1).ballots, 2, 1, 1)
    reordered = Instance("C", 3, ((3, 1, 1, 0), (0, 0, 0, 0)), 2, 1, 1)

    def no_spelling(counts, n):
        raise AssertionError("an instance spelled its ballots")

    monkeypatch.setattr(core, "_spell", no_spelling)
    built = Instance._of_counts("C", 3, counts, 4, 2, 1, 1)
    assert built == Instance._of_counts("C", 3, counts, 4, 2, 1, 1)
    assert built != Instance._of_counts("C", 3, counts, 5, 2, 1, 1)
    assert built != Instance._of_counts("C", 3, [(0, 1, 1, 1), (0, 0, 0, 0)], 4, 2, 1, 1)
    assert built != Instance._of_counts("R", 3, counts, 4, 2, 1, 1)
    monkeypatch.undo()
    # a side with given ballots compares ballots: the canonical spelling
    # equals the counts-built instance, other ballots of the same counts do not
    assert given == built and built == given
    assert reordered.counts == built.counts and hash(reordered) == hash(built)
    assert reordered != built and built != reordered


# ---------------------------------------------------------------------------
# ballot tally: plain Python up to TALLY_PYTHON_MAX entries, numpy above
# ---------------------------------------------------------------------------

# thresholds that send every non-empty profile down one path
_PATH_CAPS = {"python": 10**12, "numpy": 0}


def _tally_on_each_path(monkeypatch, rows, m):
    """Counts, or the ``ValueError`` message, of ``rows`` on each path."""
    out = {}
    for path, cap in [("default", core.TALLY_PYTHON_MAX), *_PATH_CAPS.items()]:
        with monkeypatch.context() as patch:
            patch.setattr(core, "TALLY_PYTHON_MAX", cap)
            try:
                out[path] = Instance("C", m, rows, 1, 0, 1).counts
            except ValueError as exc:
                out[path] = str(exc)
    return out


def test_tally_paths_agree(monkeypatch):
    rng = random.Random(6)
    cap = core.TALLY_PYTHON_MAX
    # m = 255 fits a bytes buffer, m = 256 and 300 need the array("q") one
    for size in (cap - 1, cap, cap + 1, 50 * cap):
        tau = next(t for t in range(2, size + 1) if size % t == 0)
        for m in (rng.randint(3, 40), 255, 256, 300):
            rows = [[rng.randint(0, m) for _ in range(size // tau)] for _ in range(tau)]
            expected = tuple(
                tuple(tally[c] if c else 0 for c in range(m + 1))
                for tally in map(Counter, rows)
            )
            results = _tally_on_each_path(monkeypatch, rows, m)
            assert results == dict.fromkeys(results, expected), (size, m)


def test_tally_threshold_is_where_numpy_starts(monkeypatch):
    cap = core.TALLY_PYTHON_MAX
    monkeypatch.setitem(sys.modules, "numpy", None)  # importing numpy now fails
    assert Instance("C", 3, ((1,) * cap,), 1, 0, 1).counts == ((0, cap, 0, 0),)
    with pytest.raises(ImportError):
        Instance("C", 3, ((1,) * (cap + 1),), 1, 0, 1)


def test_tally_tries_bytes_only_below_256(monkeypatch):
    # at m >= 256 a bytes buffer would mostly fail part-way, so it is not tried
    tried = []
    monkeypatch.setattr(core, "bytes", lambda row: tried.append(row) or bytes(row), raising=False)
    for m in (255, 256):
        Instance("C", m, ((1, m),), 1, 0, 1)
    assert tried == [(1, 255)]


_OUT_OF_RANGE = (-1, "m + 1")


@pytest.mark.parametrize(
    "bad",
    [*_OUT_OF_RANGE, 2.0, "2", 2**63, np.True_, Fraction(2), Decimal(2), "ragged"],
    ids=repr,
)
def test_tally_paths_raise_the_same_errors(monkeypatch, bad):
    # m = 5 and 255 build a bytes buffer, which refuses 256 at m = 255; m = 300
    # goes straight to array("q"); one profile under the threshold and one over
    # it, so the default path differs
    for m, n in itertools.product((5, 255, 300), (4, 2 * core.TALLY_PYTHON_MAX)):
        entry = m + 1 if bad == "m + 1" else bad
        rows = [[(t + j) % (m + 1) for j in range(n)] for t in range(3)]
        if bad == "ragged":
            rows[2].pop()
        else:
            rows[1][n - 2] = rows[2][0] = entry  # the first one is reported
        results = _tally_on_each_path(monkeypatch, rows, m)
        message = results["default"]
        assert isinstance(message, str) and results == dict.fromkeys(results, message)
        if bad == "ragged":
            assert message.startswith("stage 3 has"), message
        elif any(bad is b for b in _OUT_OF_RANGE):
            assert message == f"stage 2: ballot entry {entry!r} outside 0..{m}"
        else:
            assert message.startswith("stage 2: ballot entries must be integers"), message


def test_tally_paths_accept_bool_and_numpy_entries(monkeypatch):
    plain = ((1, 0, 1, 1), (0, 1, 1, 0))
    converts = (bool, np.int64, np.uint8, np.int32, np.uint64, np.int8)
    for m, convert in itertools.product((1, 300), converts):  # a bytes and an array buffer
        expected = Instance("C", m, plain, 1, 0, 1).counts
        rows = tuple(tuple(convert(e) for e in row) for row in plain)
        results = _tally_on_each_path(monkeypatch, rows, m)
        assert results == dict.fromkeys(results, expected), (m, convert)
        stored = Instance("C", m, rows, 1, 0, 1).ballots
        assert all(map(operator.is_, itertools.chain(*stored), itertools.chain(*rows)))


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
    # numpy integers are ids like any int; non-integers are refused as such
    assert score(e1_cmpv, np.int64(1), [np.int64(1)]) == score(e1_cmpv, 1, [1])
    assert feasible_committee(e1_cmpv, np.int32(2), [np.int64(2)]) == feasible_committee(
        e1_cmpv, 2, [2]
    )
    # ids past bit 63 of a committee mask: 1 << np.int64(69) would overflow
    wide = Instance("C", 75, ((70, 70, 3, 72, 1), (75, 0, 70, 70, 2)), 3, 1, 3)
    for t in (1, 2):
        plain = feasible_committee(wide, t, {70}, {72})
        assert plain is not None and 70 in plain and 72 not in plain
        assert feasible_committee(wide, t, {np.int64(70)}, {np.int64(72)}) == plain
        assert feasible_committee(wide, np.int64(t), required={np.int64(70)}) == (
            feasible_committee(wide, t, required={70})
        )
    assert verify(e1_cmpv, ({np.int64(1)}, {np.int16(2)}, {np.uint8(1)})) == []
    with pytest.raises(ValueError, match=r"candidate np.int64\(4\) outside 1..3"):
        score(e1_cmpv, 1, [np.int64(4)])
    with pytest.raises(ValueError, match=r"stage np.int64\(0\) outside 1..3"):
        score(e1_cmpv, np.int64(0), [1])
    with pytest.raises(ValueError, match="stage must be an integer, got 1.0"):
        score(e1_cmpv, 1.0, [1])
    with pytest.raises(ValueError, match="candidate must be an integer, got '1'"):
        verify(e1_cmpv, ({"1"}, {2}, {1}))
    with pytest.raises(ValueError, match="candidate must be an integer"):
        feasible_committee(e1_cmpv, 1, [np.float64(1.0)])
    # bool stays what it was: True is id 1, False is out of range
    assert score(e1_cmpv, True, {True}) == score(e1_cmpv, 1, {1})
    with pytest.raises(ValueError, match="stage False outside 1..3"):
        score(e1_cmpv, False, {1})


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
@settings(derandomize=True)
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


def test_feasible_committee_agrees_with_an_exhaustive_search():
    rng = random.Random(2024)
    for _ in range(400):
        m, n, tau = rng.randint(1, 7), rng.randint(0, 6), rng.randint(1, 2)
        rows = [[rng.randint(0, m) for _ in range(n)] for _ in range(tau)]
        inst = Instance("C", m, rows, rng.randint(1, m), 0, rng.randint(1, max(1, n)))
        ids = rng.sample(range(1, m + 1), rng.randint(0, m))
        cut = rng.randint(0, len(ids))
        required, forbidden = frozenset(ids[:cut]), frozenset(ids[cut:])
        t = rng.randint(1, tau)
        allowed = sorted(set(range(1, m + 1)) - required - forbidden)
        exists = any(
            len(required) + size <= inst.k
            and score(inst, t, required.union(extra)) >= inst.x
            for size in range(len(allowed) + 1)
            for extra in itertools.combinations(allowed, size)
        )
        got = feasible_committee(inst, t, required, forbidden)
        if exists:
            assert required <= got and not got & forbidden, (inst, t, required, forbidden)
            assert len(got) <= inst.k and score(inst, t, got) >= inst.x
        else:
            assert got is None, (inst, t, required, forbidden)


def test_feasible_committee_prefers_low_ids_on_ties():
    inst = Instance(variant="C", m=3, ballots=((1, 2, 3),), k=1, ell=0, x=1)
    assert feasible_committee(inst, 1) == frozenset({1})


# ---------------------------------------------------------------------------
# committee counts
# ---------------------------------------------------------------------------


def test_committee_count_is_the_binomial_sum():
    # _committees builds each comb(n, j) from the one before; it must give
    # the plain sum, 0 below k = 0 and every committee above k = n
    for n in range(13):
        for k in range(-3, n + 4):
            assert core._committees(n, k) == sum(comb(n, j) for j in range(min(k, n) + 1)), (n, k)
    # half of the subsets of 2n + 1 candidates have at most n members
    n = 10_000
    assert core._committees(2 * n + 1, n) == 2 ** (2 * n)
