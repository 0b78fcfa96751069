import itertools
import random
from collections import Counter

import pytest

from mpvkit import core
from mpvkit import (
    Graph,
    Instance,
    PartitionedGraph,
    PreconditionError,
    TrivialVerdict,
    and_compose_cmpv,
    and_compose_rmpv,
    brute_force,
    cmpv_normalize_half,
    cmpv_to_rmpv,
    emit_instance,
    kernel_mtau,
    kernel_ntau_cmpv,
    kernel_ntau_rmpv,
    lift_ell1,
    lift_ell_2km2,
    mcc_to_cmpv,
    pad_half_vertex_cover,
    parse_instance,
    random_instance,
    sidon,
    solve_auto,
    to_weighted,
    vc_to_cmpv,
    verify,
)

from conftest import brute_clique, brute_cover
from test_acceptance import (
    all_partitioned_graphs,
    and_patterns,
    and_pools,
    conservative_ell0_inputs,
    lift_inputs,
    sampled_partitioned_graphs,
)


# ---------------------------------------------------------------------------
# graph types
# ---------------------------------------------------------------------------


def test_graph_normalizes_edges():
    g = Graph(4, ((3, 1), (2, 4)))
    assert g.edges == ((1, 3), (2, 4))


@pytest.mark.parametrize(
    "nv,edges",
    [
        (3, ((1, 1),)),
        (3, ((1, 4),)),
        (3, ((1, 2), (2, 1))),
        (-1, ()),
    ],
)
def test_graph_rejects_bad_input(nv, edges):
    with pytest.raises(ValueError):
        Graph(nv, edges)


def test_partitioned_graph_validation():
    pg = PartitionedGraph(parts=({1, 2}, {3}), edges=((1, 3),))
    assert pg.num_vertices == 3
    with pytest.raises(ValueError):
        PartitionedGraph(parts=({1, 2},), edges=())  # one part
    with pytest.raises(ValueError):
        PartitionedGraph(parts=({1, 2}, {2, 3}), edges=())  # overlap
    with pytest.raises(ValueError):
        PartitionedGraph(parts=({1, 2}, {4}), edges=())  # hole
    with pytest.raises(ValueError):
        PartitionedGraph(parts=({1, 2}, {3}), edges=((1, 2),))  # intra-part edge


# ---------------------------------------------------------------------------
# Sidon sets
# ---------------------------------------------------------------------------


def test_sidon_small_values():
    assert sidon(1).hat_b == 2
    assert sidon(1).elements == (5,)
    s = sidon(3)
    assert s.hat_b == 5
    assert s.elements == (11, 24, 34)
    assert sidon(5).elements == (15, 32, 44, 58, 74)


@pytest.mark.parametrize("b", [1, 2, 7, 40, 200])
def test_sidon_sums_are_distinct(b):
    s = sidon(b).elements
    assert len(s) == b
    sums = [s[i] + s[j] for i in range(b) for j in range(i, b)]
    assert len(sums) == len(set(sums))
    assert max(s) <= 4 * b * b + 4 * b
    assert all(e > 0 for e in s)


def test_sidon_rejects_bad_b():
    with pytest.raises(ValueError):
        sidon(0)


# ---------------------------------------------------------------------------
# vertex cover
# ---------------------------------------------------------------------------


def test_pad_half_vertex_cover():
    g = Graph(4, ((1, 2), (3, 4)))
    for r in range(5):
        g2, r2 = pad_half_vertex_cover(g, r)
        assert 2 * r2 == g2.num_vertices
        assert brute_cover(g2, r2) == brute_cover(g, r), (r, g2, r2)
    with pytest.raises(ValueError):
        pad_half_vertex_cover(g, 5)


def test_vc_to_cmpv_structure():
    g = Graph(4, ((1, 2), (2, 3), (3, 4)))
    inst = vc_to_cmpv(g)
    assert (inst.variant, inst.m, inst.n, inst.tau) == ("C", 4, 2, 3)
    assert (inst.k, inst.ell, inst.x) == (2, 0, 1)
    assert inst.ballots == ((1, 2), (2, 3), (3, 4))
    assert brute_force(inst).answer is True  # {2, 3} covers


def test_vc_to_cmpv_edgeless_and_odd():
    verdict = vc_to_cmpv(Graph(2, ()))
    assert isinstance(verdict, TrivialVerdict) and verdict.answer is True
    with pytest.raises(PreconditionError):
        vc_to_cmpv(Graph(3, ((1, 2),)))


def test_vc_to_cmpv_random_equivalence():
    rng = random.Random(17)
    for _ in range(25):
        nv = rng.choice([2, 4, 6, 8])
        pool = list(itertools.combinations(range(1, nv + 1), 2))
        g = Graph(nv, tuple(rng.sample(pool, rng.randint(1, len(pool)))))
        out = vc_to_cmpv(g)
        assert brute_force(out).answer == brute_cover(g, nv // 2), g


# ---------------------------------------------------------------------------
# normalization and variant swap
# ---------------------------------------------------------------------------


def test_normalize_half_pads_candidates():
    inst = random_instance(2, 6, 2, 1, 0, 1, "C", seed=2)
    norm = cmpv_normalize_half(inst)
    assert 2 * norm.k == norm.m
    assert norm.n == 2 + 2 * 4  # one block of agents per new candidate
    assert norm.x == 1 + 2 * 4
    assert brute_force(norm).answer == brute_force(inst).answer


def test_normalize_half_pads_never_approved():
    inst = random_instance(2, 2, 2, 3, 0, 1, "C", seed=3)
    norm = cmpv_normalize_half(inst)
    assert (norm.m, norm.k, norm.n, norm.x) == (6, 3, 2, 1)
    assert brute_force(norm).answer == brute_force(inst).answer


def test_normalize_half_identity():
    inst = random_instance(2, 4, 2, 2, 0, 1, "C", seed=4)
    assert cmpv_normalize_half(inst) is inst


def test_cmpv_to_rmpv_shape_and_answers():
    rng = random.Random(5)
    for trial in range(40):
        inst = random_instance(
            rng.randint(1, 3), 4, rng.randint(1, 3), 2, 0, rng.randint(1, 2),
            "C", abstain_probability=0.3, seed=trial,
        )
        rev = cmpv_to_rmpv(inst)
        assert rev.variant == "R"
        assert rev.tau == 2 * inst.tau + 1
        assert rev.m == inst.m + 2
        assert rev.k == inst.k + 1
        assert rev.ell == 2 * rev.k == rev.m
        assert brute_force(rev).answer == brute_force(inst).answer, inst


def test_cmpv_to_rmpv_preconditions(e1_cmpv):
    with pytest.raises(PreconditionError):
        cmpv_to_rmpv(e1_cmpv)  # ell != 0
    with pytest.raises(PreconditionError):
        cmpv_to_rmpv(random_instance(2, 4, 2, 1, 0, 1, "C", seed=1))  # k != m/2


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


def test_lift_ell1_shape_and_answers():
    # B = n + 1 more votes for every candidate at every stage, no fresh
    # candidate, k' = min(k, m), ell' = 1, x' = k' B + x and n' = n + B m;
    # k runs past m, where the clamp acts
    rng = random.Random(6)
    clamped = 0
    for trial in range(40):
        n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 5)
        inst = random_instance(
            n, m, rng.randint(1, 4), k, 0, rng.randint(1, n + 1),
            "C", abstain_probability=0.3, seed=trial,
        )
        lifted = lift_ell1(inst)
        top, b = min(k, m), n + 1
        assert (lifted.variant, lifted.m, lifted.k, lifted.ell) == ("C", m, top, 1)
        assert (lifted.x, lifted.n) == (top * b + inst.x, n + b * m)
        assert lifted.counts == tuple((0, *(c + b for c in row[1:])) for row in inst.counts)
        assert brute_force(lifted).answer == brute_force(inst).answer, inst
        clamped += k > m
    assert clamped >= 5
    for wrong in (
        random_instance(2, 3, 2, 1, 1, 1, "C", seed=0),  # ell = 1
        random_instance(2, 3, 2, 1, 0, 1, "R", seed=0),
    ):
        with pytest.raises(PreconditionError, match="expected a conservative instance with ell=0"):
            lift_ell1(wrong)


def _lift_box(agents, ms, taus):
    # every conservative ell = 0 instance of the box: each stage an
    # unordered tuple of ballot entries, x in {1, 2} and every k <= m
    for m in ms:
        stages = list(itertools.combinations_with_replacement(range(m + 1), agents))
        for tau in taus:
            for profile in itertools.product(stages, repeat=tau):
                for k, x in itertools.product(range(1, m + 1), (1, 2)):
                    yield Instance("C", m, profile, k, 0, x)


@pytest.mark.full_box
def test_lift_ell1_keeps_the_answer_on_the_lift_boxes():
    # 2 agents with m <= 3 and tau <= 3, 3 agents with m <= 4 and tau <= 2,
    # and 1 agent with m <= 5 and tau <= 3
    boxes = ((2, (1, 2, 3), (1, 2, 3)), (3, (1, 2, 3, 4), (1, 2)), (1, range(1, 6), (1, 2, 3)))
    checked, yes = 0, 0
    for agents, ms, taus in boxes:
        for inst in _lift_box(agents, ms, taus):
            answer = brute_force(inst).answer
            assert brute_force(lift_ell1(inst)).answer == answer, inst
            checked += 1
            yes += answer
    assert (checked, yes) == (25358, 12333)


def test_lift_ell1_agrees_on_every_small_two_agent_profile():
    # the lift reads only counts, so each stage is an unordered agent pair
    wrong, checked = [], 0
    for m in (1, 2, 3):
        pairs = list(itertools.combinations_with_replacement(range(m + 1), 2))
        for tau in (1, 2, 3):
            for profile in itertools.product(pairs, repeat=tau):
                for k in range(1, m + 1):
                    inst = Instance("C", m, profile, k, 0, 1)
                    checked += 1
                    if brute_force(inst).answer != brute_force(lift_ell1(inst)).answer:
                        wrong.append((m, profile, k))
    assert checked == 3885
    assert not wrong, f"{len(wrong)} disagreements, first (m, stages, k) = {wrong[0]}"


def test_lift_ell_2km2_shape_and_answers():
    rng = random.Random(7)
    for trial in range(30):
        k = rng.randint(1, 2)
        inst = random_instance(
            2, 2 * k, rng.randint(1, 4), k, 2 * k, 1, "R",
            abstain_probability=0.3, seed=trial,
        )
        lifted = lift_ell_2km2(inst)
        assert lifted.ell == 2 * lifted.k - 2
        assert lifted.m == inst.m + 1 and lifted.n == 4 and lifted.x == 3
        assert brute_force(lifted).answer == brute_force(inst).answer, inst
    with pytest.raises(PreconditionError):
        lift_ell_2km2(random_instance(2, 2, 2, 1, 1, 1, "R", seed=0))


# ---------------------------------------------------------------------------
# AND-compositions
# ---------------------------------------------------------------------------


def _instances_with_answer(variant, ell, m, want, count):
    # the first count seeds from 1 whose draw brute force answers want; at
    # most 50 draws, so that a brute force that never gives want fails here
    found = []
    for seed in range(1, 51):
        inst = random_instance(2, m, 2, 1, ell, 1, variant,
                               abstain_probability=0.3, seed=seed)
        if brute_force(inst).answer is want:
            found.append(inst)
            if len(found) == count:
                return found
    raise AssertionError(f"{len(found)} of 50 draws answer {want}, {count} wanted")


def test_and_compose_cmpv_patterns():
    yes = _instances_with_answer("C", 1, 3, True, 2)
    no = _instances_with_answer("C", 1, 3, False, 2)
    for pattern in itertools.product([True, False], repeat=2):
        pool = {True: iter(yes), False: iter(no)}
        inputs = [next(pool[a]) for a in pattern]
        out = and_compose_cmpv(inputs)
        assert out.tau == 2 * 2 + 2 * 1
        assert (out.k, out.ell, out.x) == (2, 1, 3)
        assert brute_force(out).answer is all(pattern), pattern
    single = and_compose_cmpv([yes[0]])
    assert brute_force(single).answer is True


def test_and_compose_cmpv_validation():
    ell0 = random_instance(2, 3, 2, 1, 0, 1, "C", seed=1)
    with pytest.raises(ValueError, match="inputs must be conservative with ell=1"):
        and_compose_cmpv([ell0])
    a = random_instance(2, 3, 2, 1, 1, 1, "C", seed=1)
    b = random_instance(2, 4, 2, 1, 1, 1, "C", seed=1)
    with pytest.raises(ValueError, match="inputs must share n, m, tau, k, and x"):
        and_compose_cmpv([a, b])
    # every input's variant is checked before any shape
    with pytest.raises(ValueError, match="inputs must be conservative with ell=1"):
        and_compose_cmpv([b, a, ell0])
    with pytest.raises(ValueError, match="need at least one instance"):
        and_compose_cmpv(iter([]))


def test_and_compose_rmpv_patterns():
    yes = _instances_with_answer("R", 2, 2, True, 2)
    no = _instances_with_answer("R", 2, 2, False, 2)
    for pattern in itertools.product([True, False], repeat=2):
        pool = {True: iter(yes), False: iter(no)}
        inputs = [next(pool[a]) for a in pattern]
        out = and_compose_rmpv(inputs)
        assert out.tau == 2 * 2 + 1
        assert out.n == 2 * 4 and out.m == 2 + 1 + 2
        assert (out.k, out.ell, out.x) == (4, 2, 7)
        assert brute_force(out).answer is all(pattern), pattern


def test_and_compose_rmpv_validation():
    bad = random_instance(2, 3, 2, 1, 2, 1, "R", seed=1)  # m != ell
    with pytest.raises(ValueError, match=r"inputs must be revolutionary with m = ell = 2k"):
        and_compose_rmpv([bad])
    a = random_instance(2, 2, 2, 1, 2, 1, "R", seed=1)
    b = random_instance(2, 2, 2, 1, 2, 2, "R", seed=1)
    with pytest.raises(ValueError, match="inputs must share n, m, tau, k, and x"):
        and_compose_rmpv([a, b])
    with pytest.raises(ValueError, match="inputs must be revolutionary"):
        and_compose_rmpv([a, b, bad])
    with pytest.raises(ValueError, match="need at least one instance"):
        and_compose_rmpv([])


# ---------------------------------------------------------------------------
# multicolored clique
# ---------------------------------------------------------------------------


def test_mcc_structure():
    pg = PartitionedGraph(parts=({1, 2}, {3, 4}), edges=((1, 3), (2, 4)))
    inst = mcc_to_cmpv(pg)
    assert inst.variant == "C" and inst.ell == 0
    assert inst.m == 4 + 2  # vertices then edges
    assert inst.tau == 2 + 3 * 1
    assert inst.k == 2 + 1
    s = sidon(4).elements
    assert inst.x == 2 * s[-1]
    # vertex-selection stages approve each vertex exactly x times
    for t, part in ((1, (1, 2)), (2, (3, 4))):
        row = inst.counts[t - 1]
        assert all(row[v] == inst.x for v in part)
        assert sum(row) == inst.x * len(part)


def test_mcc_exhaustive_two_parts():
    parts = (frozenset({1, 2}), frozenset({3, 4}))
    slots = [(u, v) for u in (1, 2) for v in (3, 4)]
    for bits in itertools.product([0, 1], repeat=4):
        edges = tuple(e for e, b in zip(slots, bits) if b)
        pg = PartitionedGraph(parts=parts, edges=edges)
        inst = mcc_to_cmpv(pg)
        assert brute_force(inst).answer == brute_clique(pg), pg


def test_mcc_three_parts_exhaustive():
    parts = (frozenset({1}), frozenset({2}), frozenset({3, 4}))
    slots = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    for bits in itertools.product([0, 1], repeat=5):
        edges = tuple(e for e, b in zip(slots, bits) if b)
        pg = PartitionedGraph(parts=parts, edges=edges)
        inst = mcc_to_cmpv(pg)
        assert inst.tau == 3 + 3 * 3 and inst.k == 3 + 3
        assert brute_force(inst).answer == brute_clique(pg), pg


def _mcc_gadgets(pg):
    # the gadgets (a part's vertex stage, a pair's edge stage, a pair's two
    # coherence stages) as lists of (candidate, count) stages, and x
    parts = pg.parts
    h = pg.num_vertices
    sid = sidon(h).elements
    ident = {v: sid[v - 1] for v in range(1, h + 1)}
    x = 2 * sid[-1]
    edge_candidate = {e: h + 1 + i for i, e in enumerate(pg.edges)}
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    pair_edges = {pair: [] for pair in itertools.combinations(range(len(parts)), 2)}
    for e in pg.edges:
        pair_edges[tuple(sorted((part_of[e[0]], part_of[e[1]])))].append(e)
    gadgets = [[[(v, x) for v in sorted(part)]] for part in parts]
    for pair in sorted(pair_edges):
        gadgets.append([[(edge_candidate[e], x) for e in pair_edges[pair]]])
    for i, j in sorted(pair_edges):
        both = sorted(parts[i] | parts[j])
        es = pair_edges[(i, j)]
        agree = [(v, ident[v]) for v in both]
        agree += [(edge_candidate[e], x - ident[e[0]] - ident[e[1]]) for e in es]
        oppose = [(v, x // 2 - ident[v]) for v in both]
        oppose += [(edge_candidate[e], ident[e[0]] + ident[e[1]]) for e in es]
        gadgets.append([agree, oppose])
    return gadgets, x


def _mcc_shared_pool_reference(pg):
    # the ballot-building construction before count rows: in every stage
    # agents 1..total approve the listed candidates, the rest abstain
    gadgets, x = _mcc_gadgets(pg)
    stages = [stage for g in gadgets for stage in g]
    n = max(sum(c for _, c in stage) for stage in stages)
    rows = []
    for stage in stages:
        row = [candidate for candidate, count in stage for _ in range(count)]
        rows.append(tuple(row + [0] * (n - len(row))))
    q = len(pg.parts)
    return Instance("C", pg.num_vertices + len(pg.edges), tuple(rows), q + q * (q - 1) // 2, 0, x)


def _mcc_graphs():
    for shape in [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]:
        yield from all_partitioned_graphs(shape)
    yield PartitionedGraph(  # the at-scale graph of test_formats
        parts=({1, 2, 3}, {4, 5, 6}, {7, 8, 9}),
        edges=((1, 4), (1, 7), (4, 7), (2, 5), (2, 9), (3, 6), (5, 8), (6, 9)),
    )


def _same_build(out, ref, same_ballots):
    # equal parameters and count rows; a built instance's ballots are the
    # canonical spelling of its counts, which re-tally and round-trip to it
    fields = ("variant", "m", "k", "ell", "x", "counts", "n")
    assert [getattr(out, f) for f in fields] == [getattr(ref, f) for f in fields]
    assert Instance(out.variant, out.m, out.ballots, out.k, out.ell, out.x) == out
    text = emit_instance(out)
    back = parse_instance(text)
    # count rows for a counts-built output, profile rows for a passed-through input
    assert back == out and (back._ballots is None) == (out._ballots is None)
    assert (back.counts, back.n) == (ref.counts, ref.n)
    if same_ballots:  # the reference's ballots are the spelling of the counts
        assert back == ref


def test_mcc_builds_the_shared_pool_reference():
    exhaustive = 2 + 4 + 16 + 8 + 32 + 256 + 4096 + 1  # the graphs of _mcc_graphs
    graphs = itertools.chain(_mcc_graphs(), sampled_partitioned_graphs())
    for count, pg in enumerate(graphs, start=1):
        inst, ref = mcc_to_cmpv(pg), _mcc_shared_pool_reference(pg)
        assert inst == ref, pg  # every field and every ballot
        if count % 16 == 0 or count > exhaustive:  # round trips on a slice and the large graphs
            _same_build(inst, ref, same_ballots=True)
    assert count == exhaustive + 92


def test_mcc_rejects_empty_part():
    with pytest.raises(PreconditionError):
        mcc_to_cmpv(PartitionedGraph(parts=({1}, frozenset(), {2}), edges=((1, 2),)))


def test_graph_constructions_refuse_the_other_graph_kind():
    # each construction checks the graph kind itself, so a plain Graph is not
    # read for parts and a PartitionedGraph is not taken as a vertex-cover input
    with pytest.raises(PreconditionError, match="^mcc_to_cmpv expects a partitioned graph$"):
        mcc_to_cmpv(Graph(4, ((1, 2),)))
    with pytest.raises(PreconditionError, match="^vc_to_cmpv expects an unpartitioned graph$"):
        vc_to_cmpv(PartitionedGraph(({1}, {2}), ((1, 2),)))


# ---------------------------------------------------------------------------
# fidelity on every small input
# ---------------------------------------------------------------------------


def _small_graphs():
    # every labelled graph on 2 and 4 vertices, then a seeded sample on 6
    for nv in (2, 4):
        pairs = list(itertools.combinations(range(1, nv + 1), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(nv, tuple(e for i, e in enumerate(pairs) if bits >> i & 1))
    rng = random.Random(6)
    pairs = list(itertools.combinations(range(1, 7), 2))
    for _ in range(200):
        yield Graph(6, tuple(e for e in pairs if rng.random() < 0.6))


def test_vc_chain_keeps_every_cover_answer():
    answers = Counter()
    for g in _small_graphs():
        want = brute_cover(g, g.num_vertices // 2)
        answers[want] += 1
        gadget = vc_to_cmpv(g)
        if isinstance(gadget, TrivialVerdict):
            assert gadget.answer == want and not g.edges, g
            continue
        half = cmpv_normalize_half(gadget)
        chain = (gadget, half, cmpv_to_rmpv(half))
        assert [brute_force(inst).answer for inst in chain] == [want] * 3, g
    assert answers[True] + answers[False] == 2 + 2**6 + 200 and answers[False] >= 50, answers


def test_lift_ell_2km2_keeps_every_two_agent_answer():
    # ell = 2k = m with m <= 3 leaves m = 2, k = 1; ballot 0 abstains
    ballots = list(itertools.product(range(3), repeat=2))
    profiles = 0
    for tau in (1, 2, 3):
        for profile in itertools.product(ballots, repeat=tau):
            inst = Instance("R", 2, profile, 1, 2, 1)
            assert brute_force(lift_ell_2km2(inst)).answer == brute_force(inst).answer, profile
            profiles += 1
    assert profiles == 9 + 9**2 + 9**3


def test_and_compositions_keep_every_small_two_agent_pair_answer():
    # every ordered pair of 2-agent inputs of one shape (m, tau, k), each
    # stage an unordered agent pair, as the compositions read only counts
    def groups(variant, shapes):
        for m, ell, k in shapes:
            stages = list(itertools.combinations_with_replacement(range(m + 1), 2))
            for tau in (1, 2):
                group = [
                    Instance(variant, m, profile, k, ell, 1)
                    for profile in itertools.product(stages, repeat=tau)
                ]
                yield [(inst, brute_force(inst).answer) for inst in group]

    for variant, compose, shapes, expected in (
        ("C", and_compose_cmpv, [(m, 1, k) for m in (1, 2) for k in range(1, m + 1)], 2754),
        ("R", and_compose_rmpv, [(2, 2, 1)], 1332),
    ):
        wrong, answers = [], Counter()
        for group in groups(variant, shapes):
            for (a, yes_a), (b, yes_b) in itertools.product(group, repeat=2):
                answers[yes_a and yes_b] += 1
                if brute_force(compose((a, b))).answer != (yes_a and yes_b):
                    wrong.append((a, b))
        assert sum(answers.values()) == expected and min(answers.values()) > 0, (variant, answers)
        assert not wrong, f"{variant}: {len(wrong)} disagreements, first {wrong[0]}"


# ---------------------------------------------------------------------------
# count rows against the ballot-building constructions
# ---------------------------------------------------------------------------


# The constructions as they spelled out ballots before they built count
# rows, kept as references for the count-building ones.


def _normalize_half_reference(inst):
    m, k, n = inst.m, inst.k, inst.n
    if 2 * k == m:
        return inst
    if 2 * k > m:
        return Instance("C", 2 * k, inst.ballots, k, 0, inst.x)
    extra = m - 2 * k
    pad = tuple(c for c in range(m + 1, m + extra + 1) for _ in range(n))
    rows = tuple(row + pad for row in inst.ballots)
    return Instance("C", m + extra, rows, k + extra, 0, inst.x + n * extra)


def _cmpv_to_rmpv_reference(inst):
    n, z, y = inst.n, inst.m + 1, inst.m + 2
    rows = []
    for row in inst.ballots:
        rows += [row, (y,) * n]
    rows.append((z,) * n)
    return Instance("R", inst.m + 2, tuple(rows), inst.k + 1, 2 * inst.k + 2, inst.x)


def _lift_ell1_reference(inst):
    # n + 1 fresh agents per candidate, each approving it at every stage;
    # each row in id order, abstentions last, as the canonical spelling
    n, m = inst.n, inst.m
    pad = tuple(c for c in range(1, m + 1) for _ in range(n + 1))
    rows = tuple(tuple(sorted(row + pad, key=lambda c: (c == 0, c))) for row in inst.ballots)
    k = min(inst.k, m)
    return Instance("C", m, rows, k, 1, k * (n + 1) + inst.x)


def _lift_ell_2km2_reference(inst):
    w = inst.m + 1
    rows = tuple(row + (w, w) for row in inst.ballots)
    return Instance("R", inst.m + 1, rows, inst.k + 1, 2 * inst.k, 3)


def _and_cmpv_reference(instances):
    head = instances[0]
    n, z = head.n, head.m + 1
    rows = []
    for b, inst in enumerate(instances):
        if b:
            rows += [(z,) * (2 * n)] * (2 * head.k)
        rows += [row + (z,) * n for row in inst.ballots]
    return Instance("C", z, tuple(rows), head.k + 1, 1, head.x + n)


def _and_rmpv_reference(instances):
    head = instances[0]
    n, m, ell = head.n, head.m, head.ell
    pad = tuple(c for c in range(m + 1, m + ell + 2) for _ in range(n))
    rows = []
    for b, inst in enumerate(instances):
        if b:
            rows.append((m + 1,) * (n * (ell + 2)))
        rows += [row + pad for row in inst.ballots]
    return Instance("R", m + 1 + ell, tuple(rows), head.k + ell + 1, ell, head.x + n * (ell + 1))


def _vc_gadgets():
    rng = random.Random(19)
    for nv in (2, 4, 4, 6, 6, 6, 8, 8, 8, 8):
        pool = list(itertools.combinations(range(1, nv + 1), 2))
        yield vc_to_cmpv(Graph(nv, tuple(rng.sample(pool, rng.randint(1, len(pool))))))


def _sorted(source):
    # the same profile with every row in id order and abstentions last
    if isinstance(source, list):
        return [_sorted(inst) for inst in source]
    rows = tuple(tuple(sorted(row, key=lambda c: (c == 0, c))) for row in source.ballots)
    return Instance(source.variant, source.m, rows, source.k, source.ell, source.x)


def _spelled_alike(source):
    # whether the ballot references append their fresh approvals to rows in
    # the canonical spelling: every row in id order, with no abstention
    sources = source if isinstance(source, list) else [source]
    return all(0 not in row and list(row) == sorted(row) for i in sources for row in i.ballots)


def _reference_cases():
    """Per reduction: the reduction, its ballot reference, and its inputs."""
    ell1, ell_2km2 = lift_inputs()
    vc = list(_vc_gadgets())
    rev = [cmpv_to_rmpv(inst) for inst in vc]
    ell0 = list(conservative_ell0_inputs())
    and_c = [inputs for _, inputs in and_patterns(and_pools("C", 1, 3), 3)]
    and_r = [inputs for _, inputs in and_patterns(and_pools("R", 2, 2), 2)]
    for seed in range(0, 10, 2):  # pairs without abstentions, as in the benchmark
        and_c.append([random_instance(3, 4, 3, 2, 1, 2, "C", seed=s) for s in (seed, seed + 1)])
        and_r.append([random_instance(3, 4, 3, 2, 4, 2, "R", seed=s) for s in (seed, seed + 1)])
    return {
        "normalize-half": (cmpv_normalize_half, _normalize_half_reference, ell0 + vc),
        "cmpv-rmpv": (
            cmpv_to_rmpv, _cmpv_to_rmpv_reference, [_normalize_half_reference(i) for i in ell0] + vc
        ),
        "lift-ell1": (lift_ell1, _lift_ell1_reference, ell1 + vc),
        "lift-ell2km2": (lift_ell_2km2, _lift_ell_2km2_reference, ell_2km2 + rev),
        "and-cmpv": (and_compose_cmpv, _and_cmpv_reference, and_c),
        "and-rmpv": (and_compose_rmpv, _and_rmpv_reference, and_r),
    }


@pytest.mark.parametrize(
    "name", ["normalize-half", "cmpv-rmpv", "lift-ell1", "lift-ell2km2", "and-cmpv", "and-rmpv"]
)
def test_counts_match_the_ballot_reference(name):
    # every input gives the reference's counts; inputs without abstentions
    # whose rows are in id order, as the VC gadgets and their revolutionary
    # forms, also give its ballots
    build, reference, inputs = _reference_cases()[name]
    alike = 0
    for source in inputs:
        for variant in (source, _sorted(source)):
            same_ballots = _spelled_alike(variant)
            _same_build(build(variant), reference(variant), same_ballots)
            alike += same_ballots
    assert alike >= 5


def _kernel_inputs():
    # ballot instances on which every n-tau kernel rule builds a reduced instance
    inputs = []
    for seed in range(3):
        inputs += [
            random_instance(3, 20, 2, 2, 1, 2, "C", abstain_probability=0.2, seed=seed),
            random_instance(3, 20, 2, 2, 2, 2, "R", abstain_probability=0.2, seed=seed),
            random_instance(2, 20, 2, 4, 3, 1, "R", seed=seed),  # rescaled: k > n
            random_instance(2, 7, 2, 4, 3, 1, "R", seed=seed),  # gap: k > n
        ]
    return inputs


def test_reductions_build_without_a_tally(monkeypatch):
    cases = _reference_cases()
    kernel_inputs = _kernel_inputs()
    graph = PartitionedGraph(parts=({1, 2}, {3}, {4}), edges=((1, 3), (1, 4), (3, 4)))

    def no_tally(ballots, m):
        raise AssertionError("a reduction tallied ballots")

    def no_spelling(counts, n):
        raise AssertionError("a reduction spelled ballots")

    monkeypatch.setattr(core, "_tally", no_tally)
    monkeypatch.setattr(core, "_spell", no_spelling)
    to_weighted(mcc_to_cmpv(graph))
    for build, _, inputs in cases.values():
        for source in inputs:
            to_weighted(build(source))
    kinds = set()
    for source in kernel_inputs:
        kernel = kernel_ntau_cmpv if source.variant == "C" else kernel_ntau_rmpv
        result = kernel(source)
        assert result.instance is not source and result.instance.n == source.n
        kinds.add((result.kind, result.gap))
        kernel_mtau(result.instance)
        kernel_mtau(to_weighted(result.instance))
    assert kinds == {
        ("ntau-cmpv", False), ("ntau-rmpv", False), ("ntau-rmpv", True),
        ("ntau-rmpv-rescaled", False),
    }


def test_gadget_ballots_are_spelled_once_when_read(monkeypatch):
    graph = PartitionedGraph(parts=({1, 2}, {3}, {4}), edges=((1, 3), (1, 4), (3, 4)))
    spelled = []
    spell = core._spell

    def counted_spell(counts, n):
        spelled.append(n)
        return spell(counts, n)

    monkeypatch.setattr(core, "_spell", counted_spell)
    inst = mcc_to_cmpv(graph)
    report = solve_auto(inst)
    assert report.answer and brute_force(inst).answer
    assert verify(inst, report.witness) == []
    assert spelled == []
    text = emit_instance(inst)
    back = parse_instance(text)
    assert back == inst and emit_instance(back) == text and "profile" not in text
    assert spelled == []
    assert inst.ballots == back.ballots
    assert spelled == [inst.n, inst.n]  # once per instance, kept from then on
    assert inst.ballots == back.ballots
    assert spelled == [inst.n, inst.n]
    assert inst._ballots is None and back._ballots is None  # still canonical


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def test_random_instance_is_deterministic():
    a = random_instance(3, 4, 2, 1, 1, 2, "C", abstain_probability=0.4, seed=99)
    b = random_instance(3, 4, 2, 1, 1, 2, "C", abstain_probability=0.4, seed=99)
    c = random_instance(3, 4, 2, 1, 1, 2, "C", abstain_probability=0.4, seed=100)
    assert a == b
    assert a != c


def test_random_instance_abstain_extremes():
    allin = random_instance(5, 3, 2, 1, 0, 1, "C", abstain_probability=0.0, seed=1)
    assert all(e != 0 for row in allin.ballots for e in row)
    allout = random_instance(5, 3, 2, 1, 0, 1, "C", abstain_probability=1.0, seed=1)
    assert all(e == 0 for row in allout.ballots for e in row)


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance(2, 3, 2, 1, 0, 1, "Z", seed=1)
    with pytest.raises(ValueError):
        random_instance(2, 3, 2, 1, 0, 1, "C", abstain_probability=1.5, seed=1)
    with pytest.raises(ValueError, match="^m must be a positive integer, got 0$"):
        random_instance(2, 0, 2, 1, 0, 1, "C", seed=1)
    sizes = dict(n=2, m=3, tau=2, k=1, ell=0, x=1)
    for name in sizes:
        kind = "a non-negative integer" if name in ("n", "ell") else "a positive integer"
        for bad in (2.0, True, "2", None):
            with pytest.raises(ValueError) as info:
                random_instance(**{**sizes, name: bad}, variant="C", seed=1)
            assert str(info.value) == f"{name} must be {kind}, got {bad!r}"
