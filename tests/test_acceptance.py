"""End-to-end acceptance checks for the whole toolkit.

Each test is one acceptance criterion; `pytest -v` prints one pass/fail
line per criterion. Everything is seeded, so reruns see the same
corpus.
"""

import itertools
import random
import time

from mpvkit import (
    Graph,
    Instance,
    PartitionedGraph,
    TrivialVerdict,
    brute_force,
    cmpv_normalize_half,
    cmpv_to_rmpv,
    and_compose_cmpv,
    and_compose_rmpv,
    emit_instance,
    emit_solution,
    kernel_mtau,
    kernel_ntau_cmpv,
    kernel_ntau_rmpv,
    lift_ell1,
    lift_ell_2km2,
    mcc_to_cmpv,
    pad_half_vertex_cover,
    parse_instance,
    random_instance,
    shrink_weights,
    sidon,
    solve_auto,
    solve_dp_tau,
    solve_inout_ell,
    solve_layered_k,
    solve_unconstrained,
    solve_weighted,
    vc_to_cmpv,
    verify,
)
from mpvkit.cli import run

from conftest import brute_clique, brute_cover


# ---------------------------------------------------------------------------
# shared corpus and reference oracles
# ---------------------------------------------------------------------------

_SWEEP_CACHE = {}


def solver_sweep(variant):
    """Seeded corpus of 500+ instances per variant with n<=4, m<=5,
    tau<=4, k<=3, every ell in 0..2k and every x in 1..n exercised."""
    if variant in _SWEEP_CACHE:
        return _SWEEP_CACHE[variant]
    instances = []
    seed = 0
    # systematic part: all (k, ell, x) combinations at a few shapes
    for k in (1, 2, 3):
        for ell in range(0, 2 * k + 1):
            for x in (1, 2, 3, 4):
                for n, m, tau in ((4, 5, 3), (2, 3, 4), (3, 4, 2)):
                    if x > n:
                        continue
                    seed += 1
                    instances.append(
                        random_instance(n, m, tau, k, ell, x, variant,
                                        abstain_probability=0.2, seed=seed)
                    )
    # random part: fill up to 520
    rng = random.Random(f"acceptance-sweep/{variant}")
    while len(instances) < 520:
        n = rng.randint(1, 4)
        seed += 1
        instances.append(
            random_instance(
                n, rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3),
                rng.randint(0, 6), rng.randint(1, n), variant,
                abstain_probability=rng.choice([0.0, 0.2, 0.4]), seed=seed,
            )
        )
    _SWEEP_CACHE[variant] = instances
    return instances


def dense_pair_oracle(inst):
    """Direct two-stage table: try every committee pair."""
    assert inst.tau == 2
    committees = []
    for size in range(inst.k + 1):
        committees.extend(
            frozenset(c) for c in itertools.combinations(range(1, inst.m + 1), size)
        )
    for c1 in committees:
        if sum(inst.counts[0][c] for c in c1) < inst.x:
            continue
        for c2 in committees:
            if sum(inst.counts[1][c] for c in c2) < inst.x:
                continue
            d = len(c1 ^ c2)
            if inst.variant == "C" and d <= inst.ell:
                return True
            if inst.variant == "R" and d >= inst.ell:
                return True
    return False


def clique_instance_answer(inst, q):
    """Independent answer for the clique gadget's output instances.

    Only relies on properties it verifies from the counts matrix itself:
    the first q + C(q,2) stages pay either 0 or x per candidate over
    pairwise disjoint supports, so a committee of size k = q + C(q,2)
    that reaches x everywhere picks exactly one candidate per support;
    the remaining stages only pay candidates from identified supports,
    so their scores split over independent (vertex, vertex, edge)
    triples. Falls back over the full triple product per stage pair.
    """
    npairs = q * (q - 1) // 2
    ksel = q + npairs
    assert inst.variant == "C" and inst.ell == 0 and inst.k == ksel
    supports = []
    for t in range(1, ksel + 1):
        row = inst.counts[t - 1]
        sup = frozenset(c for c in range(1, inst.m + 1) if row[c])
        assert all(row[c] == inst.x for c in sup), "selection stage not 0/x"
        supports.append(sup)
    taken = set()
    for sup in supports:
        assert not (taken & sup), "selection supports overlap"
        taken |= sup
    if any(not sup for sup in supports):
        return False  # an all-abstain selection stage can never reach x
    pair_list = list(itertools.combinations(range(q), 2))
    ok_pairs = {}
    for idx, (i, j) in enumerate(pair_list):
        t1 = ksel + 2 * idx + 1
        r1, r2 = inst.counts[t1 - 1], inst.counts[t1]
        allowed = supports[i] | supports[j] | supports[q + idx]
        for c in range(1, inst.m + 1):
            assert not ((r1[c] or r2[c]) and c not in allowed), \
                "stage pays a candidate outside its supports"
        good = set()
        for vi in supports[i]:
            for vj in supports[j]:
                if any(r1[vi] + r1[vj] + r1[e] >= inst.x
                       and r2[vi] + r2[vj] + r2[e] >= inst.x
                       for e in supports[q + idx]):
                    good.add((vi, vj))
        ok_pairs[(i, j)] = good
    for combo in itertools.product(*[sorted(s) for s in supports[:q]]):
        if all((combo[i], combo[j]) in ok_pairs[(i, j)] for i, j in pair_list):
            return True
    return False


def all_partitioned_graphs(shape):
    parts = []
    start = 1
    for size in shape:
        parts.append(frozenset(range(start, start + size)))
        start += size
    slots = []
    for i, j in itertools.combinations(range(len(shape)), 2):
        for u in sorted(parts[i]):
            for v in sorted(parts[j]):
                slots.append((u, v))
    for bits in itertools.product([0, 1], repeat=len(slots)):
        edges = tuple(e for e, b in zip(slots, bits) if b)
        yield PartitionedGraph(parts=tuple(parts), edges=edges)


# ---------------------------------------------------------------------------
# 1. exact solvers against the oracle on the full sweep
# ---------------------------------------------------------------------------


def test_acceptance_01_exact_solvers_agree_with_oracle():
    started = time.time()
    runs = 0
    for variant in ("C", "R"):
        for inst in solver_sweep(variant):
            truth = brute_force(inst)
            reports = [solve_layered_k(inst), solve_dp_tau(inst)]
            if variant == "R":
                reports.append(solve_inout_ell(inst))
            if (
                inst.tau == 1
                or (variant == "C" and inst.ell >= 2 * inst.k)
                or (variant == "R" and inst.ell == 0)
            ):
                reports.append(solve_unconstrained(inst))
            for rep in reports:
                runs += 1
                assert rep.answer == truth.answer, (inst, rep.algorithm)
                if rep.answer:
                    assert verify(inst, rep.witness) == [], (inst, rep.algorithm)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"criterion 1: PASS ({runs} solver runs in {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. greedy decoupling in its regime
# ---------------------------------------------------------------------------


def test_acceptance_02_greedy_matches_oracle_in_regime():
    checked = 0
    for trial in range(200):
        variant = "C" if trial % 2 else "R"
        k = 1 + trial % 3
        ell = 2 * k if variant == "C" else 0
        n = 1 + trial % 4
        inst = random_instance(
            n, 1 + trial % 5, 1 + trial % 4, k, ell, 1 + trial % n
            if n > 1 else 1, variant, abstain_probability=0.25,
            seed=trial + 2000,
        )
        rep = solve_unconstrained(inst)
        assert rep.answer == brute_force(inst).answer, inst
        if rep.answer:
            assert verify(inst, rep.witness) == []
        checked += 1
    assert checked == 200
    print("criterion 2: PASS (200 instances)")


# ---------------------------------------------------------------------------
# 3. in/out search for small ell
# ---------------------------------------------------------------------------


def test_acceptance_03_inout_matches_oracle_small_ell():
    for trial in range(200):
        n = 1 + trial % 4
        inst = random_instance(
            n, 1 + trial % 5, 1 + trial % 4, 1 + trial % 3, trial % 3,
            1 + (trial // 2) % n, "R", abstain_probability=0.2,
            seed=trial + 3000,
        )
        rep = solve_inout_ell(inst)
        assert rep.answer == brute_force(inst).answer, inst
        if rep.answer:
            assert verify(inst, rep.witness) == [], inst
    print("criterion 3: PASS (200 instances)")


# ---------------------------------------------------------------------------
# 4. stage-indexed dynamic program against a dense table
# ---------------------------------------------------------------------------


def test_acceptance_04_dp_matches_dense_table():
    checked = 0
    for variant in ("C", "R"):
        for inst in solver_sweep(variant):
            if inst.tau != 2 or inst.m > 4:
                continue
            assert solve_dp_tau(inst).answer == dense_pair_oracle(inst), inst
            checked += 1
    # top up with dedicated two-stage instances
    rng = random.Random(404)
    while checked < 400:
        n = rng.randint(1, 4)
        inst = random_instance(
            n, rng.randint(1, 4), 2, rng.randint(1, 3), rng.randint(0, 6),
            rng.randint(1, n), rng.choice(["C", "R"]),
            abstain_probability=0.3, seed=rng.randint(0, 10**6),
        )
        assert solve_dp_tau(inst).answer == dense_pair_oracle(inst), inst
        checked += 1
    print(f"criterion 4: PASS ({checked} two-stage instances)")


def test_acceptance_04b_dp_groups_twins_exactly():
    # few agents and many abstentions make most candidates twins (equal
    # count columns), which dp-tau steps a group at a time; the states it
    # reaches must not depend on which ids the twins carry
    rng = random.Random("acceptance-twins")
    seen = {"yes": 0, "no": 0, "searched twins": 0}
    for trial in range(800):
        variant = "CR"[trial % 2]
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        inst = random_instance(
            n, rng.randint(2, 8), rng.randint(1, 4), k, rng.randint(0, 2 * k),
            rng.randint(1, (n + 1) // 2), variant, abstain_probability=rng.choice([0.4, 0.6]),
            seed=trial + 4400,
        )
        truth = brute_force(inst).answer
        dp = solve_dp_tau(inst)
        for rep in (dp, solve_auto(inst)):
            assert rep.answer == truth, (inst, rep.algorithm)
            if rep.answer:
                assert verify(inst, rep.witness) == [], (inst, rep.algorithm)
        ids = list(range(1, inst.m + 1))
        rng.shuffle(ids)
        ballots = tuple(tuple(ids[c - 1] if c else 0 for c in row) for row in inst.ballots)
        relabelled = solve_dp_tau(Instance(variant, inst.m, ballots, inst.k, inst.ell, inst.x))
        assert (relabelled.answer, relabelled.stats["states"]) == (dp.answer, dp.stats["states"]), inst
        cols = [col for col in list(zip(*inst.counts))[1:] if variant == "R" or any(col)]
        seen["searched twins"] += len(set(cols)) < len(cols) and dp.stats["states"] > 0
        seen["yes" if truth else "no"] += 1
    assert min(seen.values()) >= 150, seen
    print(f"criterion 4b: PASS (800 instances, {seen})")


# ---------------------------------------------------------------------------
# 5. reductions, lifts, and compositions
# ---------------------------------------------------------------------------


def test_acceptance_05a_vertex_cover_reduction():
    rng = random.Random(55)
    done = 0
    while done < 20:
        nv = rng.randint(2, 8)
        r = rng.randint(0, nv)
        if 2 * r < nv and 2 * (nv - r + 1) > 8:
            continue
        if 2 * r > nv and 2 * r > 8:
            continue
        pool = list(itertools.combinations(range(1, nv + 1), 2))
        g = Graph(nv, tuple(rng.sample(pool, rng.randint(0, len(pool)))))
        truth = brute_cover(g, r)
        g2, r2 = pad_half_vertex_cover(g, r)
        assert 2 * r2 == g2.num_vertices and g2.num_vertices <= 8
        assert brute_cover(g2, r2) == truth
        out = vc_to_cmpv(g2)
        if isinstance(out, TrivialVerdict):
            assert out.answer is True and truth is True
        else:
            assert brute_force(out).answer == truth, (g, r)
        done += 1
    print("criterion 5a: PASS (20 graphs)")


def conservative_ell0_inputs():
    """Seeded conservative ``ell = 0`` instances with every relation of ``k`` to ``m/2``."""
    rng = random.Random(56)
    for trial in range(60):
        n = rng.randint(1, 3)
        yield random_instance(
            n, rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3), 0,
            rng.randint(1, n), "C", abstain_probability=0.3, seed=trial + 70,
        )


def test_acceptance_05b_conservative_to_revolutionary():
    for inst in conservative_ell0_inputs():
        norm = cmpv_normalize_half(inst)
        rev = cmpv_to_rmpv(norm)
        assert rev.tau == 2 * norm.tau + 1
        assert brute_force(rev).answer == brute_force(inst).answer, inst
    print("criterion 5b: PASS (60 chains)")


def sampled_partitioned_graphs():
    """Seeded samples plus the complete and empty graphs for shapes up to 3+3+3."""
    rng = random.Random(57)
    for shape in [(1, 3, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3)]:
        parts = []
        start = 1
        for size in shape:
            parts.append(frozenset(range(start, start + size)))
            start += size
        slots = []
        for i, j in itertools.combinations(range(len(shape)), 2):
            slots.extend((u, v) for u in sorted(parts[i]) for v in sorted(parts[j]))
        samples = [tuple(e for e in slots if rng.random() < p)
                   for p in (0.25, 0.5, 0.75) for _ in range(7)]
        samples.append(tuple(slots))
        samples.append(())
        for edges in samples:
            yield PartitionedGraph(parts=tuple(parts), edges=edges)


def lift_inputs():
    """Seeded two-agent inputs of ``lift_ell1`` and of ``lift_ell_2km2``."""
    rng = random.Random(58)
    ell1 = [
        random_instance(
            2, rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 2), 0, 1,
            "C", abstain_probability=0.3, seed=trial + 500,
        )
        for trial in range(40)
    ]
    ell_2km2 = []
    for trial in range(40):
        k = rng.randint(1, 2)
        ell_2km2.append(random_instance(
            2, 2 * k, rng.randint(1, 3), k, 2 * k, 1, "R",
            abstain_probability=0.3, seed=trial + 600,
        ))
    return ell1, ell_2km2


def and_pools(variant, ell, m):
    """Three yes and three no two-agent, two-stage inputs of an AND-composition."""
    found = {True: [], False: []}
    seed = 0
    while any(len(v) < 3 for v in found.values()):
        seed += 1
        inst = random_instance(2, m, 2, 1, ell, 1, variant,
                               abstain_probability=0.3, seed=seed)
        a = brute_force(inst).answer
        if len(found[a]) < 3:
            found[a].append(inst)
    return found


def and_patterns(pool, parts):
    """Input lists drawn from ``pool`` for every yes/no pattern of 1..``parts`` inputs."""
    for p in range(1, parts + 1):
        for pattern in itertools.product([True, False], repeat=p):
            yield pattern, [pool[a][i % 3] for i, a in enumerate(pattern)]


def test_acceptance_05c_multicolored_clique_reduction():
    # exhaustive over every edge set for part shapes with at most twelve
    # candidate edge slots, seeded samples plus the complete and empty
    # graphs for the larger shapes up to 3+3+3
    exhaustive = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
                  (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2),
                  (1, 2, 3), (2, 2, 2)]
    graphs = 0
    for shape in exhaustive:
        for pg in all_partitioned_graphs(shape):
            inst = mcc_to_cmpv(pg)
            q = len(shape)
            assert inst.k == q + q * (q - 1) // 2
            assert inst.x == 2 * sidon(pg.num_vertices).elements[-1]
            assert clique_instance_answer(inst, q) == brute_clique(pg), pg
            graphs += 1
    for pg in sampled_partitioned_graphs():
        inst = mcc_to_cmpv(pg)
        assert clique_instance_answer(inst, len(pg.parts)) == brute_clique(pg), pg
        graphs += 1
    # ground the decomposition oracle against plain brute force where feasible
    for shape in [(1, 1), (1, 2), (2, 2), (1, 1, 1)]:
        for pg in all_partitioned_graphs(shape):
            inst = mcc_to_cmpv(pg)
            assert brute_force(inst).answer == clique_instance_answer(inst, len(shape))
    print(f"criterion 5c: PASS ({graphs} partitioned graphs)")


def test_brute_force_decides_3x3x3_clique_gadgets():
    # at ell = 0 a stage's only successor is the committee itself, and
    # solve_auto falls back to brute force on these gadgets
    graphs = [pg for pg in sampled_partitioned_graphs() if list(map(len, pg.parts)) == [3, 3, 3]]
    sparsest_yes = min((pg for pg in graphs if brute_clique(pg)), key=lambda pg: len(pg.edges))
    densest_no = max((pg for pg in graphs if not brute_clique(pg)), key=lambda pg: len(pg.edges))
    for pg, expected in ((sparsest_yes, True), (densest_no, False)):
        inst = mcc_to_cmpv(pg)
        for rep in (brute_force(inst), solve_auto(inst)):
            assert rep.answer is expected, (pg, rep.algorithm)
            assert (rep.witness is not None) is expected
            if expected:
                assert verify(inst, rep.witness) == []


def test_acceptance_05d_lifts_and_compositions():
    # lifts across yes and no inputs
    ell1_inputs, ell_2km2_inputs = lift_inputs()
    lifted = 0
    for inst in ell1_inputs:
        assert brute_force(lift_ell1(inst)).answer == brute_force(inst).answer
        lifted += 1
    for inst in ell_2km2_inputs:
        assert brute_force(lift_ell_2km2(inst)).answer == brute_force(inst).answer
        lifted += 1

    for pattern, inputs in and_patterns(and_pools("C", 1, 3), 3):
        out = and_compose_cmpv(inputs)
        assert out.tau == len(pattern) * 2 + 2 * 1 * (len(pattern) - 1)
        assert brute_force(out).answer is all(pattern), pattern
    for pattern, inputs in and_patterns(and_pools("R", 2, 2), 2):
        out = and_compose_rmpv(inputs)
        assert out.tau == len(pattern) * 2 + (len(pattern) - 1)
        assert brute_force(out).answer is all(pattern), pattern
    print(f"criterion 5d: PASS ({lifted} lifts, all AND patterns)")


# ---------------------------------------------------------------------------
# 6. Sidon sets
# ---------------------------------------------------------------------------


def test_acceptance_06_sidon_sets():
    for b in range(1, 201):
        s = sidon(b).elements
        assert len(s) == b
        sums = [s[i] + s[j] for i in range(b) for j in range(i, b)]
        assert len(set(sums)) == len(sums), b
        assert max(s) <= 4 * b * b + 4 * b, b
    started = time.time()
    big = sidon(10**6)
    elapsed = time.time() - started
    assert len(big.elements) == 10**6
    assert elapsed < 1.0, f"sidon(1e6) took {elapsed:.2f}s"
    print(f"criterion 6: PASS (b<=200 exhaustive, b=1e6 in {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 7. kernels
# ---------------------------------------------------------------------------


def test_acceptance_07_kernels():
    rng = random.Random(70)
    # candidate-count kernels; n stays below k often enough to reach the
    # rescaling and gap branches
    for trial in range(150):
        variant = rng.choice(["C", "R"])
        n = rng.randint(1, 2)
        k = rng.randint(1, 4)
        inst = random_instance(
            n, rng.randint(1, 8), rng.randint(1, 3), k,
            rng.randint(0, 2 * k + 1), rng.randint(1, n), variant,
            abstain_probability=0.3, seed=trial + 7000,
        )
        truth = brute_force(inst).answer
        result = kernel_ntau_cmpv(inst) if variant == "C" else kernel_ntau_rmpv(inst)
        if result.verdict is not None:
            assert inst.tau >= 2 and 2 * inst.k < inst.ell
            assert result.verdict.answer is False and truth is False
            continue
        small = result.instance
        if variant == "C" or not result.gap:
            assert small.m <= small.n * small.tau, (inst, small)
        rep = brute_force(small)
        assert rep.answer == truth, (inst, small)
        if rep.answer:
            assert verify(inst, result.lift(rep.witness)) == []
    # the size-based no rule, specifically on multi-stage instances
    for trial in range(20):
        k = rng.randint(1, 2)
        inst = random_instance(
            2, 3, rng.randint(2, 4), k, 2 * k + 1 + rng.randint(0, 2), 1,
            "R", seed=trial,
        )
        result = kernel_ntau_rmpv(inst)
        assert result.verdict is not None and result.verdict.answer is False
        assert brute_force(inst).answer is False
    # weight kernel: small instances, norm bound and equivalence
    for trial in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        tau = rng.randint(1, 3)
        k = rng.randint(1, 2)
        inst = random_instance(
            n, m, tau, k, rng.randint(0, 2 * k), rng.randint(1, n),
            rng.choice(["C", "R"]), abstain_probability=0.2, seed=trial + 7500,
        )
        small = kernel_mtau(inst)
        d = m * tau + 1
        bound = 2 ** (4 * d**3) * (k + 2) ** (d * (d + 2))
        flat = [v for row in small.weights for v in row[1:]] + [small.x]
        assert all(0 <= v <= bound for v in flat), (inst, small)
        assert solve_weighted(small).answer == brute_force(inst).answer, inst
    print("criterion 7: PASS (230 kernel checks)")


# ---------------------------------------------------------------------------
# 8. weight compression
# ---------------------------------------------------------------------------


def test_acceptance_08_weight_compression():
    rng = random.Random(80)
    for case in range(100):
        d = 1 + case % 4
        N = 2 + case % 3
        w = tuple(rng.randint(0, 10) for _ in range(d))
        wbar = shrink_weights(w, N)
        bound = 2 ** (4 * d**3) * N ** (d * (d + 2))
        assert all(abs(v) <= bound for v in wbar), (w, N, wbar)
        for b in itertools.product(range(-(N - 1), N), repeat=d):
            if sum(abs(e) for e in b) > N - 1:
                continue
            lhs = sum(wi * bi for wi, bi in zip(w, b))
            rhs = sum(wi * bi for wi, bi in zip(wbar, b))
            assert (lhs > 0) - (lhs < 0) == (rhs > 0) - (rhs < 0), (w, N, b)
    print("criterion 8: PASS (100 vectors, exhaustive test multipliers)")


# ---------------------------------------------------------------------------
# 9. scaling targets
# ---------------------------------------------------------------------------


def test_acceptance_09_scaling_targets():
    inst = random_instance(100, 10**4, 10, 1, 1, 1, "C", seed=42)
    started = time.time()
    rep = solve_layered_k(inst)
    layered_s = time.time() - started
    assert layered_s < 5.0, f"layered took {layered_s:.1f}s"
    if rep.answer:
        assert verify(inst, rep.witness) == []

    dp_times = []
    for k in (3, 5):
        inst = random_instance(50, 1000, 2, k, 1, 2, "C", seed=7)
        started = time.time()
        rep = solve_dp_tau(inst)
        dp_times.append(time.time() - started)
        assert dp_times[-1] < 10.0, f"dp (k={k}) took {dp_times[-1]:.1f}s"
        if rep.answer:
            assert verify(inst, rep.witness) == []

    inst = random_instance(8, 50, 50, 2, 1, 2, "R", seed=3)
    started = time.time()
    rep = solve_inout_ell(inst)
    inout_s = time.time() - started
    assert inout_s < 10.0, f"inout took {inout_s:.1f}s"
    if rep.answer:
        assert verify(inst, rep.witness) == []
    print(
        f"criterion 9: PASS (layered {layered_s:.2f}s, "
        f"dp {max(dp_times):.2f}s, inout {inout_s:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 10. formats and command line
# ---------------------------------------------------------------------------


def test_acceptance_10_round_trips_and_exit_codes(tmp_path, capsys):
    rng = random.Random(100)
    for trial in range(100):
        n = rng.randint(0, 4)
        inst = random_instance(
            n, rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 3),
            rng.randint(0, 5), rng.randint(1, max(1, n)),
            rng.choice(["C", "R"]), abstain_probability=0.3, seed=trial,
        )
        text = emit_instance(inst)
        assert parse_instance(text) == inst
        assert emit_instance(parse_instance(text)) == text

    ballots = ((1, 1), (2, 2), (1, 3))
    yes = Instance(variant="R", m=3, ballots=ballots, k=1, ell=2, x=1)
    no = Instance(variant="C", m=3, ballots=ballots, k=1, ell=0, x=1)
    yes_path = tmp_path / "yes.mpv"
    yes_path.write_text(emit_instance(yes))
    no_path = tmp_path / "no.mpv"
    no_path.write_text(emit_instance(no))

    assert run(["solve", str(yes_path)]) == 0
    assert capsys.readouterr().out == "YES\n"
    assert run(["solve", str(no_path)]) == 1
    assert capsys.readouterr().out == "NO\n"

    sol = tmp_path / "sol.txt"
    sol.write_text(emit_solution((frozenset({1}), frozenset({2}), frozenset({1}))))
    assert run(["verify", str(yes_path), str(sol)]) == 0
    capsys.readouterr()
    assert run(["verify", str(no_path), str(sol)]) == 1
    capsys.readouterr()

    assert run(["solve", str(tmp_path / "missing.mpv")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.mpv"
    bad.write_text("mpv 1\nvariant C\nagents x\n")
    assert run(["solve", str(bad)]) == 2
    capsys.readouterr()

    wide = Instance(variant="C", m=8, ballots=((1, 2, 3, 4, 5, 6, 7, 8),) * 4,
                    k=4, ell=8, x=1)
    wide_path = tmp_path / "wide.mpv"
    wide_path.write_text(emit_instance(wide))
    assert run(["solve", str(wide_path), "--algorithm", "brute", "--budget", "10"]) == 3
    capsys.readouterr()
    print("criterion 10: PASS (100 round trips, exit codes 0/1/2/3)")
