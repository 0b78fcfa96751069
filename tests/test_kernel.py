import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from mpvkit import core
from mpvkit import (
    Instance,
    PartitionedGraph,
    PreconditionError,
    WeightedInstance,
    brute_force,
    kernel_mtau,
    kernel_ntau_cmpv,
    kernel_ntau_rmpv,
    mcc_to_cmpv,
    parse_instance,
    random_instance,
    shrink_weights,
    solve_weighted,
    to_weighted,
    verify,
)

from mpvkit.formats import emit_instance
from mpvkit.kernel import _approx_lattice, _lll

from conftest import e1


# ---------------------------------------------------------------------------
# candidate kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kernel,variant", [(kernel_ntau_cmpv, "C"), (kernel_ntau_rmpv, "R")]
)
def test_ntau_kernels_answer_no_without_agents(kernel, variant):
    # n * tau = 0 candidates would be kept, and the revolutionary rescaling
    # would set k to 0; every score is 0 < x instead
    for m, k, ell in ((1, 1, 0), (4, 2, 1), (6, 3, 2)):
        inst = Instance(variant, m, ((),) * 3, k, ell, 1)
        result = kernel(inst)
        assert result.instance is None and result.verdict.answer is False
        assert "no agents" in result.verdict.reason
        assert brute_force(inst).answer is False


def test_cmpv_kernel_drops_unapproved_candidates():
    inst = Instance(
        variant="C", m=9, ballots=((9, 8), (2, 8)), k=2, ell=1, x=1
    )
    result = kernel_ntau_cmpv(inst)
    small = result.instance
    assert small.m <= small.n * small.tau
    assert result.verdict is None
    # renumbering is order preserving
    assert result.id_map == {1: 1, 2: 2, 3: 8, 4: 9}
    assert brute_force(small).answer == brute_force(inst).answer


def test_lift_rejects_ids_outside_the_reduced_instance():
    inst = Instance(
        variant="C", m=20, ballots=((1, 2, 3), (4, 5, 6), (7, 8, 9)), k=2, ell=1, x=1
    )
    result = kernel_ntau_cmpv(inst)
    assert result.instance.m == 9
    good = (frozenset({1}), frozenset({4}), frozenset({7}))
    assert result.lift(good) == good
    for bad in (10, 0):
        with pytest.raises(ValueError, match=rf"candidate {bad} outside 1..9"):
            result.lift((frozenset({1}), frozenset({bad}), frozenset({7})))
    with pytest.raises(ValueError, match="^solution has 2 committees, instance has 3 stages$"):
        result.lift(good[:2])


@pytest.mark.parametrize(
    "committees, message",
    [
        (({1}, {4}), "solution has 2 committees, instance has 3 stages"),
        (({1}, {4}, {7}, {1}), "solution has 4 committees, instance has 3 stages"),
        (({1}, {0}, {7}), "candidate 0 outside 1..9"),
        (({1}, {10}, {7}), "candidate 10 outside 1..9"),
        (({1}, {np.int64(10)}, {7}), f"candidate {np.int64(10)!r} outside 1..9"),
        (({1}, {4.0}, {7}), "candidate must be an integer, got 4.0"),
        (({1}, {"4"}, {7}), "candidate must be an integer, got '4'"),
    ],
    ids=["too-few", "too-many", "id-0", "id-m+1", "numpy-id", "float", "string"],
)
def test_verify_and_lift_reject_a_malformed_sequence_alike(committees, message):
    # lift reads a reduced-instance solution through the same check as verify
    inst = Instance(
        variant="C", m=20, ballots=((1, 2, 3), (4, 5, 6), (7, 8, 9)), k=2, ell=1, x=1
    )
    result = kernel_ntau_cmpv(inst)
    assert result.instance.m == 9
    for check in (lambda c: verify(result.instance, c), result.lift):
        with pytest.raises(ValueError) as err:
            check(committees)
        assert str(err.value) == message


def test_lift_refuses_a_decided_kernel():
    result = kernel_ntau_rmpv(random_instance(1, 3, 2, 1, 3, 1, "R", seed=1))
    assert result.verdict is not None
    with pytest.raises(ValueError, match="^nothing to lift: the kernel decided the instance$"):
        result.lift((frozenset(), frozenset()))


def test_cmpv_kernel_noop_when_already_small(e1_cmpv):
    result = kernel_ntau_cmpv(e1_cmpv)
    assert result.instance == e1_cmpv
    assert result.id_map == {1: 1, 2: 2, 3: 3}


def test_kernels_check_the_variant(e1_rmpv, e1_cmpv):
    with pytest.raises(PreconditionError):
        kernel_ntau_cmpv(e1_rmpv)
    with pytest.raises(PreconditionError):
        kernel_ntau_rmpv(e1_cmpv)


def test_rmpv_kernel_trivial_no():
    # committees of size <= k can never differ by more than 2k entries
    inst = random_instance(1, 3, 2, 1, 3, 1, "R", seed=1)
    result = kernel_ntau_rmpv(inst)
    assert result.verdict is not None
    assert result.verdict.answer is False
    assert brute_force(inst).answer is False


def test_rmpv_kernel_keeps_single_stage_yes():
    # with one stage there are no transitions, so ell > 2k is harmless
    inst = Instance(variant="R", m=1, ballots=((1,),), k=1, ell=3, x=1)
    result = kernel_ntau_rmpv(inst)
    assert result.verdict is None
    assert brute_force(result.instance).answer is True


def test_rmpv_kernel_equivalence_and_lift():
    rng = random.Random(20)
    for trial in range(120):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        tau = rng.randint(1, 3)
        m = rng.randint(1, 10)
        ell = rng.randint(0, 2 * k)
        inst = random_instance(
            n, m, tau, k, ell, rng.randint(1, n), "R",
            abstain_probability=0.3, seed=trial,
        )
        result = kernel_ntau_rmpv(inst)
        truth = brute_force(inst).answer
        if result.verdict is not None:
            assert result.verdict.answer == truth
            continue
        small = result.instance
        if not result.gap:
            assert small.m <= small.n * small.tau, (inst, small)
        rep = brute_force(small)
        assert rep.answer == truth, (inst, small)
        if rep.answer:
            lifted = result.lift(rep.witness)
            assert verify(inst, lifted) == [], (inst, small, rep.witness, lifted)


def test_rmpv_kernel_rescales_when_k_exceeds_n():
    # k > n and enough never-approved candidates to land on m == k*tau
    inst = Instance(
        variant="R", m=8, ballots=((1, 1), (2, 2)), k=4, ell=6, x=1
    )
    result = kernel_ntau_rmpv(inst)
    assert result.kind == "ntau-rmpv-rescaled"
    small = result.instance
    assert small.k == small.n == 2
    assert small.m <= small.n * small.tau
    assert brute_force(small).answer == brute_force(inst).answer
    rep = brute_force(small)
    if rep.answer:
        assert verify(inst, result.lift(rep.witness)) == []


def test_rmpv_kernel_gap_flag():
    # k > n with n*tau < m < k*tau: no rule applies, flag the gap
    inst = Instance(
        variant="R", m=4, ballots=((1,), (1,)), k=3, ell=0, x=1
    )
    result = kernel_ntau_rmpv(inst)
    assert result.gap is True
    assert result.verdict is None
    assert brute_force(result.instance).answer == brute_force(inst).answer


def test_cmpv_kernel_equivalence():
    rng = random.Random(21)
    for trial in range(120):
        n = rng.randint(1, 3)
        inst = random_instance(
            n,
            rng.randint(1, 10),
            rng.randint(1, 3),
            rng.randint(1, 3),
            rng.randint(0, 4),
            rng.randint(1, n),
            "C",
            abstain_probability=0.3,
            seed=trial + 1000,
        )
        result = kernel_ntau_cmpv(inst)
        small = result.instance
        assert small.m <= max(small.n * small.tau, 1)
        rep = brute_force(small)
        assert rep.answer == brute_force(inst).answer, (inst, small)
        if rep.answer:
            assert verify(inst, result.lift(rep.witness)) == []


_NTAU = {"C": kernel_ntau_cmpv, "R": kernel_ntau_rmpv}


def _counts_built_inputs():
    # a gadget, the same gadget read back from its file, and a wide instance
    # whose never-approved candidates the kernels drop; each in both variants
    graph = PartitionedGraph(parts=({1, 2}, {3}, {4}), edges=((1, 3), (1, 4), (3, 4)))
    gadget = mcc_to_cmpv(graph)
    parsed = parse_instance(emit_instance(gadget))
    wide = [(0,) * 5 + (3,) + (0,) * 30 + (1, 0, 0, 0, 2), (0, 4) + (0,) * 39, (0,) * 41]
    inputs = []
    for inst in (gadget, parsed):
        inputs += [inst, Instance._of_counts("R", inst.m, inst.counts, inst.n, 2, 1, inst.x)]
    return inputs + [Instance._of_counts(v, 40, wide, 6, 2, 1, 2) for v in ("C", "R")]


def test_ntau_kernels_read_the_counts_of_a_counts_built_input(monkeypatch):
    expected = []
    for inst in _counts_built_inputs():
        given = Instance(inst.variant, inst.m, inst.ballots, inst.k, inst.ell, inst.x)
        expected.append(_NTAU[inst.variant](given))
    assert [r.instance.m for r in expected[-2:]] == [18, 18]

    def no_spelling(counts, n):
        raise AssertionError("an instance spelled its ballots")

    monkeypatch.setattr(core, "_spell", no_spelling)
    inputs = _counts_built_inputs()
    assert inputs[2]._ballots is None  # read from its count rows
    for inst, want in zip(inputs, expected):
        got = _NTAU[inst.variant](inst)
        assert (got.kind, got.id_map, got.gap, got.stage_fillers) == (
            want.kind, want.id_map, want.gap, want.stage_fillers
        )
        assert got.instance._parameters() == want.instance._parameters()
    for inst in inputs[-2:]:
        with pytest.raises(PreconditionError):
            _NTAU[inst.variant](to_weighted(inst))


# ---------------------------------------------------------------------------
# weighted form
# ---------------------------------------------------------------------------


def test_to_weighted_reads_counts(e1_cmpv):
    w = to_weighted(e1_cmpv)
    assert w.weights == ((0, 2, 0, 0), (0, 0, 2, 0), (0, 1, 0, 1))
    assert (w.variant, w.m, w.k, w.ell, w.x) == ("C", 3, 1, 2, 1)


def test_solve_weighted_matches_unit(e1_cmpv):
    assert solve_weighted(to_weighted(e1_cmpv)).answer is True
    assert solve_weighted(to_weighted(e1("C", ell=0))).answer is False
    rep = solve_weighted(to_weighted(e1("R", ell=2)))
    assert rep.answer is True
    assert rep.algorithm == "brute-force-weighted"


# ---------------------------------------------------------------------------
# weight compression
# ---------------------------------------------------------------------------


def _signs_agree(w, wbar, N):
    d = len(w)
    for b in itertools.product(range(-(N - 1), N), repeat=d):
        if sum(abs(e) for e in b) > N - 1:
            continue
        lhs = sum(wi * bi for wi, bi in zip(w, b))
        rhs = sum(wi * bi for wi, bi in zip(wbar, b))
        if (lhs > 0) - (lhs < 0) != (rhs > 0) - (rhs < 0):
            return False
    return True


def test_shrink_weights_contract():
    rng = random.Random(8)
    for _ in range(60):
        d = rng.randint(1, 4)
        N = rng.randint(2, 4)
        w = tuple(rng.randint(0, 10) for _ in range(d))
        wbar = shrink_weights(w, N)
        assert len(wbar) == d
        bound = 2 ** (4 * d**3) * N ** (d * (d + 2))
        assert all(abs(v) <= bound for v in wbar)
        assert _signs_agree(w, wbar, N)


def test_shrink_weights_handles_huge_entries():
    w = (10**15, 10**15 + 1, 7)
    wbar = shrink_weights(w, 3)
    assert _signs_agree(w, wbar, 3)
    assert max(abs(v) for v in wbar) < 10**15


def test_shrink_weights_zero_and_single():
    assert shrink_weights((0, 0), 5) == (0, 0)
    wbar = shrink_weights((42,), 4)
    assert len(wbar) == 1 and wbar[0] > 0


def test_shrink_weights_validation():
    with pytest.raises(ValueError):
        shrink_weights((1, 2), 1)
    with pytest.raises(ValueError):
        shrink_weights((1.5, 2), 3)
    # bool is never a weight or a bound, as in Instance's parameters
    with pytest.raises(ValueError, match="weights must be integers"):
        shrink_weights((True, 2), 3)
    with pytest.raises(ValueError, match="N must be an integer"):
        shrink_weights((1, 2), True)
    with pytest.raises(ValueError, match="N must be an integer"):
        shrink_weights((1, 2), 3.0)
    # numpy integers are taken and stored as int
    out = shrink_weights((np.int64(3), 10**15), np.int64(3))
    assert out == shrink_weights((3, 10**15), 3)
    assert all(type(v) is int for v in out)
    assert shrink_weights([np.int64(5), np.uint8(0)], 2) == (1, 0)


# outputs of the rational-LLL implementation this one replaced
PINNED_SHRINKS = [
    ((10**15, 10**15 + 1, 7), 3, (14, 15, 7)),
    ((5 * 10**9, 10**9, 3 * 10**9), 3, (5, 1, 3)),
    ((123456789, -987654321, 0, 5), 2, (14, -152, 0, 18)),
    ((2**61 - 1, 2**31 - 1, 65537, 1), 6, (156, 31, 6, 1)),
    ((10**12 + 39, 3 * 10**11, 7 * 10**11 - 1, 10**12), 4, (11710, 3396, 7914, 11320)),
    ((-(10**9), 10**9 - 1, 17, 0, 2 * 10**9), 3, (-35, 34, 17, 0, 70)),
    ((999983, 999979, 999961, 999959, 999953, 999931), 4, (79, 77, 68, 67, 64, 53)),
    ((3, 1, 4, 1, 5, 9, 2, 6), 5, (3, 1, 4, 1, 5, 9, 2, 6)),
]


@pytest.mark.parametrize("w,N,expected", PINNED_SHRINKS)
def test_shrink_weights_pinned_outputs(w, N, expected):
    assert shrink_weights(w, N) == expected


# ---------------------------------------------------------------------------
# lattice reduction
# ---------------------------------------------------------------------------


def _approx_lattices(dims, seed, vectors=()):
    """``(a, D)`` of the lattices ``_simultaneous_approx`` builds.

    One seeded vector per entry of ``dims``, then the given ``vectors``,
    each with its bound ``N``. Drawn entries are zero, negative or
    positive with moduli up to 10**9.
    """
    rng = random.Random(seed)
    drawn = []
    for d in dims:
        top = 10 ** rng.randint(0, 9)
        w = [rng.choice((0, rng.randint(-top, top))) for _ in range(d)]
        w[rng.randrange(d)] = rng.choice((top, -top))
        drawn.append((w, rng.randint(2, 4)))
    for w, N in drawn + list(vectors):
        yield _approx_lattice(w, N)


# sympy floors mu + 1/2 through float; on this vector the float rounding
# gives another quotient than exact rationals would
FLOAT_ROUNDING = (
    [0, -567653936, 0, -348825971, 0, -212625479, 0, 0, 327476034, -139165344, 0, 0],
    5,
)
# every d up to 20 once, then mostly small d, where sympy is quick
SMALL_LATTICES = (list(range(1, 21)) + [1 + i % 8 for i in range(180)], 31, [FLOAT_ROUNDING])
LARGE_LATTICES = ([38, 41], 32)


def _basis(a, D):
    rows = [list(a)]
    for i in range(1, len(a)):
        rows.append([D if j == i else 0 for j in range(len(a))])
    return rows


@pytest.mark.parametrize("draws", [SMALL_LATTICES, LARGE_LATTICES], ids=["d1-20", "d38-41"])
def test_lll_matches_sympy(draws):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ZZ, QQ = sympy.ZZ, sympy.QQ
    for a, D in _approx_lattices(*draws):
        n = len(a)
        mat = DomainMatrix([[ZZ(e) for e in row] for row in _basis(a, D)], (n, n), ZZ)
        expected = [[int(e) for e in row] for row in mat.lll(delta=QQ(3, 4)).to_list()]
        assert _lll(a, D) == expected, (a, D)


@pytest.mark.parametrize("draws", [SMALL_LATTICES, LARGE_LATTICES], ids=["d1-20", "d38-41"])
def test_lll_output_is_a_reduced_basis_of_the_lattice(draws):
    delta = Fraction(3, 4)
    for a, D in _approx_lattices(*draws):
        basis = _lll(a, D)
        n = len(a)
        # every row is q*a + D*p for integers q and p: a lattice vector
        for row in basis:
            q, r = divmod(row[0], a[0])
            assert r == 0 and all((v - q * ai) % D == 0 for v, ai in zip(row[1:], a[1:]))
        # Gram-Schmidt over exact rationals
        star, norms, mu = [], [], [[Fraction(0)] * n for _ in range(n)]
        for i, row in enumerate(basis):
            v = [Fraction(e) for e in row]
            for j in range(i):
                mu[i][j] = sum(x * y for x, y in zip(row, star[j])) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            norms.append(sum(x * x for x in v))
        # same volume as the input basis, so the rows span the whole lattice
        assert math.prod(norms) == D ** (2 * (n - 1)) * a[0] ** 2
        for k in range(1, n):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
            assert norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]


# ---------------------------------------------------------------------------
# weight kernel
# ---------------------------------------------------------------------------


def test_kernel_mtau_shrinks_and_preserves():
    rng = random.Random(9)
    for trial in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        tau = rng.randint(1, 3)
        k = rng.randint(1, 2)
        inst = random_instance(
            n, m, tau, k, rng.randint(0, 2 * k), rng.randint(1, n),
            rng.choice(["C", "R"]), abstain_probability=0.2, seed=trial,
        )
        small = kernel_mtau(inst)
        assert isinstance(small, WeightedInstance)
        assert small.x >= 1
        d = m * tau + 1
        bound = 2 ** (4 * d**3) * (k + 2) ** (d * (d + 2))
        flat = [v for row in small.weights for v in row[1:]] + [small.x]
        assert all(abs(v) <= bound for v in flat)
        assert solve_weighted(small).answer == brute_force(inst).answer, (inst, small)


# the rational-LLL implementation this one replaced gave the same text
MTAU_PINNED = WeightedInstance(
    "R", 3, ((0, 10**12 + 3, 10**12 - 1, 2), (0, 7, 5 * 10**11, 10**12)), 1, 1, 10**12
)
MTAU_PINNED_TEXT = """mpv 1
variant R
candidates 3
stages 2
k 1
ell 1
x 52
weights 1: 58 50 4
weights 2: 14 26 52
"""


def test_kernel_mtau_runs_without_sympy(monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)  # importing sympy now fails
    assert emit_instance(kernel_mtau(MTAU_PINNED)) == MTAU_PINNED_TEXT


def test_kernel_mtau_accepts_weighted_input():
    w = WeightedInstance(
        variant="C", m=2, weights=((0, 5 * 10**9, 10**9),), k=1, ell=0, x=3 * 10**9
    )
    small = kernel_mtau(w)
    # 5a >= 3a > a: committee {1} wins, {2} does not
    assert small.weights[0][1] >= small.x
    assert small.weights[0][2] < small.x
    assert solve_weighted(small).answer is True
