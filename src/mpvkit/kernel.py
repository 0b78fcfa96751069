"""Data reduction: candidate-count kernels and weight shrinking.

Two reduction families:

* never-approved-candidate rules bounding the candidate count by a
  function of agents and stages (:func:`kernel_ntau_cmpv`,
  :func:`kernel_ntau_rmpv`), with recorded id mappings so witnesses of
  the reduced instance translate back, and
* score compression bounding every weight's bit size by a polynomial in
  candidates and stages (:func:`kernel_mtau`), built on
  :func:`shrink_weights`: Frank-Tardos compression, whose simultaneous
  Diophantine approximation runs an integral LLL over Python ints
  (:func:`_lll`). It starts from the closed-form Gram-Schmidt data of
  the one lattice it reduces and takes the same steps as sympy's
  rational ``DomainMatrix.lll``, so outputs match it; sympy is not
  needed.

Both families build their outputs from counts: the n-tau kernels keep
the count columns of the candidates they keep, so they tally and spell
no ballots. :func:`to_weighted` keeps only an instance's per-stage
counts, as a :class:`~mpvkit.core.WeightedInstance`. The n-tau kernels
need agents and raise :class:`~mpvkit.core.PreconditionError` on
weighted input.
"""

from __future__ import annotations

import math

from .core import (
    CONSERVATIVE,
    DEFAULT_BUDGET,
    Instance,
    PreconditionError,
    REVOLUTIONARY,
    SolveReport,
    TrivialVerdict,
    WeightedInstance,
    _Record,
    _approved,
    _change_out_of_reach,
    _integer,
    _natural,
    _sequence,
)
from .oracle import brute_force


class KernelResult(_Record):
    """Outcome of a candidate-count kernelization.

    Either ``verdict`` is set (the rule decided the instance outright) or
    ``instance`` holds the reduced instance together with ``id_map``,
    which maps each reduced candidate id to the original id it stands
    for. ``gap`` marks revolutionary inputs with k > n whose candidate
    count landed strictly between n*tau and k*tau, where no further rule
    applies. ``stage_fillers`` holds the never-approved ids that
    :meth:`lift` re-adds at each stage after the revolutionary rescaling
    rule, else ``None``.

    Results compare by their fields and are not hashable.
    """

    _fields = ("kind", "instance", "verdict", "id_map", "gap", "stage_fillers")

    def __init__(
        self,
        kind: str,
        instance: Instance | None = None,
        verdict: TrivialVerdict | None = None,
        id_map: dict | None = None,
        gap: bool = False,
        stage_fillers: tuple | None = None,
    ):
        super().__init__(kind, instance, verdict, id_map, gap, stage_fillers)

    def lift(self, committees) -> tuple:
        """Translate a reduced-instance solution into an original-instance one.

        Maps candidate ids through ``id_map`` and, after the revolutionary
        rescaling rule, re-adds the reserved never-approved fillers
        (pairwise disjoint across stages) that restore the original
        committee size and change bounds. A kernel that decided the
        instance has nothing to lift and raises ``ValueError``; so does a
        sequence that is not one of the reduced instance's, checked by
        :func:`~mpvkit.core._sequence` as :func:`~mpvkit.core.verify`
        checks it: a committee count other than ``tau``, or a candidate id
        outside ``1..m'``.
        """
        if self.verdict is not None:
            raise ValueError("nothing to lift: the kernel decided the instance")
        seq = _sequence(self.instance, committees)
        lifted = [frozenset(self.id_map[c] for c in committee) for committee in seq]
        if self.stage_fillers is not None:
            lifted = [
                committee | frozenset(fillers)
                for committee, fillers in zip(lifted, self.stage_fillers)
            ]
        return tuple(lifted)


def _approved_candidates(instance):
    if instance._ballots is None:  # counts-built: read the count columns
        return _approved(instance.counts)
    return sorted({entry for row in instance.ballots for entry in row if entry})


def _compact(instance, keep, k, ell):
    """Restrict ``instance`` to the candidate ids in ``keep`` and renumber.

    ``keep`` holds every approved candidate, so the kept count columns
    hold every approval and the agents stay the same.
    """
    kept = sorted(keep)
    rows = [(0,) + tuple(row[c] for c in kept) for row in instance.counts]
    reduced = Instance._of_counts(
        instance.variant, len(kept), rows, instance.n, k, ell, instance.x
    )
    return reduced, dict(enumerate(kept, start=1))


def _fill_to(approved, pool_size, target):
    """Approved ids plus the lowest never-approved ids in 1..pool_size, up to target."""
    keep = set(approved)
    for c in range(1, pool_size + 1):
        if len(keep) >= target:
            break
        keep.add(c)
    return keep


def _no_agents(instance) -> TrivialVerdict:
    """The trivial no of an instance with no agents: every score is 0 < x."""
    return TrivialVerdict(False, f"with no agents every score is 0, below x={instance.x}")


def kernel_ntau_cmpv(instance: Instance) -> KernelResult:
    """Bound the candidate count by agents times stages (conservative).

    An instance with no agents is a trivial no. Otherwise deletes
    never-approved candidates while more than ``n * tau`` remain.
    Dropping such a candidate from any solution keeps scores and shrinks
    sizes and symmetric differences, so the reduced instance is
    equivalent. Ids are compacted; the mapping is recorded.
    """
    if instance.variant != CONSERVATIVE:
        raise PreconditionError("this rule applies to the conservative variant")
    if instance.n == 0:
        return KernelResult(kind="ntau-cmpv", verdict=_no_agents(instance))
    target = instance.n * instance.tau
    if instance.m <= target:
        identity = {c: c for c in range(1, instance.m + 1)}
        return KernelResult(kind="ntau-cmpv", instance=instance, id_map=identity)
    keep = _fill_to(_approved_candidates(instance), instance.m, target)
    reduced, id_map = _compact(instance, keep, instance.k, instance.ell)
    return KernelResult(kind="ntau-cmpv", instance=reduced, id_map=id_map)


def kernel_ntau_rmpv(instance: Instance) -> KernelResult:
    """Bound the candidate count for the revolutionary variant.

    The rules, in order. With at least two stages and ``2k < ell`` the
    instance is a trivial no: consecutive committees of size at most
    ``k`` cannot differ by more than ``2k``. (A single-stage instance has
    no consecutive pair, so the rule is skipped there.) An instance with
    no agents is a trivial no as well. Then
    never-approved candidates are deleted while more than
    ``max(n, k) * tau`` remain. Finally, when ``k > n`` and exactly
    ``k * tau`` candidates remain, the instance rescales to ``n * tau``
    candidates with ``k' = n`` and ``ell' = max(0, ell - 2(k - n))``; the
    ``(k - n) * tau`` never-approved candidates dropped here are reserved
    per stage so :meth:`KernelResult.lift` can re-add them. When ``k > n``
    but the candidate count lands strictly between ``n * tau`` and
    ``k * tau``, no known rule bridges the gap and the result is flagged.
    """
    if instance.variant != REVOLUTIONARY:
        raise PreconditionError("this rule applies to the revolutionary variant")
    if _change_out_of_reach(instance):
        return KernelResult(
            kind="ntau-rmpv",
            verdict=TrivialVerdict(
                False,
                f"committees of size at most k={instance.k} can never differ "
                f"by ell={instance.ell} > 2k candidates",
            ),
        )
    if instance.n == 0:
        return KernelResult(kind="ntau-rmpv", verdict=_no_agents(instance))
    approved = _approved_candidates(instance)
    keep = _fill_to(approved, instance.m, max(instance.n, instance.k) * instance.tau)
    m2 = len(keep)

    k, ell = instance.k, instance.ell
    stage_fillers = None
    gap = False
    kind = "ntau-rmpv"
    if instance.k > instance.n:
        if m2 == instance.k * instance.tau:
            # _fill_to adds the same lowest ids in the same order, so small <= keep
            small = _fill_to(approved, instance.m, instance.n * instance.tau)
            reserved = sorted(keep - small)
            chunk = instance.k - instance.n
            stage_fillers = tuple(
                tuple(reserved[i * chunk : (i + 1) * chunk])
                for i in range(instance.tau)
            )
            keep = small
            k = instance.n
            ell = max(0, instance.ell - 2 * chunk)
            kind = "ntau-rmpv-rescaled"
        elif m2 > instance.n * instance.tau:
            gap = True
    reduced, id_map = _compact(instance, keep, k, ell)
    return KernelResult(
        kind=kind,
        instance=reduced,
        id_map=id_map,
        gap=gap,
        stage_fillers=stage_fillers,
    )


# ---------------------------------------------------------------------------
# weighted form
# ---------------------------------------------------------------------------


def to_weighted(instance: Instance) -> WeightedInstance:
    """Replace ballots by per-stage candidate approval counts.

    A committee sequence satisfies the weighted score condition iff it
    satisfies the original one, because the plurality score already is a
    sum of per-candidate approval counts.
    """
    return WeightedInstance._of_counts(
        instance.variant, instance.m, instance.counts, None, instance.k, instance.ell, instance.x
    )


def solve_weighted(winstance: WeightedInstance, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """:func:`~mpvkit.oracle.brute_force`, reported as ``"brute-force-weighted"``."""
    report = brute_force(winstance, budget=budget)
    report.algorithm = "brute-force-weighted"
    return report


# ---------------------------------------------------------------------------
# weight shrinking
# ---------------------------------------------------------------------------


def _approx_lattice(w, N):
    """The lattice basis :func:`_simultaneous_approx` reduces, as ``(a, D)``.

    With ``u = w / max|w|``, ``eps = 1/(2N)`` and ``theta = eps**(d+1) /
    2**ceil(d(d+1)/4)``, ``D`` is the least common denominator of
    ``theta`` and ``u``; the basis is the first row
    ``a = (theta*D, u_1*D, ..., u_d*D)`` followed by the rows ``D*e_i``
    for ``i = 1..d``.
    """
    d = len(w)
    top = max(abs(v) for v in w)
    theta_den = (2 * N) ** (d + 1) << -(-(d * (d + 1)) // 4)
    D = math.lcm(theta_den, *(top // math.gcd(v, top) for v in w))
    return [D // theta_den] + [v * D // top for v in w], D


def _lll(a, D):
    """LLL-reduce (delta = 3/4) the basis ``a``, ``D*e_1``, ..., ``D*e_d``.

    Integral LLL over Python ints (Cohen, GTM 138, Alg. 2.6.7) that takes
    every step sympy's ``DomainMatrix.lll(delta=QQ(3, 4))`` takes on this
    basis, so it returns the same reduced basis. ``dets[j]`` and
    ``lam[i][j]`` are the algorithm's ``d_j`` and ``lambda_ij`` divided
    by ``D**(2j - 2)`` and ``D**(2j)``: every ``j`` vectors of this
    lattice have Gram determinant divisible by ``D**(2j - 2)`` (their
    ``j x j`` minors are rank-one updates of ``D`` times an integer
    matrix), so the quotients are integers and the updates keep their
    form with ``dets[0] = D**2``. The start is closed form: with
    ``s = sum(a_i**2)``, ``dets[j+1] = s - (a_1**2 + ... + a_j**2)``,
    ``lam[i][0] = D*a_i`` and ``lam[i][j] = -a_i*a_j`` for ``1 <= j < i``.
    LLL only ever lowers a ``d_j``, so every ``dets[j]`` stays at most
    ``max(s, D**2)``, where the unscaled ``d_j`` would reach ``D**(2j)``.

    A size reduction fires when ``2|lam[k][l]| > dets[l+1]``, that is
    ``|mu| > 1/2``. Its quotient is sympy's ``floor(mu + 1/2)``, which
    goes through ``float`` for sympy's pure-Python rationals; the same
    rounding is kept here. Lovasz holds when
    ``4 dets[k+1] dets[k-1] >= 3 dets[k]**2 - 4 lam[k][k-1]**2``.
    """
    m = len(a)
    basis = [list(a)]
    for i in range(1, m):
        row = [0] * m
        row[i] = D
        basis.append(row)
    rest = sum(v * v for v in a)
    dets = [D * D, rest]
    for j in range(1, m):
        rest -= a[j] * a[j]
        dets.append(rest)
    lam = [[]] + [[D * a[i]] + [-a[i] * a[j] for j in range(1, i)] for i in range(1, m)]

    def size_reduce(k, l):
        lk, dl = lam[k], dets[l + 1]
        if 2 * abs(lk[l]) > dl:
            q = math.floor((2 * lk[l] + dl) / (2 * dl))
            basis[k] = [x - q * y for x, y in zip(basis[k], basis[l])]
            ll = lam[l]
            for i in range(l):
                lk[i] -= q * ll[i]
            lk[l] -= q * dl

    k = 1
    while k < m:
        size_reduce(k, k - 1)
        lkk = lam[k][k - 1]
        if 4 * dets[k + 1] * dets[k - 1] >= 3 * dets[k] ** 2 - 4 * lkk * lkk:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
            continue
        # swap b_{k-1} and b_k; lam[k][k-1] keeps its value
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        lam[k - 1], lam[k] = lam[k][: k - 1], lam[k - 1] + [lkk]
        dk, dk1 = dets[k], dets[k + 1]
        new_dk = (dets[k - 1] * dk1 + lkk * lkk) // dk
        for i in range(k + 1, m):
            li = lam[i]
            t = li[k]
            li[k] = (dk1 * li[k - 1] - lkk * t) // dk
            li[k - 1] = (new_dk * t + lkk * li[k]) // dk1
        dets[k] = new_dk
        k = max(k - 1, 1)
    # sympy's closing checks: every k satisfies Lovasz, every pair is size-reduced
    for k in range(1, m):
        lkk = lam[k][k - 1]
        assert 4 * dets[k + 1] * dets[k - 1] >= 3 * dets[k] ** 2 - 4 * lkk * lkk
        assert all(2 * abs(lam[k][l]) <= dets[l + 1] for l in range(k))
    return basis


def _simultaneous_approx(w, N):
    """Small q with ||q*u - p||_inf <= 1/(2N) for ``u = w / max|w|``.

    Lattice rounding: reduce the basis {(theta, u), scaled unit vectors}
    with the integral LLL of :func:`_lll`, started from the basis's
    closed-form Gram-Schmidt data and step for step the same as sympy's
    ``DomainMatrix.lll(delta=QQ(3, 4))``, and read q and p off the first
    reduced vector. Guarantees 1 <= q <= (2N)^d * 2^ceil(d(d+1)/4)
    with integer p of max-norm at most q.
    """
    first, D = _approx_lattice(w, N)
    v = _lll(first, D)[0]
    q, rem = divmod(v[0], first[0])
    assert rem == 0 and q != 0, "reduced vector lost the q component"
    if q < 0:
        q = -q
        v = [-e for e in v]
    top = max(abs(x) for x in w)
    p = []
    for x, a_i, v_i in zip(w, first[1:], v[1:]):
        p_i, rem = divmod(q * a_i - v_i, D)
        assert rem == 0
        assert 2 * N * abs(q * x - p_i * top) <= top
        p.append(p_i)
    return q, p


def _shrink(w, N):
    """Recursive core of shrink_weights over integers.

    The result depends only on the direction of ``w``, which is read as
    ``u = w / max|w|``.
    """
    d = len(w)
    support = [i for i, v in enumerate(w) if v]
    if not support:
        return [0] * d
    if len(support) == 1:
        out = [0] * d
        out[support[0]] = 1 if w[support[0]] > 0 else -1
        return out
    largest = max(abs(v) for v in w)
    q, p_sub = _simultaneous_approx([w[i] for i in support], N)
    p = [0] * d
    for j, i in enumerate(support):
        p[i] = p_sub[j]
    for i in support:
        # entries at the max modulus get exact images, so the residual
        # support is strictly smaller and the recursion terminates
        if w[i] == largest:
            p[i] = q
        elif w[i] == -largest:
            p[i] = -q
    # q*u - p scaled by largest, which leaves its direction alone
    residual = [q * w[i] - p[i] * largest for i in range(d)]
    assert sum(1 for v in residual if v) < len(support)
    rbar = _shrink(residual, N)
    gap = (N - 1) * max((abs(v) for v in rbar), default=0) + 1
    return [gap * p[i] + rbar[i] for i in range(d)]


def shrink_weights(w, N: int):
    """Shrink integer weights, preserving all short inner-product signs.

    Returns a tuple of integers ``w2`` with

    * ``max(|w2[i]|) <= 2**(4*d**3) * N**(d*(d+2))`` for ``d = len(w)``,
    * ``sign(sum(w[i]*b[i])) == sign(sum(w2[i]*b[i]))`` for every integer
      vector ``b`` with ``sum(|b[i]|) <= N - 1``.

    In particular non-negative inputs stay non-negative and zeros stay
    zero (take ``b`` a unit vector). ``N`` follows the integer rule of
    :func:`~mpvkit.core._natural` with bound 2, and a weight may be any
    integer: ``bool`` is refused, numpy integers and anything else
    ``operator.index`` takes are stored as ``int``; anything else raises
    ``ValueError``.

    The construction normalizes by the largest modulus, replaces the
    normalized vector by a nearby rational point with one small
    denominator (simultaneous Diophantine approximation through the
    exact integral LLL of :func:`_lll`), recurses on the residual, and
    recombines with a factor large enough that the approximation's signs
    dominate: short inner products with the residual are too small to
    flip them.
    """
    number = _natural("N", N, 2)
    vec = []
    for v in w:
        weight = _integer(v)
        if weight is None:
            raise ValueError(f"weights must be integers, got {v!r}")
        vec.append(weight)
    return tuple(_shrink(vec, number))


def kernel_mtau(instance) -> WeightedInstance:
    """Compress stage scores to polynomially many bits in m and tau.

    Concatenates all stage count rows and the threshold into one vector
    of dimension ``m * tau + 1``, shrinks it with ``N = k + 2``, and
    splits the result back. Checking a committee sequence only ever
    compares a sum of at most ``k`` weights against the threshold, an
    inner product with a vector of l1-norm at most ``k + 1``, so exactly
    the same sequences are solutions. Accepts unit or weighted instances;
    candidate ids are untouched.
    """
    flat = []
    for row in instance.counts:
        flat.extend(row[1:])
    flat.append(instance.x)
    shrunk = shrink_weights(flat, instance.k + 2)
    new_x = shrunk[-1]
    assert new_x >= 1, "positive threshold must stay positive"
    m = instance.m
    rows = tuple((0,) + tuple(shrunk[t * m : (t + 1) * m]) for t in range(instance.tau))
    return WeightedInstance._of_counts(
        instance.variant, m, rows, None, instance.k, instance.ell, new_x
    )
