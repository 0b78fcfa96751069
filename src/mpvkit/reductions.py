"""Hardness gadgets, parameter normalizations, and instance generators.

Constructive reductions between graph problems and multistage plurality
voting, the lifts that trade one constraint regime for another, the
AND-compositions used as evidence against small kernels, a Sidon set
generator backing the clique gadget, and a seeded random instance
generator for test corpora. Everything here is deterministic: profile
and candidate orderings are fixed so repeated runs emit identical
instances. The normalizations, lifts, compositions and the clique gadget
build per-candidate count rows, since a plurality score depends only on
those; the ballots of their outputs are the canonical spelling of the
counts (see :class:`~mpvkit.core.Instance`).
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, isqrt

from .core import (
    CONSERVATIVE,
    Instance,
    PreconditionError,
    REVOLUTIONARY,
    TrivialVerdict,
    _Frozen,
    _natural,
)

# ---------------------------------------------------------------------------
# graph types
# ---------------------------------------------------------------------------


def _normalize_edges(edges, num_vertices):
    norm = []
    for edge in edges:
        u, v = (_natural("edge endpoint", end, 1) for end in edge)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if max(u, v) > num_vertices:
            raise ValueError(f"edge {edge!r} outside 1..{num_vertices}")
        norm.append((u, v) if u < v else (v, u))
    if len(set(norm)) != len(norm):
        raise ValueError("duplicate edges")
    return tuple(sorted(norm))


class Graph(_Frozen):
    """Undirected graph on vertices ``1..num_vertices``.

    No self-loops or duplicate edges; edges normalize to ``(u, v)`` with
    ``u < v`` and are kept sorted, which fixes the stage order of
    constructions that spend one stage per edge.
    """

    _fields = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: tuple):
        count = _natural("num_vertices", num_vertices, 0)
        super().__init__(count, _normalize_edges(edges, count))


class PartitionedGraph(_Frozen):
    """Graph whose vertices ``1..h`` are partitioned into q >= 2 parts.

    Edges may only connect distinct parts. Parts are stored as
    frozensets; their union must be exactly ``1..h``.
    """

    _fields = ("parts", "edges")

    def __init__(self, parts: tuple, edges: tuple):
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("need at least two parts")
        parts = tuple(frozenset(_natural("vertex id", v, 1) for v in p) for p in parts)
        seen = set()
        for part in parts:
            for v in part:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two parts")
                seen.add(v)
        total = len(seen)
        if seen != set(range(1, total + 1)):
            raise ValueError(f"parts must cover exactly 1..{total}")
        edges = _normalize_edges(edges, total)
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        for u, v in edges:
            if part_of[u] == part_of[v]:
                raise ValueError(f"edge ({u}, {v}) stays inside one part")
        super().__init__(parts, edges)

    @property
    def num_vertices(self) -> int:
        return sum(len(p) for p in self.parts)


# ---------------------------------------------------------------------------
# Sidon sets
# ---------------------------------------------------------------------------


class SidonSet(_Frozen):
    """Integers whose pairwise sums (repetitions included) are all distinct."""

    _fields = ("b", "hat_b", "elements")

    def __init__(self, b: int, hat_b: int, elements: tuple):
        super().__init__(b, hat_b, elements)


def sidon(b: int) -> SidonSet:
    """Sidon set of size ``b`` with elements below ``4b^2 + 4b``.

    Uses ``s_i = 2*hat_b*i + (i^2 mod hat_b)`` for ``i = 1..b`` where
    ``hat_b`` is the smallest prime above ``b`` (one exists below ``2b``
    by Bertrand's postulate; trial division finds it). Sums ``s_i + s_j``
    determine ``{i, j}`` because the quadratic residue part determines
    ``i + j`` and ``i*j`` modulo the prime.
    """
    b = _natural("b", b, 1)
    hat_b = b + 1
    while not all(hat_b % p for p in range(2, isqrt(hat_b) + 1)):
        hat_b += 1
    elements = tuple(2 * hat_b * i + i * i % hat_b for i in range(1, b + 1))
    return SidonSet(b=b, hat_b=hat_b, elements=elements)


# ---------------------------------------------------------------------------
# vertex cover gadget
# ---------------------------------------------------------------------------


def pad_half_vertex_cover(graph: Graph, r: int):
    """Shift a vertex-cover target to exactly half the vertex count.

    Returns ``(graph', r')`` with ``r' = |V'|/2`` and the same cover
    answer. For ``r < |V|/2`` a clique on ``|V| - 2r + 2`` fresh vertices
    is attached (covering it takes all but one of them); for
    ``r > |V|/2`` the graph gains ``2r - |V|`` isolated vertices.
    """
    given, r, nv = r, _natural("cover size", r, 0), graph.num_vertices
    if r > nv:
        raise ValueError(f"cover size {given!r} outside 0..{nv}")
    if 2 * r < nv:
        extra = nv - 2 * r + 2
        clique = combinations(range(nv + 1, nv + extra + 1), 2)
        return Graph(nv + extra, graph.edges + tuple(clique)), nv - r + 1
    if 2 * r > nv:
        return Graph(2 * r, graph.edges), r
    return graph, r


def vc_to_cmpv(graph: Graph):
    """Half-size vertex cover as a conservative instance with ``ell = 0``.

    One stage per edge, two agents approving its endpoints: a committee
    scores at stage ``t`` iff it hits edge ``t``, and ``ell = 0`` freezes
    one committee of size ``k = |V|/2`` across all stages, so the
    instance is a yes iff the graph has a vertex cover of that size.
    Edgeless graphs short-circuit to a direct yes verdict because a
    faithful instance would need zero stages. A :class:`PartitionedGraph`
    raises :class:`PreconditionError`.
    """
    if not isinstance(graph, Graph):
        raise PreconditionError("vc_to_cmpv expects an unpartitioned graph")
    if graph.num_vertices % 2:
        raise PreconditionError("the vertex count must be even")
    if not graph.edges:
        return TrivialVerdict(True, "an edgeless graph is covered by the empty set")
    return Instance(
        variant=CONSERVATIVE,
        m=graph.num_vertices,
        ballots=graph.edges,
        k=graph.num_vertices // 2,
        ell=0,
        x=1,
    )


# ---------------------------------------------------------------------------
# parameter normalizations and lifts
# ---------------------------------------------------------------------------


def cmpv_normalize_half(instance: Instance) -> Instance:
    """Pad a conservative ``ell = 0`` instance so that ``k = m/2``.

    ``k > m/2``: add ``2k - m`` never-approved candidates (zero count
    columns). ``k < m/2``: add ``m - 2k`` fresh candidates, each
    approved ``n`` times at every stage, so ``n' = n(1 + m - 2k)``, and
    raise ``x`` by ``n*(m - 2k)``; skipping any new candidate caps the
    score below the new threshold, so winning committees are the old
    ones plus all new candidates.
    """
    if instance.variant != CONSERVATIVE or instance.ell != 0:
        raise PreconditionError("normalization expects a conservative instance with ell=0")
    m, k, n = instance.m, instance.k, instance.n
    if 2 * k == m:
        return instance
    if 2 * k > m:
        rows = [row + (0,) * (2 * k - m) for row in instance.counts]
        return Instance._of_counts(CONSERVATIVE, 2 * k, rows, n, k, 0, instance.x)
    extra = m - 2 * k
    rows = [row + (n,) * extra for row in instance.counts]
    return Instance._of_counts(
        CONSERVATIVE, m + extra, rows, n * (1 + extra), k + extra, 0, instance.x + n * extra
    )


def cmpv_to_rmpv(instance: Instance) -> Instance:
    """Re-express a conservative ``ell = 0``, ``k = m/2`` instance as
    revolutionary.

    Two fresh candidates ``z`` and ``y``: odd output stages replay the
    input stages' counts, every even stage has all ``n`` agents approve
    ``y``, and one final stage has all approve ``z``. With ``k' = k + 1``
    and ``ell' = 2k' = |C'|`` every transition must exchange the whole
    committee, which forces the original committee to reappear unchanged
    at every replayed stage; thresholds carry over.
    """
    if (
        instance.variant != CONSERVATIVE
        or instance.ell != 0
        or 2 * instance.k != instance.m
    ):
        raise PreconditionError(
            "expected a conservative instance with ell=0 and k = m/2; "
            "run cmpv_normalize_half first"
        )
    n, blank = instance.n, (0,) * (instance.m + 1)
    rows = []
    for row in instance.counts:  # columns z = m + 1 and y = m + 2
        rows += [row + (0, 0), blank + (0, n)]
    rows.append(blank + (n, 0))
    k2 = instance.k + 1
    return Instance._of_counts(REVOLUTIONARY, instance.m + 2, rows, n, k2, 2 * k2, instance.x)


def lift_ell1(instance: Instance) -> Instance:
    """Lift a conservative ``ell = 0`` instance to ``ell = 1``.

    The lift adds no candidate. Every original count at every stage gets
    ``B = n + 1`` more votes, and ``k' = min(k, m)``, ``ell' = 1``, ``x' =
    k' B + x`` and ``n' = n + B m``, so that every stage total fits.

    Why the answer is kept:

    * a committee of fewer than ``k'`` members scores at most ``(k' - 1) B
      + n < k' B + x``, so every committee of a solution has exactly
      ``k'`` members, and it meets ``x'`` exactly when it meets ``x`` on
      the original counts;
    * two sets of equal size differ in an even number of members, so
      ``ell' = 1`` allows no change at all;
    * with ``ell = 0`` the input's solutions are one committee at every
      stage, and padding it to ``k'`` members costs no stage its score.

    So the lifted instance is the input with its committee padded to
    ``k'`` members. It works for any ``n`` and ``x``, but ``n'`` grows
    with ``n`` and ``m``: the lift shows NP-hardness at ``ell = 1``, not
    for a constant number of agents, which :func:`vc_to_cmpv` gives at
    ``ell = 0`` with ``n = 2``. The lift reads ``n``, so a weighted
    instance raises :class:`PreconditionError`.
    """
    if instance.variant != CONSERVATIVE or instance.ell != 0:
        raise PreconditionError("expected a conservative instance with ell=0")
    n, m, k = instance.n, instance.m, min(instance.k, instance.m)
    lift = n + 1  # B
    rows = [(0, *(count + lift for count in row[1:])) for row in instance.counts]
    return Instance._of_counts(CONSERVATIVE, m, rows, n + lift * m, k, 1, k * lift + instance.x)


def lift_ell_2km2(instance: Instance) -> Instance:
    """Lift a full-change revolutionary instance to ``ell = 2k' - 2``.

    For two-agent instances with ``ell = 2k = m`` and ``x = 1``: one
    fresh candidate ``w`` approved twice at every stage, so ``n' = 4``.
    Reaching ``x' = 3`` keeps ``w`` in every committee, so the remaining
    ``k`` slots still must swap completely; ``k' = k + 1``.
    """
    if (
        instance.variant != REVOLUTIONARY
        or instance.n != 2
        or instance.ell != 2 * instance.k
        or instance.m != 2 * instance.k
        or instance.x != 1
    ):
        raise PreconditionError("expected a revolutionary instance with n=2, ell=2k=m, x=1")
    rows = [row + (2,) for row in instance.counts]
    k2 = instance.k + 1
    return Instance._of_counts(REVOLUTIONARY, instance.m + 1, rows, 4, k2, 2 * k2 - 2, 3)


# ---------------------------------------------------------------------------
# multicolored clique gadget
# ---------------------------------------------------------------------------


def mcc_to_cmpv(pgraph: PartitionedGraph) -> Instance:
    """Multicolored clique as a conservative instance with ``ell = 0``.

    Candidates are the vertices (keeping their ids) followed by the
    edges (fresh ids in edge order). Vertices carry Sidon-set ids so
    endpoint-id sums identify edges uniquely. Stages come in blocks:
    one vertex-selection profile per part (every vertex approved by x
    agents), one edge-selection profile per part pair, then per pair two
    coherence profiles whose approval multiplicities encode "the chosen
    endpoints sum to the chosen edge" as two opposite inequalities.

    The stages are built as per-candidate counts on one shared agent
    pool: ``n`` is the largest stage total, the fewest agents the counts
    allow, and the ballots are their canonical spelling (agents
    ``1..total`` approve the stage's candidates in id order, the rest
    abstain). A plurality score depends only on a stage's counts, so any
    profile with these counts has the same solutions.

    A committee of size ``k = q + C(q, 2)`` meeting ``x = 2 s_h``
    everywhere must pick one vertex per part and one consistent edge
    per pair, which is possible iff the graph has a multicolored clique.

    A part pair without edges yields an all-abstain edge-selection
    stage, making the instance correctly a no. A plain :class:`Graph`
    raises :class:`PreconditionError`.
    """
    if not isinstance(pgraph, PartitionedGraph):
        raise PreconditionError("mcc_to_cmpv expects a partitioned graph")
    parts = pgraph.parts
    q = len(parts)
    for i, part in enumerate(parts, start=1):
        if not part:
            raise PreconditionError(f"part {i} is empty")
    h = pgraph.num_vertices
    sid = sidon(h).elements
    ident = {v: sid[v - 1] for v in range(1, h + 1)}
    x = 2 * sid[-1]
    edge_candidate = {e: h + 1 + i for i, e in enumerate(pgraph.edges)}
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    pair_edges = {pair: [] for pair in combinations(range(q), 2)}
    for e in pgraph.edges:
        i, j = sorted((part_of[e[0]], part_of[e[1]]))
        pair_edges[(i, j)].append(e)

    stages = [[(v, x) for v in sorted(part)] for part in parts]  # (candidate, count) lists
    pairs = sorted(pair_edges)
    for pair in pairs:
        stages.append([(edge_candidate[e], x) for e in pair_edges[pair]])
    for i, j in pairs:
        both = sorted(parts[i] | parts[j])
        agree = [(v, ident[v]) for v in both]
        agree += [
            (edge_candidate[e], x - ident[e[0]] - ident[e[1]])
            for e in pair_edges[(i, j)]
        ]
        oppose = [(v, x // 2 - ident[v]) for v in both]
        oppose += [
            (edge_candidate[e], ident[e[0]] + ident[e[1]])
            for e in pair_edges[(i, j)]
        ]
        stages += [agree, oppose]

    m = h + len(pgraph.edges)
    rows = []
    for stage in stages:
        row = [0] * (m + 1)
        for candidate, count in stage:
            row[candidate] = count
        rows.append(row)
    assert len(rows) == q + 3 * comb(q, 2)
    return Instance._of_counts(
        CONSERVATIVE, m, rows, max(map(sum, rows)), q + comb(q, 2), 0, x
    )


# ---------------------------------------------------------------------------
# AND-compositions
# ---------------------------------------------------------------------------


def _and_inputs(instances, fits, requirement):
    """The inputs as a non-empty list, each passing ``fits``, all of one shape."""
    instances = list(instances)
    if not instances:
        raise ValueError("need at least one instance")
    if not all(map(fits, instances)):
        raise PreconditionError(f"inputs must be {requirement}")
    if len({(i.n, i.m, i.tau, i.k, i.x) for i in instances}) > 1:
        raise PreconditionError("inputs must share n, m, tau, k, and x")
    return instances


def and_compose_cmpv(instances) -> Instance:
    """Conjoin conservative ``ell = 1`` instances into one.

    Blocks replay the inputs' counts over shared candidate identities.
    A fresh candidate ``z`` gets ``n`` more approvals at every block
    stage, raising every threshold to ``x + n``; between blocks, ``2k``
    transfer stages in which all ``n' = 2n`` agents approve ``z`` let
    the committee migrate one change at a time. The output is a yes iff
    every input is.
    """
    instances = _and_inputs(
        instances, lambda i: i.variant == CONSERVATIVE and i.ell == 1, "conservative with ell=1"
    )
    head = instances[0]
    n, m = head.n, head.m
    transfer = (0,) * (m + 1) + (2 * n,)  # column z = m + 1
    rows = []
    for b, inst in enumerate(instances):
        if b:
            rows += [transfer] * (2 * head.k)
        rows += [row + (n,) for row in inst.counts]
    return Instance._of_counts(CONSERVATIVE, m + 1, rows, 2 * n, head.k + 1, 1, head.x + n)


def and_compose_rmpv(instances) -> Instance:
    """Conjoin full-change revolutionary instances into one.

    Inputs need ``ell = 2k`` and exactly ``ell`` candidates. The output
    adds ``z`` and rotation candidates ``y_1..y_ell``, each approved
    ``n`` times at every block stage, and a single transfer stage between
    blocks where all ``n' = n(ell + 2)`` agents approve ``z``. The
    enlarged committees can always realize the full-change constraint
    across block boundaries, so the output is a yes iff every input is.
    """
    instances = _and_inputs(
        instances,
        lambda i: i.variant == REVOLUTIONARY and i.m == i.ell == 2 * i.k,
        "revolutionary with m = ell = 2k",
    )
    head = instances[0]
    n, m, ell = head.n, head.m, head.ell
    transfer = (0,) * (m + 1) + (n * (ell + 2),) + (0,) * ell  # columns z, y_1..y_ell
    rows = []
    for b, inst in enumerate(instances):
        if b:
            rows.append(transfer)
        rows += [row + (n,) * (ell + 1) for row in inst.counts]
    return Instance._of_counts(
        REVOLUTIONARY, m + 1 + ell, rows, n * (ell + 2), head.k + ell + 1, ell,
        head.x + n * (ell + 1),
    )


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def random_instance(
    n: int,
    m: int,
    tau: int,
    k: int,
    ell: int,
    x: int,
    variant: str,
    abstain_probability: float = 0.0,
    seed: int = 0,
) -> Instance:
    """Seeded random instance; same seed, same instance, on any platform.

    Each agent independently abstains with ``abstain_probability`` at
    each stage and otherwise approves a uniformly random candidate.
    Randomness comes from Python's Mersenne Twister (``random.Random``)
    seeded with ``seed``. ``n``, ``m``, ``tau``, ``k``, ``ell`` and ``x``
    follow the integer rule of :func:`~mpvkit.core._natural`: any
    integer type except ``bool``, with ``n`` and ``ell`` at least 0 and
    the others at least 1. ``n``, ``m`` and ``tau`` are checked here and
    drawn with as ``int``; ``variant``, ``k``, ``ell`` and ``x`` are
    checked by :class:`~mpvkit.core.Instance`, before the draw.
    """
    if not 0.0 <= abstain_probability <= 1.0:
        raise ValueError(f"abstain_probability {abstain_probability!r} outside [0, 1]")
    n, m, tau = _natural("n", n, 0), _natural("m", m, 1), _natural("tau", tau, 1)
    rng = random.Random(seed)
    # a generator, so Instance checks its parameters before anything is drawn
    rows = (
        tuple(0 if rng.random() < abstain_probability else rng.randint(1, m) for _ in range(n))
        for _ in range(tau)
    )
    return Instance(variant=variant, m=m, ballots=rows, k=k, ell=ell, x=x)
