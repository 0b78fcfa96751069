import itertools

import pytest

from mpvkit import Instance
from mpvkit.oracle import _feasible_masks

# Running fixture used throughout: two agents, three candidates, three
# stages. Stage 1 both approve c1, stage 2 both approve c2, stage 3
# agent 1 approves c1 and agent 2 approves c3.
E1_BALLOTS = ((1, 1), (2, 2), (1, 3))


def subsets_upto(candidates, k):
    """Subsets of ``candidates`` with at most ``k`` elements as frozensets.

    In lexicographic order of their sorted tuples:
    ``(), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), ...``
    """
    pool = sorted(candidates)
    out = []

    def grow(prefix, start):  # depth first: a subset before its extensions
        out.append(frozenset(prefix))
        if len(prefix) < k:
            for i in range(start, len(pool)):
                grow(prefix + [pool[i]], i + 1)

    grow([], 0)
    return out


def feasible_masks(row, pool, k, x):
    """:func:`~mpvkit.oracle._feasible_masks` of a count row over ``pool``.

    Projects ``row`` onto ``pool`` (``row[c]`` for each ``c`` in order),
    the one form in which the searches list a stage.
    """
    return _feasible_masks([row[c] for c in pool], k, x)


def brute_cover(graph, r):
    """Whether ``graph`` has a vertex cover of at most ``r`` vertices."""
    if not graph.edges:
        return True
    verts = range(1, graph.num_vertices + 1)
    for size in range(r + 1):
        for sub in itertools.combinations(verts, size):
            s = set(sub)
            if all(u in s or v in s for u, v in graph.edges):
                return True
    return False


def brute_clique(pg):
    """Whether partitioned graph ``pg`` has a clique with one vertex per part."""
    eset = set(pg.edges)
    for combo in itertools.product(*[sorted(p) for p in pg.parts]):
        if all((min(a, b), max(a, b)) in eset
               for a, b in itertools.combinations(combo, 2)):
            return True
    return False


def e1(variant="C", k=1, ell=2, x=1):
    return Instance(variant=variant, m=3, ballots=E1_BALLOTS, k=k, ell=ell, x=x)


@pytest.fixture
def e1_cmpv():
    return e1("C", k=1, ell=2, x=1)


@pytest.fixture
def e1_rmpv():
    return e1("R", k=1, ell=2, x=1)
