import pytest

from mpvkit import Instance

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


def e1(variant="C", k=1, ell=2, x=1):
    return Instance(variant=variant, m=3, ballots=E1_BALLOTS, k=k, ell=ell, x=x)


@pytest.fixture
def e1_cmpv():
    return e1("C", k=1, ell=2, x=1)


@pytest.fixture
def e1_rmpv():
    return e1("R", k=1, ell=2, x=1)
