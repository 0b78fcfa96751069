"""Reference brute-force search used to validate the faster solvers.

One generator yields the valid committee sequences in lexicographic
order: depth first, stage by stage, over the committees that meet the
stage's score threshold, keeping a transition when one table of allowed
symmetric-difference sizes admits it. :func:`brute_force` reads its first
sequence and :func:`enumerate_solutions` its first ``limit``. Exponential
in every parameter, intended for desk-scale instances and as a test oracle.
"""

from __future__ import annotations

import time
from itertools import accumulate, islice
from math import comb
from operator import add

from .core import (
    BudgetExceededError,
    CONSERVATIVE,
    Instance,
    SolveReport,
    _report,
)

DEFAULT_SEQUENCE_BUDGET = 10**8


def _feasible_masks(row, pool, k, x):
    """Committees of at most ``k`` members of ``pool`` scoring at least ``x``.

    Each committee is an int bitmask over pool positions: bit ``i`` stands
    for ``pool[i]``, and its score is the sum of ``row[c]`` over members.
    The list is in lexicographic order of the committees' sorted position
    tuples (the order of :func:`_subsets_upto` for a sorted pool). A
    committee with ``left`` free seats stops extending at position ``i``
    once even the ``left`` largest counts of ``pool[i:]`` cannot lift its
    score to ``x``; that bound never grows with ``i``, so no later
    position can either.
    """
    weights = [row[c] for c in pool]
    n = len(weights)
    k = min(k, n)
    # best[r][i]: sum of the r largest weights in pool[i:] (all of them if
    # fewer): the larger of best[r][i + 1] and weights[i] + best[r - 1][i + 1]
    best = [[0] * (n + 1)]
    for r in range(1, k + 1):
        taking = list(map(add, weights, best[-1][1:]))
        best.append(list(accumulate(reversed(taking), max))[::-1] + [0])

    out = [0] if x <= 0 else []

    def rec(start, mask, left, score):
        bound, rest = best[left], best[left - 1]
        for i in range(start, n):
            if score + bound[i] < x:
                break
            s = score + weights[i]
            if s >= x:
                out.append(mask | 1 << i)
            if left > 1 and s + rest[i + 1] >= x:
                rec(i + 1, mask | 1 << i, left - 1, s)

    if k:
        rec(0, 0, k, 0)
    return out


def _decode(mask, pool):
    """The committee of ``pool`` members whose positions are set in ``mask``."""
    members = []
    while mask:
        low = mask & -mask
        members.append(pool[low.bit_length() - 1])
        mask ^= low
    return frozenset(members)


def _subsets_upto(candidates, k):
    """Subsets of ``candidates`` with at most ``k`` elements as frozensets.

    In lexicographic order of their sorted tuples:
    ``(), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), ...``
    """
    pool = sorted(candidates)
    return [_decode(mask, pool) for mask in _feasible_masks(dict.fromkeys(pool, 0), pool, k, 0)]


def _sequence_search(instance, budget, states):
    """Generate the valid committee sequences in lexicographic order.

    Stage ``t`` draws its committees from its feasible masks. A committee
    extends a partial sequence when ``ok[d]`` holds for its symmetric
    difference ``d`` with the committee before it (``d <= ell``
    conservative, ``d >= ell`` revolutionary). Each accepted extension
    counts in ``states[0]``, so a reader that stops after a few sequences
    pays only for the search up to them. An extension past ``budget``
    raises :class:`BudgetExceededError`, as does, up front, a stage pool
    too large to enumerate within it.
    """
    m, k, ell, tau = instance.m, instance.k, instance.ell, instance.tau
    pool_size = sum(comb(m, j) for j in range(min(k, m) + 1))
    if pool_size > budget or pool_size * tau > 8 * budget:
        raise BudgetExceededError(
            f"enumerating {pool_size} committees per stage exceeds the budget of {budget}"
        )
    pool = range(1, m + 1)
    feasible = [_feasible_masks(row, pool, k, instance.x) for row in instance.counts]
    ok = [d <= ell if instance.variant == CONSERVATIVE else d >= ell for d in range(m + 1)]

    def paths(t, prev):  # the valid tails from stage t on, after committee prev
        for committee in feasible[t]:
            if t and not ok[(prev ^ committee).bit_count()]:
                continue
            states[0] += 1
            if states[0] > budget:
                raise BudgetExceededError(
                    f"search exceeded the budget of {budget} partial sequences"
                )
            if t + 1 == tau:
                yield (committee,)
            else:
                for rest in paths(t + 1, committee):
                    yield (committee,) + rest

    for path in paths(0, 0):
        yield tuple(_decode(mask, pool) for mask in path)


def brute_force(instance: Instance, budget: int = DEFAULT_SEQUENCE_BUDGET) -> SolveReport:
    """Decide an instance by exhaustive stage-by-stage search.

    The witness, when one exists, is the lexicographically first valid
    committee sequence (committees compared as sorted tuples, stage by
    stage), so repeated runs and independent implementations agree on it.

    Parameters
    ----------
    instance : Instance
    budget : int
        Maximum number of partial-sequence extensions before the search
        gives up with :class:`BudgetExceededError`.
    """
    start = time.perf_counter()
    states = [0]
    witness = next(_sequence_search(instance, budget, states), None)
    return _report("brute-force", start, witness, states[0])


def enumerate_solutions(
    instance: Instance, limit: int, budget: int = DEFAULT_SEQUENCE_BUDGET
) -> list:
    """First ``limit`` valid committee sequences in lexicographic order."""
    if not isinstance(limit, int) or limit < 0:
        raise ValueError(f"limit must be a non-negative integer, got {limit!r}")
    return list(islice(_sequence_search(instance, budget, [0]), limit))
