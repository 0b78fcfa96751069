"""Reference brute-force search used to validate the faster solvers.

Enumerates committee sequences stage by stage in lexicographic order,
keeping only stage committees that meet the score threshold and transitions
that respect the symmetric-difference constraint. Exponential in every
parameter, intended for desk-scale instances and as a test oracle.
"""

from __future__ import annotations

import time
from math import comb

from .core import (
    BudgetExceededError,
    CONSERVATIVE,
    Instance,
    SolveReport,
)

DEFAULT_SEQUENCE_BUDGET = 10**8


def _subsets_upto(candidates, k):
    """Subsets of ``candidates`` with at most ``k`` elements as frozensets.

    Yielded in lexicographic order of their sorted tuples:
    ``(), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), ...``
    """
    candidates = sorted(candidates)
    chosen = []

    def rec(start):
        yield frozenset(chosen)
        if len(chosen) == k:
            return
        for i in range(start, len(candidates)):
            chosen.append(candidates[i])
            yield from rec(i + 1)
            chosen.pop()

    yield from rec(0)


def _sequence_search(instance, budget, max_solutions):
    """DFS over committee sequences in lexicographic order.

    Counts every accepted extension of a partial sequence against
    ``budget``; also refuses up front when a single stage's committee pool
    is already too large to enumerate within it. Returns
    ``(solutions, extensions)``.
    """
    m, k, ell, x, tau = instance.m, instance.k, instance.ell, instance.x, instance.tau
    conservative = instance.variant == CONSERVATIVE
    pool_size = sum(comb(m, j) for j in range(min(k, m) + 1))
    if pool_size > budget or pool_size * tau > 8 * budget:
        raise BudgetExceededError(
            f"enumerating {pool_size} committees per stage exceeds the budget of {budget}"
        )
    subsets = list(_subsets_upto(range(1, m + 1), k))
    feasible = []
    for row in instance.counts:
        feasible.append([s for s in subsets if sum(row[c] for c in s) >= x])

    solutions = []
    prefix = []
    extensions = 0

    def extend(t, prev):
        nonlocal extensions
        for committee in feasible[t]:
            if prev is not None:
                d = len(prev ^ committee)
                if conservative:
                    if d > ell:
                        continue
                elif d < ell:
                    continue
            extensions += 1
            if extensions > budget:
                raise BudgetExceededError(
                    f"search exceeded the budget of {budget} partial sequences"
                )
            prefix.append(committee)
            if t + 1 == tau:
                solutions.append(tuple(prefix))
                done = len(solutions) >= max_solutions
            else:
                done = extend(t + 1, committee)
            prefix.pop()
            if done:
                return True
        return False

    extend(0, None)
    return solutions, extensions


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
    solutions, extensions = _sequence_search(instance, budget, 1)
    return SolveReport(
        answer=bool(solutions),
        witness=solutions[0] if solutions else None,
        algorithm="brute-force",
        stats={
            "states": extensions,
            "time_ms": (time.perf_counter() - start) * 1000.0,
        },
    )


def enumerate_solutions(
    instance: Instance, limit: int, budget: int = DEFAULT_SEQUENCE_BUDGET
) -> list:
    """First ``limit`` valid committee sequences in lexicographic order."""
    if not isinstance(limit, int) or limit < 0:
        raise ValueError(f"limit must be a non-negative integer, got {limit!r}")
    if limit == 0:
        return []
    solutions, _ = _sequence_search(instance, budget, limit)
    return solutions
