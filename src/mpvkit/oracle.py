"""Reference brute-force search used to validate the faster solvers.

One search checks its arguments and then returns a generator of the
valid committee sequences in lexicographic order: depth first, stage by
stage, over the committees that meet the stage's score threshold,
keeping a transition when one table of allowed symmetric-difference
sizes admits it. Where that table admits only a small neighbourhood of
the previous committee (``ell`` near 0 conservative, near ``m``
revolutionary), that neighbourhood's committees are tested directly
instead of listing each stage's feasible ones, in one inline loop whose
committees meet ``ell`` by construction, and a tail found to hold no
sequence is not searched again; ``stats["states"]`` still counts every
extension of the full search. :func:`brute_force` reads its first
sequence and :func:`enumerate_solutions` its first ``limit``.
Exponential in every parameter, intended for desk-scale instances and as
a test oracle.
"""

from __future__ import annotations

import time
from itertools import accumulate, compress, islice
from operator import add

from .core import (
    BudgetExceededError,
    CONSERVATIVE,
    DEFAULT_BUDGET,
    Instance,
    SolveReport,
    _committees,
    _decode,
    _natural,
    _report,
)

_SELECT = bytes.maketrans(b"01", b"\0\1")
_LEX = str.maketrans("01", "10")


def _best_sums(weights, k):
    """``best[r][i]``: the sum of the ``r`` largest of ``weights[i:]``, for ``r <= k``.

    All of them when there are fewer; ``best[r][len(weights)]`` is 0. Each
    entry is the larger of ``best[r][i + 1]`` and ``weights[i] +
    best[r - 1][i + 1]``, and none grows with ``i``.
    """
    best = [[0] * (len(weights) + 1)]
    for r in range(1, k + 1):
        taking = list(map(add, weights, best[-1][1:]))
        best.append(list(accumulate(reversed(taking), max))[::-1] + [0])
    return best


def _feasible_masks(weights, k, x):
    """Committees of at most ``k`` members scoring at least ``x`` under ``weights``.

    ``weights`` is one stage's counts projected onto a candidate pool,
    ``weights[i]`` the count of ``pool[i]``: the form every search lists
    its stages from. Each committee is an int bitmask over pool positions,
    bit ``i`` standing for ``pool[i]``, and its score is the sum of its
    members' weights. The list is in lexicographic order of the
    committees' sorted position tuples, a prefix first. A committee with
    ``left`` free seats stops extending at position ``i`` once even the
    ``left`` largest of ``weights[i:]`` cannot lift its score to ``x``
    (:func:`_best_sums`); that bound never grows with ``i``, so no later
    position can either.
    """
    n = len(weights)
    k = min(k, n)
    best = _best_sums(weights, k)

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


def _sequence_search(instance, budget, states):
    """Check the arguments and return a generator of the valid committee
    sequences in lexicographic order.

    A committee extends a partial sequence when ``ok[d]`` holds for its
    symmetric difference ``d`` with the committee before it (``d <= ell``
    conservative, ``d >= ell`` revolutionary). The successors of ``prev``
    at stage ``t`` are found in one of two ways:

    * by a lookup in the neighbourhood every successor lies in.
      Conservative successors lie in the ball of radius ``ell`` around
      ``prev``; revolutionary ones in the ball of radius ``m - ell``
      around ``prev``'s complement over the ``m`` candidates, since
      ``|prev ^ c| >= ell`` exactly when ``|~prev ^ c| <= m - ell``. Every
      stage after the first takes this path when the ball holds at most
      64 masks, enumerated once. The loop walks the ball around ``prev``
      and keeps the committees of at most ``k`` members scoring at least
      ``x``, sorted into the scan's order. Each of them meets ``ok`` by
      construction, so none is tested again. Per count row, ``verdicts``
      keeps one string per committee tested: ``bits[c]`` is ``"1"``
      exactly when candidate ``c`` (bit ``c - 1``) is a member, and with
      0 and 1 swapped it sorts a committee before its extensions and
      otherwise by the first differing candidate, a member first; it is
      ``""`` for a score below ``x``;
    * otherwise by a scan of the stage's feasible masks that tests each
      committee against ``ok``. The first stage always scans.

    Each accepted extension counts in ``states[0]``, so a reader that stops
    after a few sequences pays only for the search up to them. A tail
    from stage ``t`` after ``prev`` that yields nothing is dead, and
    ``dead[t][prev]`` remembers how many extensions it took; a revisit
    adds that count to ``states[0]`` instead of searching again, so
    ``states`` and every budget error stay those of the full search. The
    search holds the feasible lists of the scan stages only, at most 64
    verdicts per committee a lookup visits, and at most one dead count
    per committee of stage ``t - 1``.

    The checks run when this function is called, not when the generator
    is first read, so a reader that takes no sequence is refused like any
    other: ``budget`` is checked by :func:`~mpvkit.core._natural` first,
    and a stage pool too large to enumerate within it raises
    :class:`BudgetExceededError`. The stage lists and the ball are built
    on the generator's first read, so a reader that takes no sequence
    lists nothing. Each stage is listed from ``row[1:]``, its counts over
    the pool ``1..m``. An extension past the budget raises
    :class:`BudgetExceededError` too.
    """
    budget = _natural("budget", budget, 0)
    m, k, ell, x, tau = instance.m, instance.k, instance.ell, instance.x, instance.tau
    pool_size = _committees(m, k)
    if pool_size > budget or pool_size * tau > 8 * budget:
        raise BudgetExceededError(
            f"enumerating {pool_size} committees per stage exceeds the budget of {budget}"
        )
    exceeded = f"search exceeded the budget of {budget} partial sequences"
    pool = range(1, m + 1)
    conservative = instance.variant == CONSERVATIVE
    ok = [d <= ell if conservative else d >= ell for d in range(m + 1)]
    # successors of prev lie within radius of prev ^ flip; a lookup takes at
    # most 64 masks, and a ball of radius 7 holds at least 2**7 of them
    radius, flip = (ell, 0) if conservative else (m - ell, (1 << m) - 1)
    ball_size = _committees(m, min(radius, 7))
    lookup = tau > 1 and ball_size <= 64
    counts = instance.counts
    ball, stages = [], []  # filled on the first read
    dead = [{} for _ in range(tau)]

    def paths(t, prev):  # the valid tails from stage t on, after committee prev
        spent = dead[t].get(prev)
        if spent is not None:
            states[0] += spent
            if states[0] > budget:
                raise BudgetExceededError(exceeded)
            return
        start, found, last = states[0], False, t + 1 == tau
        candidates = stages[t]
        test = t and not lookup  # a lookup's successors meet ell by construction
        if t and lookup:
            verdicts, row, centre, candidates = candidates, counts[t], prev ^ flip, []
            for offset in ball:
                committee = centre ^ offset
                if committee.bit_count() <= k:
                    key = verdicts.get(committee)
                    if key is None:
                        bits = bin(committee << 1)[:1:-1]
                        feasible = sum(compress(row, bits.encode().translate(_SELECT))) >= x
                        key = verdicts[committee] = bits.translate(_LEX) if feasible else ""
                    if key:
                        candidates.append(committee)
            if len(candidates) > 1:
                candidates.sort(key=verdicts.__getitem__)
        for committee in candidates:
            if test and not ok[(prev ^ committee).bit_count()]:
                continue
            states[0] += 1
            if states[0] > budget:
                raise BudgetExceededError(exceeded)
            if last:
                found = True
                yield (committee,)
            else:
                for rest in paths(t + 1, committee):
                    found = True
                    yield (committee,) + rest
        if not found:
            dead[t][prev] = states[0] - start

    def sequences():
        if lookup and radius >= 0:
            ball.extend(_feasible_masks([0] * m, radius, 0))
        # stages with equal rows share a feasible list or verdicts
        lists = {row: _feasible_masks(row[1:], k, x) for row in set(counts[: 1 if lookup else tau])}
        verdicts = {row: {} for row in counts}
        stages.extend(verdicts[row] if t and lookup else lists[row] for t, row in enumerate(counts))
        for path in paths(0, 0):
            yield tuple(_decode(mask, pool) for mask in path)

    return sequences()


def brute_force(instance: Instance, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Decide an instance by exhaustive stage-by-stage search.

    The witness, when one exists, is the lexicographically first valid
    committee sequence (committees compared as sorted tuples, stage by
    stage), so repeated runs and independent implementations agree on it.
    Each stage is listed by :func:`_feasible_masks` from its counts over
    the candidates ``1..m`` (``row[1:]``), the form in which layered-k
    lists its stages over its own pool. The budget and the stage pool's
    size are checked before any search.

    Parameters
    ----------
    instance : Instance
    budget : int
        Maximum number of partial-sequence extensions before the search
        gives up with :class:`BudgetExceededError`; by default
        :data:`~mpvkit.core.DEFAULT_BUDGET`, and checked before the
        search like every other solver's (a non-negative integer, see
        :func:`~mpvkit.core._natural`).
    """
    start = time.perf_counter()
    states = [0]
    witness = next(_sequence_search(instance, budget, states), None)
    return _report("brute-force", start, witness, states[0])


def enumerate_solutions(instance: Instance, limit: int, budget: int = DEFAULT_BUDGET) -> list:
    """First ``limit`` valid committee sequences in lexicographic order.

    ``limit`` and ``budget`` are non-negative integers
    (:func:`~mpvkit.core._natural`). Both are checked before any
    sequence is read, so ``limit=0`` refuses a bad budget, or a stage pool
    too large for it, like any other limit, and otherwise returns ``[]``
    without listing any stage.
    """
    count = _natural("limit", limit, 0)
    return list(islice(_sequence_search(instance, budget, [0]), count))
