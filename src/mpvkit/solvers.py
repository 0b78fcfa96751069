"""Exact decision procedures, each exploiting one small parameter.

* :func:`solve_unconstrained` handles the regimes where the transition
  constraint never binds and stages decouple.
* :func:`solve_layered_k` does reachability over explicit per-stage
  committees, effective for small committee bounds.
* :func:`solve_inout_ell` does reachability over committee-change
  witnesses, effective for small ``ell`` (revolutionary variant).
* :func:`solve_dp_tau` runs a dynamic program over per-stage profiles,
  effective for few stages.
* :func:`solve_auto` routes to the estimated-cheapest applicable method
  and falls back on budget errors.
* :data:`_SOLVERS`, at the end, is the one table of them all (brute
  force included), keyed by the names ``mpv`` gives them, with the
  estimates :func:`solve_auto` ranks by.

Every solver returns a :class:`~mpvkit.core.SolveReport` whose witness,
when present, passes :func:`~mpvkit.core.verify`. Searches that would
exceed their state budget raise
:class:`~mpvkit.core.BudgetExceededError` rather than guessing. Every
solver takes ``(instance, budget)``, and ``budget`` defaults to
:data:`~mpvkit.core.DEFAULT_BUDGET`, as for brute force. Before any work
the budget is checked by the integer rule of :func:`~mpvkit.core._natural`:
any integer type but ``bool``, at least 0; a float (``inf`` too), ``None``
or a string raises ``ValueError``.
"""

from __future__ import annotations

import sys
import time
from itertools import combinations
from math import comb

from .core import (
    BudgetExceededError,
    CONSERVATIVE,
    DEFAULT_BUDGET,
    Instance,
    PreconditionError,
    REVOLUTIONARY,
    SolveReport,
    _approved,
    _committees,
    _decode,
    _figure,
    _greedy_fill,
    _hopeless,
    _natural,
    _refuse,
    _report,
    _stage_order,
    feasible_committee,
)
from .oracle import _feasible_masks, brute_force

# ---------------------------------------------------------------------------
# decoupled stages
# ---------------------------------------------------------------------------


def _decoupled(instance: Instance) -> bool:
    """Whether the transition constraint can never bind.

    True when ``tau == 1``, when the variant is conservative with
    ``ell >= 2k`` (committees of size at most ``k`` can never differ by
    more than ``2k``), or revolutionary with ``ell == 0``.
    """
    if instance.variant == CONSERVATIVE:
        return instance.tau == 1 or instance.ell >= 2 * instance.k
    return instance.tau == 1 or instance.ell == 0


def solve_unconstrained(instance: Instance, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Solve the regimes where the transition constraint never binds.

    Applicable when ``tau == 1``, when the variant is conservative with
    ``ell >= 2k``, or revolutionary with ``ell == 0``. Stages then
    decouple and each is decided by its greedy top-``k`` committee
    (:func:`~mpvkit.core.feasible_committee`), which maximizes the stage
    score. Raises :class:`PreconditionError` outside these regimes.

    The answer is :func:`~mpvkit.core._hopeless`'s: in these regimes it
    is yes exactly when no stage's ``k`` largest counts sum below ``x``,
    and only then are the committees built. The work is one pass per
    stage, so ``budget`` (checked like every solver's) never runs out.
    """
    _natural("budget", budget, 0)
    if not _decoupled(instance):
        raise PreconditionError(
            "greedy decoupling needs tau == 1, conservative ell >= 2k, "
            "or revolutionary ell == 0"
        )
    start = time.perf_counter()
    witness = None
    if _hopeless(instance) is None:
        witness = tuple(feasible_committee(instance, t) for t in range(1, instance.tau + 1))
    return _report("greedy", start, witness, instance.tau)


# ---------------------------------------------------------------------------
# layered reachability, shared by layered-k and in/out-ell
# ---------------------------------------------------------------------------


def _first_links(layer, prev, linked, states, budget):
    """First linked ``prev`` node for every node of ``layer``, in plain Python.

    Returns ``(hits, parents, states)``: ``hits`` lists the positions in
    ``layer`` that have a linked node in ``prev``, and ``parents[i]`` is
    the first such position in ``prev`` for ``layer[hits[i]]``, where
    ``b`` links to ``a`` when ``linked(b, a)`` holds. ``states`` grows
    like :func:`_scan_arcs`'s, by the pairs a scan with early exit
    examines, and the budget error is raised after the first node's scan
    that takes it past ``budget``. ``states`` only grows, so that is
    exactly when a check on every pair would raise, with the same message.
    """
    hits, parents = [], []
    for i, a in enumerate(layer):
        for j, b in enumerate(prev):
            if linked(b, a):
                hits.append(i)
                parents.append(j)
                states += j + 1
                break
        else:
            states += len(prev)
        if states > budget:
            _refuse("nodes and examined arcs", budget)
    return hits, parents, states


def _path(layers, scan, states):
    """Layered reachability in which each node keeps its first reachable parent.

    Every node of ``layers[0]`` is reachable. For each later layer ``t``,
    ``scan(t, reached, states)`` takes the positions of layer ``t - 1``'s
    reachable nodes, in layer order, and returns ``(hits, parents,
    states)``: the positions in layer ``t`` of the nodes with a reachable
    parent, in layer order, and for each the index into ``reached`` of
    its first one (:func:`_first_links` for a plain-Python scan), with
    ``states`` grown by the scan's work. The loop stops at the first
    empty reach set. Returns ``(path, states)``, where ``path`` lists the
    nodes, one per layer, of the path to the first reachable node of the
    last layer, walked back along the parent links, or is ``None``.
    """
    reach, links = [range(len(layers[0]))], []
    for t in range(1, len(layers)):
        if not len(reach[-1]):
            break
        hits, parents, states = scan(t, reach[-1], states)
        reach.append(hits)
        links.append(parents)
    if not len(reach[-1]):
        return None, states
    path, j = [], 0
    for t in range(len(layers) - 1, -1, -1):
        path.append(layers[t][reach[t][j]])
        if t:
            j = links[t - 1][j]
    return path[::-1], states


# ---------------------------------------------------------------------------
# small committee bound: one layer of committees per stage
# ---------------------------------------------------------------------------


# Layered-k's cap on plain Python, for both of its counts: it enumerates
# committees in Python while its pool has at most this many committees of
# at most k members (and, once numpy is loaded, while their pairs cannot
# exceed it either), and stays in Python, arc scan included, while the
# listed layers also hold at most this many committee pairs between
# consecutive stages in all; past that it lists them again in numpy. On a
# 2-vCPU Xeon the Python scan (_first_links, with one call of its link
# test per pair) costs about 70 ns per pair examined and the enumeration
# about 0.6 us per committee listed, so the worst cases here are about
# 0.6 ms per scan and 5 ms per stage, against 155 ms or more for numpy's
# cold import.
SCAN_PYTHON_MAX = 1 << 13

# array elements one numpy call builds in the arc scan, in layered-k's
# numpy listings, score bound and subset-key join and in dp-tau's
# expansion, so temporaries stay bounded on large inputs; also the join's
# cap on its key space, so that each of its tables takes at most 1 MiB
_CALL_ELEMENTS = 1 << 18


def _listing_pass(np, weights, k, x, span):
    """The keys of every stage's committees of at most ``k`` members scoring
    at least ``x >= 0`` under ``weights``, a ``(tau, n)`` int64 array, sorted.

    The pass goes level by level over a frontier of committee prefixes of
    every stage at once: ``(stage, score, next position, key)``. A prefix
    with ``left`` free seats extends over the positions from its next one
    up to the first ``i`` whose entry ``best[left][i]``, the sum of the
    ``left`` largest weights from ``i`` on (:func:`~mpvkit.oracle._best_sums`,
    here built in numpy), falls below ``x - score``; that bound never grows
    with ``i``, so one ``searchsorted`` over every stage's bounds, offset
    per stage, finds all the stops. A child is a committee when it scores
    at least ``x``, and stays a prefix when ``left > 1`` and its score
    plus ``best[left - 1]`` after it reaches ``x``. At the last level a
    prefix that scores below ``x`` extends only over its stage's
    nonzero-weight positions, since a zero-weight child would score below
    ``x`` too. The key spells a stage and its committee's sorted positions
    as digits ``position + 1`` in base ``n + 1``, most significant first
    and 0 past the last member, plus ``span = (n + 1)**k`` per stage, so
    the sorted keys give the stages in order, each in lexicographic order,
    a prefix first. The caller keeps ``tau * max(span, top + 2)`` below
    ``2**63``, ``top`` the largest stage score. Each numpy call builds
    fewer than ``_CALL_ELEMENTS + n`` children.
    """
    tau, n = weights.shape
    # best[left][t][i]: the sum of the left largest of stage t's weights[i:]
    best = np.zeros((k + 1, tau, n + 1), dtype=np.int64)
    for left in range(1, k + 1):
        taking = weights + best[left - 1, :, 1:]
        best[left, :, :n] = np.maximum.accumulate(taking[:, ::-1], axis=1)[:, ::-1]
    weights = weights.ravel()  # stage t's at t * n
    stage = np.arange(tau)
    # ladders[left]: x - min(best, x) ascends along each stage's positions,
    # and stage t's run is offset by t * (x + 1) above stage t - 1's
    ladders = (x - np.minimum(best[:, :, :n], x) + (stage * (x + 1))[:, None]).reshape(k + 1, -1)
    after = best[:, :, 1:].reshape(k + 1, -1)  # best past each index into weights
    # a prefix: its stage, score, key, and next position as an index into weights
    score = np.zeros(tau, dtype=np.int64)
    key = stage * span
    start = stage * n
    keys = [key[: tau if x == 0 else 0]]  # the empty committee scores 0
    for left in range(k, 0, -1):
        digit = (n + 1) ** (left - 1)
        stop = ladders[left].searchsorted(stage * (x + 1) + np.minimum(score, x), side="right")
        # the children's indices into weights: at the last level a prefix
        # below x takes them from table's nonzero run, any other from its
        # identity run after that
        table = None
        if left == 1:
            nonzero = np.flatnonzero(weights)
            table = np.concatenate([nonzero, np.arange(weights.size)])
            low = score < x
            start, stop = (np.where(low, nonzero.searchsorted(v), v + nonzero.size) for v in (start, stop))
        children = np.maximum(stop - start, 0)
        # a child at index i has key base + i * digit, its position + 1 as digit
        base = key - (stage * n - 1) * digit
        # blocks of whole prefixes, each with fewer than _CALL_ELEMENTS + n children
        ends = children.cumsum()
        cut = range(_CALL_ELEMENTS, int(children.sum()), _CALL_ELEMENTS)
        cuts = [0, *ends.searchsorted(cut, side="right"), ends.size]
        kept = []
        for a, b in zip(cuts, cuts[1:]):
            count = children[a:b]
            at = np.arange(count.sum()) - np.repeat(count.cumsum() - count - start[a:b], count)
            if table is not None:
                at = table[at]
            s = np.repeat(score[a:b], count) + weights[at]
            c = np.repeat(base[a:b], count) + at * digit
            keys.append(c[s >= x])
            if left > 1:
                go = s + after[left - 1][at] >= x
                kept.append((at[go], s[go], c[go]))
        if not kept:
            break
        at, score, key = map(np.concatenate, zip(*kept))
        stage, start = at // n, at + 1
    return np.sort(np.concatenate(keys))


def _key_masks(np, keys, n, k, span):
    """``(masks, digits)`` of :func:`_listing_pass`'s ``keys``: the pair
    that every numpy layer of :func:`solve_layered_k` carries.

    ``masks`` is a ``(len(keys), words)`` uint64 array of the committees'
    bitmasks over the ``n`` pool positions, ``words = max(1, ceil(n /
    64))``, low word first. ``digits`` is a ``(k, len(keys))`` intp array
    (8 bytes a seat on 64-bit builds) of each committee's key digits, the
    last seat first: ``position + 1`` per member, 0 for an empty seat.
    """
    words = max(1, -(-n // 64))
    # bits[d]: the mask of position d - 1, and bits[0] no member
    bits = np.zeros((n + 1, words), dtype=np.uint64)
    pos = np.arange(n)
    bits[pos + 1, pos >> 6] = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    masks = np.zeros((keys.size, words), dtype=np.uint64)
    digits = np.empty((k, keys.size), dtype=np.intp)
    rest = keys % span
    for seat in digits:
        rest, seat[:] = np.divmod(rest, n + 1)
        masks |= bits[seat]
    return masks, digits


# every table the solvers keep between solves, by a key that starts with
# its kind, arrays read-only, oldest first (_kept)
_KEPT = {}


def _kept(key, build):
    """The table kept under ``key``, or else ``build()``'s: a tuple of numpy
    arrays, or ``None``.

    This is the one store of the tables that the solvers keep between
    solves, layered-k's committee tables (:func:`_committee_table`) and
    dp-tau's twin tables (:func:`_twins`), and its one rule is: the latest
    64 tables built, while their arrays take at most 4 MiB together. On a
    miss ``build()`` runs, and its table is kept, every array made
    read-only, unless it is ``None`` or its arrays alone take more than 4
    MiB; so such a table is built per call. Keeping a table evicts the
    oldest until both bounds hold again. A kept table is returned as it
    is, the same object on every lookup. Each table also holds 0.3-0.9 kB
    of Python objects beyond its arrays, which the count bound caps: a
    full store of 64 tables with 3.7 MiB of arrays retains 3.9 MB
    (``tracemalloc`` on CPython 3.11).
    """
    table = _KEPT.get(key)
    if table is None:
        table = build()
        if table is not None and sum(array.nbytes for array in table) <= 1 << 22:
            for array in table:
                array.setflags(False)  # write=False; positional, which parses in a third of the time
            _KEPT[key] = table
            for old in [*_KEPT][:-1]:  # a list, so that a concurrent solve cannot break the walk
                if len(_KEPT) <= 64 and sum(array.nbytes for kept in [*_KEPT.values()] for array in kept) <= 1 << 22:
                    break
                _KEPT.pop(old, None)
    return table


def _committee_table(np, n, k):
    """``(masks, digits)``: every committee of at most ``k <= n`` of ``n``
    pool positions, in :func:`~mpvkit.oracle._feasible_masks`'s order.

    Row ``i`` of ``masks`` is committee ``i``'s bitmask and column ``i`` of
    the ``(k, size)`` array ``digits`` its key digits, both as
    :func:`_key_masks` gives them. The table is :func:`_listing_pass` over
    one all-zero stage at ``x = 0``, which lists exactly these committees
    in this order. It is kept by ``(n, k)`` in the process's one store
    (:func:`_kept`); a table of 8,192 committees of a pool of up to 64
    takes at most 0.9 MB (13 seats), one of 18 to 24 candidates at ``k =
    3`` 32-75 kB, and one over 4 MiB, such as 8,191 candidates' at ``k =
    1``, is built per call.
    """

    def build():
        span = (n + 1) ** k
        keys = _listing_pass(np, np.zeros((1, n), dtype=np.int64), k, 0, span)
        return _key_masks(np, keys, n, k, span)

    return _kept(("committees", n, k), build)


def _feasible_layers(weights, top, k, x):
    """Every stage's :func:`~mpvkit.oracle._feasible_masks`, listed in numpy.

    ``weights`` is :func:`solve_layered_k`'s stage table, each stage's
    counts over the candidate pool, one list of ``n`` per stage, the rows
    that :func:`~mpvkit.oracle._feasible_masks` lists one at a time, and
    ``top`` is the largest sum of ``max(k, 1)`` of one stage's weights: at
    least one seat, so that no weight exceeds ``top`` either. Both are
    read here and computed by the caller. Returns ``(masks, digits)``, one
    list of each stage's committees as :func:`_key_masks` gives them, with
    ``min(k, n)`` seats and in :func:`~mpvkit.oracle._feasible_masks`'s
    order, or ``None``, before importing numpy, when no stage reaches
    ``x`` or the int64 arithmetic could overflow. Both branches give the
    same arrays.

    * A committee space of at most :data:`SCAN_PYTHON_MAX` committees of
      at most ``k`` members is scored from its committee table
      (:func:`_committee_table`), which the process keeps in its one
      store of tables (:func:`_kept`) where it fits: a block of stages
      costs one gather of its weights at the table's ``k`` digits per
      committee, with a zero weight at digit 0, the empty seat, one sum
      over the seats, one comparison with ``x`` and, per stage, one
      selection of the table's masks and one of its digits. A block gathers at most
      ``_CALL_ELEMENTS`` weights, or one stage's.
    * A larger space is listed by one pass over all stages
      (:func:`_listing_pass`), which prunes by score bounds; the masks and
      digits are read off the sorted keys (:func:`_key_masks`) and split
      by stage.

    ``None`` is returned when ``x > top``, so that every layer is empty,
    and unless ``tau * (n + 1)**k``, the pass's keys' range, and ``tau *
    (top + 2)``, its offset bounds' range, are below ``2**63``; so every
    score fits int64. A negative ``x`` is clipped to 0, which keeps every
    committee's verdict.
    """
    n, tau = len(weights[0]), len(weights)
    k = min(k, n)
    span = (n + 1) ** k  # keys of one stage
    if x > top or tau * max(span, top + 2) >= 2**63:
        return None
    import numpy as np

    x = max(x, 0)
    if _committees(n, k) > SCAN_PYTHON_MAX:
        keys = _listing_pass(np, np.array(weights, dtype=np.int64), k, x, span)
        masks, digits = _key_masks(np, keys, n, k, span)
        cuts = keys.searchsorted(np.arange(1, tau) * span)
        return np.split(masks, cuts), np.split(digits, cuts, axis=1)
    masks, digits = _committee_table(np, n, k)
    padded = np.zeros((tau, n + 1), dtype=np.int64)  # digit 0, no member, weighs 0
    padded[:, 1:] = weights
    layers, layer_digits, rows = [], [], max(1, _CALL_ELEMENTS // (max(k, 1) * len(masks)))
    for a in range(0, tau, rows):
        score = padded[a : a + rows].take(digits, axis=1).sum(axis=1)  # (stages, seats, committees)
        for ok in score >= x:
            layers.append(masks.compress(ok, axis=0))
            layer_digits.append(digits.compress(ok, axis=1))
    return layers, layer_digits


def _scan_arcs(np, layer, reach, conservative, ell, states, budget):
    """First compatible ``reach`` row for every row of ``layer``.

    Returns ``(parents, states)``: ``parents[i]`` is the first position in
    ``reach`` whose symmetric difference with ``layer[i]`` respects ``ell``
    (``-1`` when none does), and ``states`` grows by the arcs a row-by-row
    scan with early exit examines: ``parents[i] + 1`` per hit and
    ``len(reach)`` per miss. Every row is first tested against ``reach[0]``
    alone, where many rows find their parent; the columns after it go in
    blocks of 64 and then of doubling width, and only rows without a hit
    move on, so cheap hits stay cheap. The running count is a lower bound
    on the final one, so the budget error is raised as soon as it passes
    ``budget``, exactly when the row-by-row scan would raise.
    ``np`` is the numpy module, imported by the calling solver.
    """
    words = layer.shape[1]
    parents = np.full(layer.shape[0], -1, dtype=np.int64)
    pending = np.arange(layer.shape[0])
    lo, width = 0, 1
    while pending.size and lo < reach.shape[0]:
        hi = min(reach.shape[0], lo + width)
        block = reach[lo:hi]
        rows = max(1, _CALL_ELEMENTS // ((hi - lo) * words))
        missed = []
        for a in range(0, pending.size, rows):
            idx = pending[a : a + rows]
            d = np.bitwise_count(layer[idx, None, :] ^ block[None, :, :])
            d = d[..., 0] if words == 1 else d.sum(axis=2, dtype=np.int64)
            ok = d <= ell if conservative else d >= ell
            hit = ok.any(axis=1)
            first = ok[hit].argmax(axis=1)
            parents[idx[hit]] = first + lo
            missed.append(idx[~hit])
            states += int(first.sum()) + first.size + (hi - lo) * (idx.size - first.size)
            if states > budget:
                _refuse("nodes and examined arcs", budget)
        pending = np.concatenate(missed)
        lo, width = hi, min(max(2 * width, 64), _CALL_ELEMENTS)
    return parents, states


def _parentless(np, digits, weights, k, ell, x):
    """Committees of a layer that no committee scoring at least ``x``
    under ``weights`` can precede in the conservative variant.

    Only the pair scan reads it: :func:`solve_layered_k` runs it before a
    conservative :func:`_scan_arcs` against more than 64 reachable
    committees, which happens where the key space exceeds the cap of
    :func:`_subset_join`'s exact join.

    ``digits`` is the layer's carried digits (:func:`_key_masks`), and the
    result a boolean array over its columns. A parent ``b`` of a committee
    ``a`` of ``s`` members drops some ``r <= min(ell, s)`` of them and adds
    at most ``j(s) = max over r of min(ell - r, k - s + r)`` others, since
    ``|a ^ b| <= ell`` and ``|b| <= k``; that maximum is ``min(ell, k - s +
    min(ell, s), (ell + k - s) // 2)``. Weights are non-negative, so ``b``
    scores at most ``a``'s own score plus the sum ``T[j(s)]`` of the
    ``j(s)`` largest ``weights``, and a committee where that falls below
    ``x`` has no parent. Its score is one gather of ``weights``, padded
    with a zero weight at digit 0, the empty seat, and one sum over the
    seats; ``s`` counts its nonzero digits. Committees go in blocks, so
    that every temporary holds at most ``_CALL_ELEMENTS`` entries, or one
    committee's. ``weights`` is the previous stage's row of
    :func:`solve_layered_k`'s stage table, a list over the pool (an int64
    array works too), and every sum fits int64 wherever
    :func:`_feasible_layers` lists the layers. ``np`` is the numpy module,
    imported by the calling solver.
    """
    n = len(weights)
    k = min(k, n)
    # added[s]: T[j(s)], by committee size s
    tops = np.concatenate([[0], np.sort(weights)[::-1][:k].cumsum()])
    added = tops[[min(ell, k - s + min(ell, s), (ell + k - s) // 2) for s in range(k + 1)]]
    pad = np.array([0, *weights], dtype=np.int64)
    out = np.empty(digits.shape[1], dtype=bool)
    rows = max(1, _CALL_ELEMENTS // max(k, 1))
    for a in range(0, digits.shape[1], rows):
        block = digits[:, a : a + rows]
        out[a : a + rows] = added[np.count_nonzero(block, axis=0)] + pad.take(block).sum(axis=0) < x
    return out


# a free entry of _subset_join's tables, above every reach position
_FREE = 2**31 - 1


def _subset_join(np, n, k, ell):
    """The plan of :func:`_join_parents` for committees of at most ``k`` of
    ``n`` pool positions and the conservative ``ell``, or ``()`` where the
    key space ``span = (n + 1)**min(k, n)`` exceeds ``_CALL_ELEMENTS``.

    A variant of a committee drops some ``d <= min(ell, k)`` of its
    members, and ``d`` is its label. Its key spells the members it keeps
    as :func:`_listing_pass` does, as digits ``position + 1`` in base ``n
    + 1``, most significant first and 0 past the last, so it is below
    ``span``. A drop pattern names the seats it drops, seat 0 holding the
    lowest member, and a committee's key digits in seat order (its carried
    digits, :func:`_key_masks`'s, reversed) times one column of ``fill``, a
    ``(k, patterns)`` float64 matrix, give the key of one of its variants;
    every product is an integer below ``2**53``, so exact. A
    pattern that drops an empty seat, past a committee's last member,
    gives the key of the variant that drops only the members among them,
    under a larger label: a weaker claim, which is harmless. A pattern's
    key plus its entry of ``fill_at`` is its index into ``table``, whose
    entries ``d * span`` to ``(d + 1) * span - 1`` are label ``d``'s
    table. ``read``, ``(lookups, k)``, and ``read_at`` do the same for the
    lookups: each pattern of label ``da`` in the table of every label
    ``db <= min(ell - da, k)``. Returns ``(fill, fill_at, read, read_at,
    table)``, ``table`` holding ``min(ell, k) + 1`` free int32 tables of
    ``span`` entries, at most ``(min(ell, k) + 1) * 2**20`` bytes in all.
    """
    k = min(k, n)
    span = (n + 1) ** k
    if span > _CALL_ELEMENTS:
        return ()
    weight = [(n + 1) ** power for power in range(k - 1, -1, -1)]  # by rank
    fill, labels = [], []
    for d in range(min(ell, k) + 1):
        for kept in combinations(range(k), k - d):
            row = [0] * k
            for rank, seat in enumerate(kept):
                row[seat] = weight[rank]
            fill.append(row)
            labels.append(d)
    reads = [(p, db) for p, da in enumerate(labels) for db in range(min(ell - da, k) + 1)]
    fill = np.array(fill, dtype=np.float64)
    return (
        fill.T,
        np.array(labels, dtype=np.intp) * span,
        fill[[p for p, _ in reads]],
        np.array([db * span for _, db in reads], dtype=np.intp)[:, None],
        np.full((min(ell, k) + 1) * span, _FREE, dtype=np.int32),
    )


def _join_parents(np, layer, reach, plan):
    """First compatible ``reach`` committee for every committee of
    ``layer``, conservative.

    ``layer`` and ``reach`` are the carried digits (:func:`_key_masks`) of
    two layers' committees, one column each, which the products read
    reversed, in :func:`_subset_join`'s seat order, and as float64.
    ``plan`` is :func:`_subset_join`'s. Returns an int32 array with the
    first position in ``reach`` within ``ell`` of each committee, or
    ``_FREE`` where there is none. Each reach committee's variants write
    its position into their keys' entries, the least position kept
    (``np.minimum.at``); each committee's least entry over its variants'
    lookups is its first parent. The entries written are freed again
    before the return. Every block of committees builds at most
    ``_CALL_ELEMENTS`` keys, or one committee's.
    """
    fill, fill_at, read, read_at, table = plan
    layer, reach = (digits[::-1].astype(np.float64) for digits in (layer, reach))
    written = []
    rows = max(1, _CALL_ELEMENTS // fill.shape[1])
    for a in range(0, reach.shape[1], rows):
        keys = (reach[:, a : a + rows].T @ fill).astype(np.intp) + fill_at
        at = np.arange(a, a + len(keys), dtype=np.int32)
        np.minimum.at(table, keys.ravel(), at.repeat(fill.shape[1]))
        written.append(keys)
    parents = np.empty(layer.shape[1], dtype=np.int32)
    rows = max(1, _CALL_ELEMENTS // len(read))
    for a in range(0, layer.shape[1], rows):
        keys = (read @ layer[:, a : a + rows]).astype(np.intp) + read_at
        parents[a : a + rows] = table.take(keys).min(axis=0)
    for keys in written:
        table[keys] = _FREE
    return parents


def solve_layered_k(instance: Instance, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Layered reachability over explicit per-stage committees.

    Each stage contributes a layer whose nodes are the committees of size
    at most ``k`` that meet the stage's score threshold, enumerated under
    a score bound as bitmasks over the candidate pool; consecutive layers
    are connected when the symmetric difference respects ``ell``. The
    instance is a yes iff a path crosses all layers. The reachability is
    :func:`_path`'s: a reachable committee keeps the first compatible
    reachable committee of the previous stage as its parent, and the
    witness is the path to the first reachable committee of the last
    stage. For the conservative variant the candidate pool shrinks to the
    candidates approved at least once (:func:`~mpvkit.core._approved`).

    A solve takes one of two routes, plain Python end to end or numpy end
    to end, and both enumerate the same committees in the same order:
    lexicographic in their sorted pool positions, a prefix first, which
    fixes the parents and so the witness. Let ``N`` be the number of
    committees of at most ``k`` members of the pool.

    * Plain Python lists the layers stage by stage
      (:func:`~mpvkit.oracle._feasible_masks`) and scans the arcs pair by
      pair (:func:`_first_links`, linking committees whose symmetric
      difference respects ``ell``), and numpy is never imported. It takes
      a solve where ``N`` is at most :data:`SCAN_PYTHON_MAX` and either
      numpy is not loaded (no numpy module in ``sys.modules``) or ``N**2 *
      (tau - 1)``, the most committee pairs the layers can hold, is at most
      :data:`SCAN_PYTHON_MAX`, as long as the listed layers hold at most
      :data:`SCAN_PYTHON_MAX` committee pairs between consecutive stages
      in all (up to the first empty layer). When they hold more (a fresh
      process that has not loaded numpy), the solve hands over: it imports
      numpy and lists the layers again through :func:`_feasible_layers`.
      Plain Python also takes, whatever its pair count, every instance
      that :func:`_feasible_layers` refuses before importing numpy: one
      where ``x`` exceeds ``top``, the largest top-``k`` stage sum, so that
      every layer is empty, or whose ``tau * (top + 2)`` or ``tau *
      (len(pool) + 1)**k`` does not fit int64, such as one with weights of
      ``2**70``.
    * numpy lists every layer as the pair :func:`_key_masks` gives, its
      uint64 bitmasks and its ``(k, size)`` key digits, with int64 scores
      (:func:`_feasible_layers`): for ``N`` up to :data:`SCAN_PYTHON_MAX`
      scored from a table of the pool's ``N`` committees, kept in the
      process's one store of tables (:func:`_committee_table`,
      :func:`_kept`), and above that listed in one numpy pass over all
      stages. The transitions below read these arrays and never work out
      a committee's members again, and the witness is decoded from the
      masks' rows.

    One scan function serves :func:`_path` on both routes.
    A conservative numpy transition against more than 64 reachable
    committees, one scan block's width, is a join on subset keys
    (:func:`_subset_join`, :func:`_join_parents`) where the key space
    ``span = (len(pool) + 1)**min(k, len(pool))`` is at most
    ``_CALL_ELEMENTS``. ``|a ^ b| <= ell`` holds exactly when some ``S``
    inside both has ``|a - S| + |b - S| <= ell``: ``S = a & b`` gives
    ``|a ^ b|`` itself, and any such ``S`` gives at least ``|a ^ b|``, since
    ``a ^ b`` lies in ``(a - S) | (b - S)``. So ``b`` precedes ``a``
    exactly when a variant of ``a`` that drops ``da`` members has the key
    of a variant of ``b`` that drops at most ``ell - da``, and ``a``'s
    first parent is the least reach position over those lookups: the
    parent the scan finds, with the same misses, and ``states`` grows as
    the scan counts it. The budget is checked once per transition: the
    count only grows, so the scan raises within it exactly when its end
    count exceeds ``budget``, with the same message. The cap means ``k <=
    6`` seats, so at most 64 variants per committee, and tables of at most
    ``(min(ell, k) + 1)`` MiB, built at the first join of a solve and
    dropped with it; only the keys written are freed between transitions.

    Any other numpy transition is a pair scan (:func:`_scan_arcs`). Before
    a conservative one against more than 64 reachable committees (a key
    space over the cap), a score bound rules out the committees that no
    feasible committee of the previous stage can precede
    (:func:`_parentless`): within ``ell``, a parent of a committee of
    ``s`` members adds at most ``j(s)`` others, so it scores at most the
    committee's own previous-stage score plus the previous stage's
    ``j(s)`` largest weights, which is sound because weights are
    non-negative. A committee ruled out is not scanned and counts as the
    full miss the scan would find. The bound's sums fit int64 because
    :func:`_feasible_layers`' guard holds wherever numpy scans. The
    join's misses are exact, so it needs no bound. Both routes return
    the same witness, states, layer sizes and budget errors.

    Both listings and the score bound read one stage table, built once per
    solve right after the up-front refusal: each stage's counts projected
    onto the pool, one list per stage. ``top`` is computed only before a
    numpy listing.

    Budget, checked first like every solver's, counts layer nodes plus
    examined arcs. ``stats["layer_sizes"]`` holds the number of feasible
    committees at each stage.
    """
    budget = _natural("budget", budget, 0)
    start = time.perf_counter()
    conservative = instance.variant == CONSERVATIVE
    pool = _approved(instance.counts) if conservative else list(range(1, instance.m + 1))
    node_bound = _committees(len(pool), instance.k)
    if node_bound * instance.tau > budget:
        _refuse("committees over all stages", budget, node_bound * instance.tau)
    # the stage table, read by both listings and the score bound
    weights = [[row[c] for c in pool] for row in instance.counts]

    def listed_in_numpy():
        top = max(sum(sorted(row, reverse=True)[: instance.k]) for row in weights)
        return _feasible_layers(weights, top, instance.k, instance.x)

    # numpy lists the layers past the Python cap, and also below it once
    # numpy is loaded, unless the layers' pairs cannot exceed the cap
    numpy_first = node_bound > SCAN_PYTHON_MAX or (
        sys.modules.get("numpy") is not None
        and node_bound**2 * (instance.tau - 1) > SCAN_PYTHON_MAX
    )
    listed = listed_in_numpy() if numpy_first else None
    if listed is None:
        layers = [_feasible_masks(row, instance.k, instance.x) for row in weights]
        pairs = 0
        for before, after in zip(layers, layers[1:]):
            if not before:
                break
            pairs += len(before) * len(after)
        # more pairs than the cap hand a small space over to numpy, which
        # lists it again, unless _feasible_layers refuses it
        if pairs > SCAN_PYTHON_MAX and not numpy_first:
            listed = listed_in_numpy()
    if listed is None:
        # ok[d]: whether committees at symmetric difference d may follow each other
        ell = instance.ell
        ok = [d <= ell if conservative else d >= ell for d in range(len(pool) + 1)]
    else:
        import numpy as np

        layers, digits = listed
    layer_sizes = list(map(len, layers))
    plan = None  # the subset-key join's, built at the first transition that reads it

    def scan(t, reached, states):
        nonlocal plan
        if listed is None:
            prev = [layers[t - 1][i] for i in reached]
            linked = lambda b, a: ok[(a ^ b).bit_count()]
            return _first_links(layers[t], prev, linked, states, budget)
        prev = layers[0] if t == 1 else layers[t - 1][reached]
        rows = np.arange(len(layers[t]))
        if conservative and len(prev) > 64:
            if plan is None:
                plan = _subset_join(np, len(pool), instance.k, instance.ell)
            if plan:
                reach = digits[0] if t == 1 else digits[t - 1].take(reached, axis=1)
                parents = _join_parents(np, digits[t], reach, plan)
                hit = parents < len(prev)
                rows, parents = rows[hit], parents[hit]
                # a scan with early exit examines parent + 1 pairs per hit, all per miss
                states += int(parents.sum()) + rows.size + len(prev) * (hit.size - rows.size)
                if states > budget:
                    _refuse("nodes and examined arcs", budget)
                return rows, parents, states
            # a committee the bound rules out is a miss over all of prev
            ruled_out = _parentless(
                np, digits[t], weights[t - 1], instance.k, instance.ell, instance.x
            )
            states += int(ruled_out.sum()) * len(prev)
            if states > budget:
                _refuse("nodes and examined arcs", budget)
            rows = np.flatnonzero(~ruled_out)
        parents, states = _scan_arcs(
            np, layers[t][rows], prev, conservative, instance.ell, states, budget
        )
        return rows[parents >= 0], parents[parents >= 0], states

    path, states = _path(layers, scan, sum(layer_sizes))
    if path is not None and listed is not None:  # the array rows' words, low word first
        path = [sum(int(word) << 64 * w for w, word in enumerate(row)) for row in path]
    witness = None if path is None else tuple(_decode(mask, pool) for mask in path)
    return _report("layered-k", start, witness, states, layer_sizes=layer_sizes)


# ---------------------------------------------------------------------------
# small ell, revolutionary: witnesses of the change between stages
# ---------------------------------------------------------------------------


def solve_inout_ell(instance: Instance, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Layered reachability over committee-change witnesses (revolutionary).

    A node is a pair of disjoint candidate sets ``(X, Y)`` with
    ``|X| + |Y| == ell``, a witness of the change after some stage: the
    members of ``X`` sit in that stage's committee and leave, the members
    of ``Y`` are new in the next one. Both sets are int masks over the
    candidates ``1..m`` (bit ``c - 1`` for candidate ``c``), as
    :func:`~mpvkit.core._greedy_fill` takes them, and the empty witness
    is ``(0, 0)``. A change of size at least ``ell`` always contains such
    an exact witness, and on any path ``X`` and ``Y`` embed into
    committees, so only pairs with both sides of size at most
    ``min(k, ell)`` are materialized (none when ``ell > m`` or
    ``ell > 2k``, which answers no).

    The search is :func:`_path`'s over ``tau + 1`` layers: the empty
    witness as the change before stage 1, every node for each change
    between stages, and the empty witness as the change after stage
    ``tau``. Stage ``t`` links the reachable witnesses before it to the
    witnesses after it (:func:`_first_links`) when they are disjoint side
    by side and stage ``t`` has a committee with what they bring in and
    without what they take out, checked greedily on the masks. Each
    linked witness keeps its first parent, and the committees of the
    returned witness are rebuilt along that path from the decoded masks
    (:func:`~mpvkit.core._decode`).

    Before it tests pairs, each scan rules out the witnesses stage ``t``
    cannot host alone: an after-witness ``(X, Y)`` whose ``X`` no
    committee of stage ``t`` can hold without ``Y``, and a before-witness
    whose ``Y`` none can hold without ``X``. A committee for a link holds
    what both sides need, so it hosts each side alone, and the greedy
    check is exact because counts are non-negative; a ruled-out witness
    therefore links to nothing, and the rule-out changes no answer,
    witness or count. Ruled-out after-witnesses are skipped, and the
    ruled-out before-witnesses stay in the scanned list (so first parents
    keep their positions) but fail before any pair test.

    Budget, checked first like every solver's, counts nodes per change
    plus examined arcs, checked after each node's scan, as layered-k's.
    A ruled-out after-witness counts as a miss over every reachable
    before-witness, as layered-k's score bound does, and the budget is
    checked once they are counted. The up-front bound assumes every arc
    between middle layers is examined; it is what caps the node list's
    memory. When no witness exists, the answer is no with no work. Raises
    :class:`PreconditionError` for the conservative variant; ``tau == 1``
    and ``ell == 0`` delegate to the greedy solver with the same budget.
    """
    budget = _natural("budget", budget, 0)
    if instance.variant != REVOLUTIONARY:
        raise PreconditionError(
            "change-witness search applies to the revolutionary variant only"
        )
    if _decoupled(instance):
        return solve_unconstrained(instance, budget)

    start = time.perf_counter()
    m, k, ell, x, tau = instance.m, instance.k, instance.ell, instance.x, instance.tau
    cap = min(k, ell)
    lo = max(0, ell - cap)
    # the split sizes lo..cap are symmetric about ell / 2, so their comb sum
    # is also 2**ell less twice the sum below lo: the form with fewer terms
    # is taken (no witness when ell > m)
    if ell > m:
        splits = 0
    elif cap - lo < lo:
        splits = sum(comb(ell, j) for j in range(lo, cap + 1))
    else:
        splits = 2**ell - 2 * _committees(ell, lo - 1)
    node_count = comb(m, ell) * splits
    work_bound = node_count * (tau - 1) + node_count * node_count * max(0, tau - 2)
    if work_bound > budget:
        _refuse("middle-layer nodes and arcs", budget, work_bound)
    if not node_count:  # ell > m or ell > 2k: no witness, so no path
        return _report("inout-ell", start, None, 0)

    nodes = []  # (out_mask, in_mask), bit c - 1 for candidate c
    for union in combinations(range(m), ell):
        both = sum(1 << i for i in union)
        for jx in range(lo, cap + 1):
            for xs in combinations(union, jx):
                outgoing = sum(1 << i for i in xs)
                nodes.append((outgoing, both ^ outgoing))

    layers = [[(0, 0)], *[nodes] * (tau - 1), [(0, 0)]]

    def scan(t, reached, states):
        row = instance.counts[t - 1]
        order = _stage_order(row)

        def hosts(required, forbidden):
            return _greedy_fill(row, order, k, x, required, forbidden) is not None

        def linked(before, after):
            (out1, in1), (out2, in2) = before, after
            return before not in dead and not (out1 & out2 or in1 & in2) and hosts(
                in1 | out2, out1 | in2
            )

        prev = [layers[t - 1][i] for i in reached]
        # a witness stage t cannot host alone links to nothing: a miss over all of prev
        dead = {(out1, in1) for out1, in1 in prev if not hosts(in1, out1)}
        rows = [i for i, (out2, in2) in enumerate(layers[t]) if hosts(out2, in2)]
        states += (len(layers[t]) - len(rows)) * len(prev)
        if states > budget:
            _refuse("nodes and examined arcs", budget)
        hits, parents, states = _first_links(
            [layers[t][i] for i in rows], prev, linked, states, budget
        )
        return [rows[i] for i in hits], parents, states

    # every node counts once per change
    path, states = _path(layers, scan, len(nodes) * (tau - 1))
    witness = None
    if path is not None:
        pool = range(1, m + 1)
        witness = tuple(
            feasible_committee(instance, t, _decode(in1 | out2, pool), _decode(out1 | in2, pool))
            for t, ((out1, in1), (out2, in2)) in enumerate(zip(path, path[1:]), start=1)
        )
    return _report("inout-ell", start, witness, states)


# ---------------------------------------------------------------------------
# few stages: dynamic programming over per-stage profiles
# ---------------------------------------------------------------------------


def _unpack(packed, radii, mult):
    """Packed profile keys as a ``(packed.size, len(radii))`` int64 array."""
    out = packed[:, None] // mult
    out %= radii
    return out


def _expand(np, touched, room, packed, kept):
    """Keys of the ``kept`` (row, source) pairs, in that order.

    The key of pair ``(r, s)`` is ``packed[s] + touched[r] @ room[s]``.
    Blocks of whole table rows are multiplied at once, each of at most
    ``_CALL_ELEMENTS`` keys; when one row's sources exceed that, the row
    is split over several blocks. ``np`` is the numpy module, imported by
    the calling solver.
    """
    if touched.shape[0] * packed.size <= _CALL_ELEMENTS:  # one block
        return (touched @ room.T + packed)[kept]
    width = min(packed.size, _CALL_ELEMENTS)
    rows = max(1, _CALL_ELEMENTS // packed.size)
    keys = np.empty(np.count_nonzero(kept), dtype=np.int64)
    at = 0
    for lo in range(0, touched.shape[0], rows):
        for a in range(0, packed.size, width):
            block = touched[lo : lo + rows] @ room[a : a + width].T
            block += packed[a : a + width]
            ok = kept[lo : lo + rows, a : a + width].ravel()
            n = np.count_nonzero(ok)
            np.compress(ok, block.ravel(), out=keys[at : at + n])
            at += n
    return keys


def _first_of_each(np, keys):
    """The distinct ``keys``, ascending, and the position where each first occurs.

    ``np`` is the numpy module, imported by the calling solver.
    """
    order = keys.argsort()
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    runs = first.nonzero()[0]
    # the sort is not stable, so a run's first occurrence is its least position
    return keys[runs], np.minimum.reduceat(order, runs)


def _twin_rows(tau, s, k, dtop, conservative, cap):
    """The nonzero profile increments that ``s`` twins can add, or ``None``
    when there are more than ``cap``.

    Twins are candidates with equal count columns. A row is ``(sizes,
    changes)``: ``sizes[t]`` of the twins sit in stage ``t + 1``'s
    committee, and ``changes[t]`` of them in exactly one of stages ``t + 1``
    and ``t + 2``. Stages with ``a`` and ``b`` twins share between
    ``max(0, a + b - s)`` and ``min(a, b)`` of them, so their change has
    the parity of ``a + b`` and lies between ``|a - b|`` and ``min(a + b,
    2s - a - b)``, and each pair of stages can take any such change
    whatever the others take. Sizes go up to ``min(s, k)``; a conservative
    change above ``dtop = min(ell, 2k)`` is dropped, and a revolutionary
    one is clipped at ``dtop = ell``. Past ``s = k + ceil(dtop / 2)`` the
    rows no longer depend on ``s``.

    Rows ascend in ``(sizes[tau - 1], sizes[tau - 2], changes[tau - 2], ...,
    sizes[0], changes[0])``, stages from the last, each size followed by
    the change to the stage after it. A lone candidate's change follows
    from its sizes, so its rows ascend in its fingerprint, the stage
    bitmask of the committees it sits in. The rows are built in that
    order, one stage at a time from the last, and counted first, so that
    a table past ``cap`` is never listed. Before the count, a lower bound
    refuses what is far past ``cap`` at once: ``(top + 1) * r**(tau - 1) -
    1`` rows, with ``top = min(s, k)``. Every pair of stages takes at least
    one change when revolutionary, so there ``r = top + 1``; conservative,
    each size ``a`` has at least ``r = min(top, dtop) + 1`` sizes ``b``
    within ``dtop`` of it, each with at least one change.
    """
    top = min(s, k)
    r = min(top, dtop) + 1 if conservative else top + 1
    if (top + 1) * r ** (tau - 1) - 1 > cap:
        return None
    # span[a][b]: the changes of stages with a and b twins
    span = [[None] * (top + 1) for _ in range(top + 1)]
    for a in range(top + 1):
        for b in range(top + 1):
            most = min(a + b, 2 * s - a - b)
            if conservative:
                span[a][b] = range(abs(a - b), min(most, dtop) + 1, 2)
            else:
                span[a][b] = [*range(abs(a - b), min(most + 1, dtop), 2)] + [dtop] * (most >= dtop)
    # count[a]: the rows so far whose first stage has a twins
    count = [1] * (top + 1)
    for _ in range(tau - 1):
        count = [sum(count[b] * len(span[a][b]) for b in range(top + 1)) for a in range(top + 1)]
    if sum(count) - 1 > cap:
        return None
    rows = [((b,), ()) for b in range(top + 1)]
    for _ in range(tau - 1):
        rows = [
            ((a, *sizes), (d, *changes))
            for sizes, changes in rows
            for a in range(top + 1)
            for d in span[a][sizes[0]]
        ]
    return rows[1:]  # the first is the zero increment


def _twin_table(np, rows, tau, j, conservative):
    """The arrays with which one step takes :func:`_twin_rows`' ``rows``.

    Returns ``(touched, levels, values, guards, bits, clip)`` over
    levels: a level is a size ``1..j`` of one stage (``j = min(s, k)``),
    or a change ``1..d`` of one pair of stages, ``d`` the largest that
    occurs. Level ``l`` adds ``values[l]`` to profile column
    ``levels[l]``, and row ``r`` takes it when ``touched[r, l]`` is 1. A
    row takes at most one level per column, so its ``touched`` line gives
    the row back: column ``levels[l]`` holds ``values[l]`` for each level
    ``l`` it takes, and 0 elsewhere, the first ``tau`` columns the sizes
    and the rest the changes.

    * The sizes and conservative changes, the first ``p = bits.size``
      levels, are pruned: level ``l < p`` needs ``values[l]`` of room in
      profile column ``levels[l]``, and ``guards[r]`` has bit ``i`` set
      when row ``r`` takes the ``i``-th of them; ``bits`` holds these
      bits in the smallest type that fits them (Python ints past 64).
    * A level adds ``min(hi[l], room)`` of column ``clip[l]``, times
      ``scale[l]`` (that column's key multiplier), plus ``base[l]``. A
      change adds itself to its own column, and a size adds itself to its
      size column, in ``base``, and its clipped score to its score
      column. ``scale`` and ``base`` hold the key multipliers, and
      ``hi``'s first ``tau * j`` entries, the scores, are set per group,
      since they depend on the twins' counts; so :func:`solve_dp_tau`
      builds these three per solve from ``clip``, ``levels`` and
      ``values``.

    For one candidate there is one level per size and change column, so
    ``touched`` is the fingerprints' step table. These six arrays are all
    that :func:`_twins` keeps of a shape.
    """
    # level l adds values[l] to column levels[l]: per size column the sizes
    # 1..j, per change column the changes 1..d
    steps = np.array([sizes + changes for sizes, changes in rows], dtype=np.int64)
    steps = steps.reshape(len(rows), 2 * tau - 1)
    d = int(steps[:, tau:].max(initial=0))
    widths = [j] * tau + [d] * (tau - 1)
    levels = np.arange(2 * tau - 1).repeat(widths)
    values = np.array([v for w in widths for v in range(1, w + 1)], dtype=np.int64)
    touched = (steps[:, levels] == values).astype(np.int64)
    pruned = levels.size if conservative else tau * j
    bits = np.array([1 << i for i in range(pruned)], dtype=np.min_scalar_type((1 << pruned) - 1))
    guards = (touched[:, :pruned] @ bits).astype(bits.dtype)
    clip = np.where(levels < tau, levels + 2 * tau - 1, levels)
    return touched, levels, values, guards, bits, clip


def _twins(np, tau, s, k, dtop, conservative, cap):
    """``s`` twins' :func:`_twin_table`, or ``None`` when their rows number
    more than ``cap``.

    The table is kept by its shape in the process's one store
    (:func:`_kept`). A shape that is not kept is counted first and listed
    only when its count fits ``cap``; a count past ``cap`` gives ``None``,
    which is not kept. A kept table is returned whatever ``cap``, so the
    caller compares its rows with the cap.
    """

    def build():
        rows = _twin_rows(tau, s, k, dtop, conservative, cap)
        return None if rows is None else _twin_table(np, rows, tau, min(s, k), conservative)

    return _kept(("twins", tau, s, k, dtop, conservative), build)


def _profile_space(instance):
    """``(dtop, size)``: dp-tau's change top and the number of its profiles.

    A profile holds ``tau`` sizes in ``0..k``, ``tau - 1`` changes in
    ``0..dtop`` (``min(ell, 2k)`` conservative, ``ell`` revolutionary)
    and ``tau`` scores in ``0..x``. :func:`solve_dp_tau` refuses a space
    too large for 64-bit keys, and :data:`_SOLVERS` estimates dp-tau's
    states as the size times ``m``. Where :func:`solve_auto` ranks, a
    revolutionary ``ell`` is at most ``2k``, so both tops agree there.
    """
    k, tau = instance.k, instance.tau
    dtop = min(instance.ell, 2 * k) if instance.variant == CONSERVATIVE else instance.ell
    return dtop, (k + 1) ** tau * (dtop + 1) ** (tau - 1) * (instance.x + 1) ** tau


def solve_dp_tau(instance: Instance, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Dynamic programming over per-stage size/difference/score profiles.

    An instance that :func:`~mpvkit.core._hopeless` answers is a no
    before any search and before numpy is imported, with ``states`` 0
    and ``stats["stage"]`` naming the rule that fired: the first stage
    whose ``k`` largest counts sum below ``x``, or 0 for a revolutionary
    ``ell > 2k`` over at least two stages.

    Candidates are processed in groups of twins, candidates whose count
    columns are equal; for the conservative variant only those approved
    at least once (:func:`~mpvkit.core._approved`). A state records, for
    the partially built committees, every stage's current size, every
    consecutive pair's current symmetric difference (conservative: kept
    exact and pruned above ``ell``; revolutionary: clipped at ``ell``),
    and every stage's score clipped at ``x``. The instance is a yes iff
    some final state has every score clipped at ``x`` (and, revolutionary,
    every difference clipped at ``ell``).

    Groups go in the order of their least id, and members in ascending
    id. A group of ``s`` twins has a table of every nonzero increment
    ``s`` twins can add (:func:`_twin_rows`): sizes ``j_t`` up to
    ``min(s, k)``, changes ``d_t`` between ``|j_t - j_{t+1}|`` and
    ``min(j_t + j_{t+1}, 2s - j_t - j_{t+1})`` with the parity of ``j_t +
    j_{t+1}`` (conservative: dropped above ``min(ell, 2k)``; revolutionary:
    clipped at ``ell``), and the score steps ``j_t`` times the column's
    count. For one candidate the table is its fingerprints, the sets of
    stages whose committee will contain it. A group takes its table in
    one step over every seen state when the table has at most ``s *
    (2**tau - 1)`` rows and rows times seen states fit one
    ``_CALL_ELEMENTS`` block; otherwise its members step one at a time
    with the one-candidate table, the first over every seen state and
    each next one over the states its predecessor found new, since only
    those can lead anywhere new. The states reached do not depend on the
    order or grouping of the candidates: sizes, conservative differences
    and clipped scores only grow, so pruning and clipping the sum of a
    group's steps equals doing so step by step. So ``stats["states"]``,
    the answer and whether the budget runs out are those of one step per
    candidate.

    A table's arrays that do not depend on ``x`` are a function of its
    shape ``(tau, s, k, dtop, variant)``, with ``s`` the group size capped
    at ``k + ceil(dtop / 2)`` and ``dtop`` the change top above, so the
    process keeps them in its one store of tables (:func:`_twins`,
    :func:`_kept`), read-only, under the store's rule: the latest 64
    tables, while their arrays take at most 4 MiB together. The rows
    themselves are not kept. One candidate's tables at ``tau`` 9-12 (69
    kB to 0.75 MB of step-table entries) are kept like any other, and a
    table over 4 MiB is built per solve. The first solve of a shape
    builds its table, and every group still compares its table's row
    count with its cap before it steps at once. What depends
    on the key multipliers, and so on ``x``, is built per solve:
    :func:`_twin_table`'s ``scale`` and ``base``, and a fresh ``hi``, into
    which each group writes its scores.

    States are packed into int64 keys, and the seen keys are kept sorted.
    Each step expands its sources by every table row at once. A row takes
    one level of each size and change column it adds to, the value it
    adds there (:func:`_twin_table`); a size level also adds its score.
    A step's clipped value at a level is ``min(value, top - source)``,
    and a step is pruned when it takes a size or conservative change its
    source has no room for, tested as a bitmask. So a new key
    is its source's key plus one entry of a (row, source) matrix product,
    built in blocks of whole rows of at most ``_CALL_ELEMENTS`` keys (a
    row whose sources exceed that is split), and each block keeps only its
    unpruned pairs. The kept keys, in (row, parent) order, are sorted
    once; each run of equal keys keeps its least position, and
    ``np.searchsorted`` against the seen keys drops the old ones. So a
    state first reached by several rows of a step keeps the first row
    (for one candidate, the smallest fingerprint as a stage bitmask),
    then the smallest parent key, and the run is deterministic. Budget,
    checked first like every solver's, counts distinct states discovered;
    each step's new states are counted before they are stored.

    The witness is rebuilt from each step's row, read back from its
    ``touched`` line (:func:`_twin_table`): stage 1 takes the
    group's first ``j_1`` members, and stage ``t + 1`` keeps the first
    ``(j_t + j_{t+1} - d_t) / 2`` members of stage ``t`` and adds the
    first members not in stage ``t``. A revolutionary change at ``ell``
    may have been clipped, so it takes the largest change the twins
    allow, which is at least ``ell``. Witnesses of instances without
    twins are those of one step per candidate.
    """
    budget = _natural("budget", budget, 0)
    start = time.perf_counter()
    tau, k, m, x, ell = instance.tau, instance.k, instance.m, instance.x, instance.ell
    conservative = instance.variant == CONSERVATIVE

    stage = _hopeless(instance)
    if stage is not None:
        return _report("dp-tau", start, None, 0, stage=stage)

    # each profile entry's largest value: sizes, differences, scores
    dtop, capacity = _profile_space(instance)
    if capacity > 2**62:
        message = f"profile space of size {_figure(capacity)} cannot be packed into 64-bit keys"
        raise BudgetExceededError(message)
    import numpy as np

    top = np.array([k] * tau + [dtop] * (tau - 1) + [x] * tau, dtype=np.int64)
    radii = top + 1
    mult = np.cumprod(np.concatenate(([1], radii[:-1])))
    goal = [0] * tau + [0 if conservative else ell] * (tau - 1) + [x] * tau

    groups = {}  # count column: its twins, in id order
    cols = list(zip(*instance.counts))
    for c in _approved(instance.counts) if conservative else range(1, m + 1):
        groups.setdefault(cols[c], []).append(c)
    full, limit = (1 << tau) - 1, k + (dtop + 1) // 2  # one candidate's fingerprints
    # this solve's tables by group size; groups of more than limit twins share those of limit
    tables = {}

    def table(s, cap):
        # _twins' table, then this solve's scale, hi and base
        if s not in tables:
            if (shared := _twins(np, tau, s, k, dtop, conservative, cap)) is None:
                return None
            _, levels, values, _, _, clip = shared
            base = np.where(levels < tau, values * mult[levels], 0)
            tables[s] = (shared, mult[clip], values.copy(), base)
        return tables[s]

    seen = np.zeros(1, dtype=np.int64)  # packed key 0 is the empty profile
    layer_maps = []  # (members, new keys sorted, parent keys, row numbers, _twins' table)
    for col, group in groups.items():
        key = min(len(group), limit)
        cap = min(len(group) * full, _CALL_ELEMENTS // seen.size)
        got, steps = table(key, cap), [group]
        if got is None or got[0][0].shape[0] > cap:
            key, got, steps = 1, table(1, full), [[c] for c in group]
        (touched, levels, values, guards, bits, clip), scale, hi, base = got
        p = bits.size  # the first p levels, sizes and conservative changes, are pruned
        # size j of stage t scores min(j * count, x); clipping each count at
        # x first keeps big weights out of int64
        j = min(key, k)
        hi[: tau * j] = [min(i * min(v, x), x) for v in col for i in range(1, j + 1)]

        sources_packed = seen
        for members in steps:
            if sources_packed.size == 0:
                break
            room = top - _unpack(sources_packed, radii, mult)
            # a step is pruned when it takes a pruned level its source has no room for
            kept = (guards[:, None] & ((room[:, levels[:p]] < values[:p]) @ bits)) == 0
            # a level's clipped step is min(value, top - source), so every key
            # is its source's key plus one entry of a (row, source) product
            gain = np.minimum(room[:, clip], hi)
            gain *= scale
            gain += base
            keys, first = _first_of_each(np, _expand(np, touched, gain, sources_packed, kept))
            fresh = seen.take(seen.searchsorted(keys), mode="clip") != keys
            frontier = keys[fresh]
            if frontier.size:
                # checked before the new states are stored, which can take more
                # memory than the budget allows
                if seen.size + frontier.size > budget:
                    _refuse("profiles", budget, seen.size + frontier.size)
                # kept pairs ascend in (row, source) order, so the first
                # occurrence of a key is its first row, then smallest parent
                pairs = kept.ravel().nonzero()[0][first[fresh]]
                picked, parents = np.divmod(pairs, sources_packed.size)
                layer_maps.append((members, frontier, sources_packed[parents], picked, got[0]))
                # seen and frontier are sorted runs, which a stable sort merges
                seen = np.concatenate((seen, frontier))
                seen.sort(kind="stable")
            sources_packed = frontier

    hits = np.flatnonzero((_unpack(seen, radii, mult) >= goal).all(1))
    if hits.size == 0:
        return _report("dp-tau", start, None, int(seen.size))

    target = int(seen[hits[0]])
    committees = [set() for _ in range(tau)]
    for members, keys, parents, picked, (touched, levels, values, *_) in reversed(layer_maps):
        pos = int(np.searchsorted(keys, target))
        if pos < keys.size and keys[pos] == target:
            # the picked row, from its touched line: each level it takes sets its column
            on = touched[picked[pos]].nonzero()[0]
            step = [0] * (2 * tau - 1)
            for level, value in zip(levels[on].tolist(), values[on].tolist()):
                step[level] = value
            s, sizes, changes = len(members), step[:tau], step[tau:]
            stage = members[: sizes[0]]
            committees[0].update(stage)
            for t in range(1, tau):
                a, b, d = sizes[t - 1], sizes[t], changes[t - 1]
                if not conservative and d == ell:
                    d = min(a + b, 2 * s - a - b)  # maybe clipped: the largest the twins allow
                keep = (a + b - d) // 2
                stage = sorted(stage[:keep] + [c for c in members if c not in stage][: b - keep])
                committees[t].update(stage)
            target = int(parents[pos])
    assert target == 0
    witness = tuple(frozenset(s) for s in committees)
    return _report("dp-tau", start, witness, int(seen.size))


# ---------------------------------------------------------------------------
# portfolio routing
# ---------------------------------------------------------------------------


def solve_auto(instance: Instance, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Route to the estimated-cheapest applicable solver.

    Greedy decoupling is used whenever its precondition holds. Any other
    instance that :func:`~mpvkit.core._hopeless` answers without search,
    because some stage's ``k`` largest counts sum below ``x`` or a
    revolutionary ``ell > 2k`` spans at least two stages, goes to
    :func:`solve_dp_tau`, which answers it no with ``states`` 0 and the
    stage in ``stats["stage"]`` (0 for ``ell > 2k``). Otherwise every
    stage reaches ``x``, so ``x`` is at most the largest stage total, and
    the solvers that :data:`_SOLVERS` gives a crude state estimate for
    the instance are tried from the smallest estimate up, equal
    estimates in table order; a solver that raises
    :class:`BudgetExceededError` hands over to the next one. When every
    attempt fails the raised budget error names each attempt by its
    table key, with its estimate and its error. ``budget`` is checked
    first (:func:`~mpvkit.core._natural`), before any routing work, and
    then goes to every solver tried.
    """
    budget = _natural("budget", budget, 0)
    if _decoupled(instance):
        return solve_unconstrained(instance, budget)
    if _hopeless(instance) is not None:
        return solve_dp_tau(instance, budget=budget)

    costs = [(estimate(instance), name, solver) for name, (solver, estimate) in _SOLVERS.items()]
    ranked = sorted((c for c in costs if c[0] is not None), key=lambda c: c[0])  # stable
    failures = []
    for estimate, name, solver in ranked:
        try:
            return solver(instance, budget=budget)
        except BudgetExceededError as exc:
            failures.append(f"{name} (estimate {_figure(estimate)}): {exc}")
    raise BudgetExceededError("; ".join(failures))


def _unranked(instance):
    return None


# The one solver table: ``mpv solve --algorithm`` and ``mpv bench
# --algorithms`` name a solver by its key, and solve_auto ranks the rows
# whose estimate of the states an instance needs is not None, ties in
# this order. No committee holds more than m members, and in/out-ell has
# no witness when ell > m, hence min(k, m) and min(ell, m).
_SOLVERS = {
    "greedy": (solve_unconstrained, _unranked),
    "layered-k": (solve_layered_k, lambda i: i.tau * i.m ** min(i.k, i.m)),
    "dp-tau": (solve_dp_tau, lambda i: _profile_space(i)[1] * i.m),
    "inout-ell": (
        solve_inout_ell,
        lambda i: i.tau * i.m ** (2 * min(i.ell, i.m)) if i.variant == REVOLUTIONARY else None,
    ),
    "brute": (brute_force, lambda i: _committees(i.m, i.k) ** i.tau),
    "auto": (solve_auto, _unranked),
}
