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

import time
from itertools import combinations
from math import comb, prod

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
    _greedy_fill,
    _hopeless,
    _natural,
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
            raise BudgetExceededError(f"arc scan exceeded the budget of {budget}")
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
# at most k members, and scans arcs in Python while, in addition,
# consecutive layers hold at most this many committee pairs in all. On a
# 2-vCPU Xeon the Python scan (_first_links, with one call of its link
# test per pair) costs about 70 ns per pair examined and the enumeration
# about 0.6 us per committee listed, so the worst cases here are about
# 0.6 ms per scan and 5 ms per stage, against 155 ms or more for numpy's
# cold import.
SCAN_PYTHON_MAX = 1 << 13

# array elements one numpy call builds in the arc scan, in layered-k's
# numpy pass and in dp-tau's expansion, so temporaries stay bounded on
# large inputs
_CALL_ELEMENTS = 1 << 18


def _layer_array(np, masks, words):
    """Committee bitmasks as a ``(len(masks), words)`` uint64 array, low word first.

    ``np`` is the numpy module, imported by the calling solver.
    """
    if words == 1:
        return np.array(masks, dtype=np.uint64).reshape(-1, 1)
    out = np.empty((len(masks), words), dtype=np.uint64)
    for j in range(words):
        out[:, j] = [mask >> (64 * j) & 0xFFFF_FFFF_FFFF_FFFF for mask in masks]
    return out


def _feasible_layers(weights, top, k, x):
    """Every stage's :func:`~mpvkit.oracle._feasible_masks`, built in one numpy pass.

    ``weights`` is :func:`solve_layered_k`'s stage table, each stage's
    counts over the candidate pool, one list of ``n`` per stage, the rows
    that :func:`~mpvkit.oracle._feasible_masks` lists one at a time, and
    ``top`` is the largest sum of ``max(k, 1)`` of one stage's weights: at
    least one seat, so that no weight exceeds ``top`` either. The pass
    reads both and computes neither. Returns one ``(size, words)`` uint64
    array per stage, in the layout of :func:`_layer_array` and with the
    rows in :func:`~mpvkit.oracle._feasible_masks`'s order, or ``None``,
    before importing numpy, when no stage reaches ``x`` or the pass's
    int64 arithmetic could overflow.

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
    as digits ``position + 1`` in base ``n + 1``, most significant
    first and 0 past the last member, so one sort of the keys gives the
    stages in order, each in lexicographic order, a prefix first; the
    masks are read off the sorted keys' digits.

    ``None`` is returned when ``x > top``, so that every layer is empty,
    and unless ``tau * (n + 1)**k``, the keys' range, and ``tau * (top +
    2)``, the offset bounds' range, are below ``2**63``. A negative ``x``
    is clipped to 0, which keeps every committee's verdict. Each numpy
    call builds fewer than ``_CALL_ELEMENTS + n`` children.
    """
    n, tau = len(weights[0]), len(weights)
    k = min(k, n)
    span = (n + 1) ** k  # keys of one stage
    if x > top or tau * max(span, top + 2) >= 2**63:
        return None
    import numpy as np

    x = max(x, 0)
    weights = np.array(weights, dtype=np.int64)
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
    keys = np.sort(np.concatenate(keys))
    # bits[d]: the mask of position d - 1, and bits[0] no member
    words = max(1, -(-n // 64))
    bits = np.zeros((n + 1, words), dtype=np.uint64)
    pos = np.arange(n)
    bits[pos + 1, pos >> 6] = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    # each committee's mask from its key's digits, the last member first
    masks = np.zeros((keys.size, words), dtype=np.uint64)
    rest = keys % span
    for _ in range(k):
        rest, digit = np.divmod(rest, n + 1)
        masks |= bits[digit]
    return np.split(masks, keys.searchsorted(np.arange(1, tau) * span))


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
                raise BudgetExceededError(f"arc scan exceeded the budget of {budget}")
        pending = np.concatenate(missed)
        lo, width = hi, min(max(2 * width, 64), _CALL_ELEMENTS)
    return parents, states


def _parentless(np, layer, weights, k, ell, x):
    """Rows of ``layer`` that no committee scoring at least ``x`` under
    ``weights`` can precede in the conservative variant.

    Returns a boolean array over the rows. A parent ``b`` of a committee
    ``a`` of ``s`` members drops some ``r <= min(ell, s)`` of them and adds
    at most ``j(s) = max over r of min(ell - r, k - s + r)`` others, since
    ``|a ^ b| <= ell`` and ``|b| <= k``; that maximum is ``min(ell, k - s +
    min(ell, s), (ell + k - s) // 2)``. Weights are non-negative, so ``b``
    scores at most ``a``'s own score plus the sum ``T[j(s)]`` of the
    ``j(s)`` largest ``weights``, and a row where that falls below ``x``
    has no parent. Members are read off each word's value, lowest first,
    with negation, subtraction and popcount, which do not depend on byte
    order, in blocks of ``_CALL_ELEMENTS`` rows, so that every temporary
    holds at most that many entries. ``weights`` is the previous stage's
    row of :func:`solve_layered_k`'s stage table, a list over the
    pool (an int64 array works too), and the caller keeps every sum in
    int64. ``np`` is the numpy module, imported by the calling solver.
    """
    n, words = len(weights), layer.shape[1]
    k = min(k, n)
    # added[s]: T[j(s)], by committee size s
    tops = np.concatenate([[0], np.sort(weights)[::-1][:k].cumsum()])
    added = tops[[min(ell, k - s + min(ell, s), (ell + k - s) // 2) for s in range(k + 1)]]
    # table[w][i]: the weight of bit i of word w, and 0 at i = 64 for no member
    table = np.zeros((words, 65), dtype=np.int64)
    pos = np.arange(n)
    table[pos >> 6, pos & 63] = weights
    one = np.uint64(1)
    out = np.empty(len(layer), dtype=bool)
    for a in range(0, len(layer), _CALL_ELEMENTS):
        block = layer[a : a + _CALL_ELEMENTS]
        bound = added[np.bitwise_count(block).sum(axis=1, dtype=np.intp)]
        for w in range(words):
            mask = block[:, w]
            for _ in range(min(k, 64)):
                low = mask & -mask  # the lowest member, or 0
                bound += table[w][np.bitwise_count(low - one)]
                mask = mask ^ low
        out[a : a + _CALL_ELEMENTS] = bound < x
    return out


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

    The layers are enumerated in one of two ways, with the same committees
    in the same order: lexicographic in their sorted pool positions, a
    prefix first, which fixes the parents and so the witness.

    * When the pool has at most :data:`SCAN_PYTHON_MAX` committees of at
      most ``k`` members, stage by stage in plain Python
      (:func:`~mpvkit.oracle._feasible_masks`).
    * Above that, as uint64 arrays in one numpy pass over all stages
      (:func:`_feasible_layers`), whose scores and keys are int64. An
      instance where ``x`` exceeds ``top``, the largest top-``k`` stage
      sum, so that every layer is empty, or whose ``tau * (top + 2)`` or
      ``tau * (len(pool) + 1)**k`` does not fit int64 (such as one with
      weights of ``2**70``), is enumerated in plain Python instead, before
      numpy is imported.

    When the layers were enumerated in plain Python and consecutive layers
    hold at most :data:`SCAN_PYTHON_MAX` committee pairs in all (up to the
    first empty layer), the arcs are scanned in plain Python
    (:func:`_first_links`, linking committees whose symmetric difference
    respects ``ell``) and numpy is never imported; otherwise they are
    scanned with numpy (:func:`_scan_arcs`) and the witness is decoded
    from the arrays' rows. One scan function serves :func:`_path` on
    every path.
    Before a conservative numpy scan against more than 64 reachable
    committees, one scan block's width, a score bound rules out the
    committees that no feasible committee of the previous stage can
    precede (:func:`_parentless`): within ``ell``, a parent of a committee
    of ``s`` members adds at most ``j(s)`` others, so it scores at most
    the committee's own previous-stage score plus the previous stage's
    ``j(s)`` largest weights, which is sound because weights are
    non-negative. A committee ruled out is not scanned and counts as the
    full miss the scan would find. The bound's sums are int64 and the
    bound runs with ``1 <= x <= top``; it is skipped where ``tau * (top +
    2)`` does not fit. All paths return the same witness, states, layer
    sizes and budget errors.

    Both listings and the score bound read one stage table, built once per
    solve right after the up-front refusal: each stage's counts projected
    onto the pool, one list per stage. ``top`` is computed at most once
    per solve, and only where it is read: before the numpy pass, and
    before the first conservative numpy scan of Python-listed layers.

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
        raise BudgetExceededError(
            f"{node_bound} committees per layer over {instance.tau} stages "
            f"exceed the budget of {budget}"
        )
    # the stage table, read by both listings and the score bound; top, the
    # largest sum of k of one stage's, only where it is read
    weights = [[row[c] for c in pool] for row in instance.counts]
    top = layers = masks = None
    if node_bound > SCAN_PYTHON_MAX:
        top = max(sum(sorted(row, reverse=True)[: instance.k]) for row in weights)
        layers = _feasible_layers(weights, top, instance.k, instance.x)
    if layers is None:
        layers = masks = [_feasible_masks(row, instance.k, instance.x) for row in weights]
    layer_sizes = list(map(len, layers))
    pairs = 0
    for size, after in zip(layer_sizes, layer_sizes[1:]):
        if not size:
            break
        pairs += size * after
    in_python = masks is not None and pairs <= SCAN_PYTHON_MAX
    if in_python:
        # ok[d]: whether committees at symmetric difference d may follow each other
        ell = instance.ell
        ok = [d <= ell if conservative else d >= ell for d in range(len(pool) + 1)]
    else:
        import numpy as np

        if masks is not None:
            words = max(1, -(-len(pool) // 64))
            layers = [_layer_array(np, layer, words) for layer in masks]
        if conservative and top is None:
            top = max(sum(sorted(row, reverse=True)[: instance.k]) for row in weights)
        # the score bound's sums fit int64 where the numpy pass's guard on scores holds
        bounded = conservative and instance.tau * (top + 2) < 2**63

    def scan(t, reached, states):
        if in_python:
            prev = [layers[t - 1][i] for i in reached]
            linked = lambda b, a: ok[(a ^ b).bit_count()]
            return _first_links(layers[t], prev, linked, states, budget)
        prev = layers[0] if t == 1 else layers[t - 1][reached]
        rows = np.arange(len(layers[t]))
        if bounded and len(prev) > 64:
            # a committee the bound rules out is a miss over all of prev
            ruled_out = _parentless(
                np, layers[t], weights[t - 1], instance.k, instance.ell, instance.x
            )
            states += int(ruled_out.sum()) * len(prev)
            if states > budget:
                raise BudgetExceededError(f"arc scan exceeded the budget of {budget}")
            rows = np.flatnonzero(~ruled_out)
        parents, states = _scan_arcs(
            np, layers[t][rows], prev, conservative, instance.ell, states, budget
        )
        return rows[parents >= 0], parents[parents >= 0], states

    path, states = _path(layers, scan, sum(layer_sizes))
    if path is not None and not in_python:  # the array rows' words, low word first
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

    Budget, checked first like every solver's, counts nodes per change
    plus examined arcs, checked after each node's scan, as layered-k's.
    The up-front bound assumes every arc between middle layers is
    examined; it is what caps the node list's memory. Raises
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
    node_count = comb(m, ell) * sum(comb(ell, j) for j in range(lo, cap + 1))
    work_bound = node_count * (tau - 1) + node_count * node_count * max(0, tau - 2)
    if work_bound > budget:
        raise BudgetExceededError(
            f"{node_count} witness pairs per layer exceed the budget of {budget}"
        )

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

        def linked(before, after):
            (out1, in1), (out2, in2) = before, after
            return not (out1 & out2 or in1 & in2) and (
                _greedy_fill(row, order, k, x, in1 | out2, out1 | in2) is not None
            )

        prev = [layers[t - 1][i] for i in reached]
        return _first_links(layers[t], prev, linked, states, budget)

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
    a table past ``cap`` is never listed.
    """
    top = min(s, k)
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


def _twin_table(np, rows, tau, j, conservative, mult):
    """The arrays with which one step takes :func:`_twin_rows`' ``rows``.

    Returns ``(touched, guards, bits, at, need, clip, scale, hi, base)``
    over levels: a level is a size ``1..j`` of one stage (``j = min(s,
    k)``), or a change ``1..d`` of one pair of stages, ``d`` the largest
    that occurs. Row ``r`` takes level ``l`` when ``touched[r, l]`` is 1.

    * The sizes and conservative changes are pruned: a level needs
      ``need[l]`` of room in profile column ``at[l]``, and ``guards[r]``
      has bit ``i`` set when row ``r`` takes the ``i``-th of them;
      ``bits`` holds these bits in the smallest type that fits them
      (Python ints past 64).
    * A level adds ``min(hi[l], room)`` of column ``clip[l]``, times
      ``scale[l]`` (that column's key multiplier), plus ``base[l]``. A
      change adds itself to its own column, and a size adds itself to its
      size column, in ``base``, and its clipped score to its score
      column; ``hi``'s first ``tau * j`` entries, the scores, are set per
      group, since they depend on the twins' counts.

    For one candidate there is one level per size and change column, so
    ``touched`` is the fingerprints' step table.
    """
    # level l adds need[l] to column at[l]: per size column the sizes 1..j,
    # per change column the changes 1..d
    steps = np.array([sizes + changes for sizes, changes in rows], dtype=np.int64)
    steps = steps.reshape(len(rows), 2 * tau - 1)
    d = int(steps[:, tau:].max(initial=0))
    widths = [j] * tau + [d] * (tau - 1)
    at = np.arange(2 * tau - 1).repeat(widths)
    need = np.array([v for w in widths for v in range(1, w + 1)], dtype=np.int64)
    touched = (steps[:, at] == need).astype(np.int64)
    pruned = at.size if conservative else tau * j
    bits = np.array([1 << i for i in range(pruned)], dtype=np.min_scalar_type((1 << pruned) - 1))
    guards = (touched[:, :pruned] @ bits).astype(bits.dtype)
    clip = np.where(at < tau, at + 2 * tau - 1, at)
    base = np.where(at < tau, need * mult[at], 0)
    hi = need.copy()  # the size levels' scores are set per group
    return touched, guards, bits, at[:pruned], need[:pruned], clip, mult[clip], hi, base


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

    The witness is rebuilt from each step's row: stage 1 takes the
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
    dtop = min(ell, 2 * k) if conservative else ell
    top = [k] * tau + [dtop] * (tau - 1) + [x] * tau
    capacity = prod(v + 1 for v in top)
    if capacity > 2**62:
        raise BudgetExceededError(
            f"profile space of size {capacity} cannot be packed into 64-bit keys"
        )
    import numpy as np

    top = np.array(top, dtype=np.int64)
    radii = top + 1
    mult = np.cumprod(np.concatenate(([1], radii[:-1])))
    goal = [0] * tau + [0 if conservative else ell] * (tau - 1) + [x] * tau

    groups = {}  # count column: its twins, in id order
    cols = list(zip(*instance.counts))
    for c in _approved(instance.counts) if conservative else range(1, m + 1):
        groups.setdefault(cols[c], []).append(c)
    full, limit = (1 << tau) - 1, k + (dtop + 1) // 2  # one candidate's fingerprints
    # table rows by group size; groups of more than limit twins share those of limit
    rows_of, tables = {1: _twin_rows(tau, 1, k, dtop, conservative, full)}, {}

    seen = np.zeros(1, dtype=np.int64)  # packed key 0 is the empty profile
    layer_maps = []  # (members, new keys sorted, parent keys, row numbers, rows)
    for col, group in groups.items():
        key = min(len(group), limit)
        cap = min(len(group) * full, _CALL_ELEMENTS // seen.size)
        rows = rows_of.get(key) or _twin_rows(tau, key, k, dtop, conservative, cap)
        if rows is not None:
            rows_of[key] = rows
        if rows is None or len(rows) > cap:
            key, rows, steps = 1, rows_of[1], [[c] for c in group]
        else:
            steps = [group]
        if key not in tables:
            tables[key] = _twin_table(np, rows, tau, min(key, k), conservative, mult)
        touched, guards, bits, at, need, clip, scale, hi, base = tables[key]
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
            kept = (guards[:, None] & ((room[:, at] < need) @ bits)) == 0
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
                    raise BudgetExceededError(
                        f"{seen.size + frontier.size} profiles exceed the budget of {budget}"
                    )
                # kept pairs ascend in (row, source) order, so the first
                # occurrence of a key is its first row, then smallest parent
                pairs = kept.ravel().nonzero()[0][first[fresh]]
                picked, parents = np.divmod(pairs, sources_packed.size)
                layer_maps.append((members, frontier, sources_packed[parents], picked, rows))
                # seen and frontier are sorted runs, which a stable sort merges
                seen = np.concatenate((seen, frontier))
                seen.sort(kind="stable")
            sources_packed = frontier

    hits = np.flatnonzero((_unpack(seen, radii, mult) >= goal).all(1))
    if hits.size == 0:
        return _report("dp-tau", start, None, int(seen.size))

    target = int(seen[hits[0]])
    committees = [set() for _ in range(tau)]
    for members, keys, parents, picked, rows in reversed(layer_maps):
        pos = int(np.searchsorted(keys, target))
        if pos < keys.size and keys[pos] == target:
            s, (sizes, changes) = len(members), rows[picked[pos]]
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
    the candidates are ranked by crude state estimates (layered
    ``tau * m**k``, profile DP
    ``(k+1)**tau * (dcap+1)**(tau-1) * (x+1)**tau * m``, change witnesses
    ``tau * m**(2 ell)`` for the revolutionary variant, brute force as the
    last resort) and tried in that order; a solver that raises
    :class:`BudgetExceededError` hands over to the next one. When every
    attempt fails the raised budget error lists all estimates. ``budget``
    is checked first (:func:`~mpvkit.core._natural`), before any routing
    work, and then goes to every solver tried.
    """
    budget = _natural("budget", budget, 0)
    tau, k, m, x, ell = instance.tau, instance.k, instance.m, instance.x, instance.ell
    if _decoupled(instance):
        return solve_unconstrained(instance, budget)
    if _hopeless(instance) is not None:
        return solve_dp_tau(instance, budget=budget)

    dcap = min(ell, 2 * k)
    entries = [
        (tau * m**k, "layered-k", solve_layered_k),
        ((k + 1) ** tau * (dcap + 1) ** (tau - 1) * (x + 1) ** tau * m, "dp-tau", solve_dp_tau),
    ]
    if instance.variant == REVOLUTIONARY:
        entries.append((tau * m ** (2 * ell), "inout-ell", solve_inout_ell))
    entries.append((_committees(m, k) ** tau, "brute-force", brute_force))
    # stable: equal estimates keep the order above
    entries.sort(key=lambda e: e[0])

    failures = []
    for estimate, name, solver in entries:
        try:
            return solver(instance, budget=budget)
        except BudgetExceededError as exc:
            failures.append(f"{name} (estimate {estimate}): {exc}")
    raise BudgetExceededError("; ".join(failures))
