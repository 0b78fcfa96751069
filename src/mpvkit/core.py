"""Instance model and solution checking for multistage plurality voting.

An instance fixes a set of agents, a set of candidates, and a sequence of
voting stages. At every stage each agent approves exactly one candidate or
abstains. A solution is a sequence of committees, one per stage, where each
committee has at most ``k`` members and plurality score at least ``x``, and
the symmetric difference between consecutive committees is at most ``ell``
(conservative variant ``"C"``) or at least ``ell`` (revolutionary variant
``"R"``).

Conventions used throughout the package:

* candidates are numbered ``1..m``; ``0`` in a ballot means abstention,
* stages are numbered ``1..tau``,
* committees are ``frozenset`` objects, committee sequences are tuples of
  frozensets of length ``tau``,
* inside the searches a committee is an int mask over a candidate pool,
  where bit ``i`` stands for ``pool[i]``; :func:`_decode` is the only way
  back to a ``frozenset``, so witnesses and every public function keep
  frozensets.
"""

from __future__ import annotations

import operator
import time
from array import array
from collections.abc import Iterable
from itertools import chain

CONSERVATIVE = "C"
REVOLUTIONARY = "R"
VARIANTS = (CONSERVATIVE, REVOLUTIONARY)


class PreconditionError(ValueError):
    """An operation was invoked outside the parameter regime it supports."""


class BudgetExceededError(RuntimeError):
    """A search ran out of budget before producing an answer.

    This is deliberately distinct from a "no" answer: the question was not
    decided either way.
    """


# the ``budget`` default of every solver, brute force included; each
# counts it in its own unit (``SolveReport.stats["states"]``)
DEFAULT_BUDGET = 5 * 10**7


class _Record:
    """Base of mpvkit's records: ``repr`` and ``==`` over ``_fields``, as a
    dataclass spells them. They are plain classes, so
    ``dataclasses.fields``, ``replace`` and ``is_dataclass`` do not apply.

    A record's ``__init__`` has its public signature, checks and converts
    its arguments, and hands the field values, in ``_fields`` order, to
    this base ``__init__``.
    """

    _fields = ()

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()


class _Frozen(_Record):
    """A record whose attributes are set once, with ``object.__setattr__``,
    and which hashes like the tuple of its fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class TrivialVerdict(_Frozen):
    """A yes/no answer that was decided without building or solving anything."""

    _fields = ("answer", "reason")

    def __init__(self, answer: bool, reason: str):
        super().__init__(answer, reason)


class SolveReport(_Record):
    """Outcome of a solver run.

    Attributes
    ----------
    answer : bool
        Whether a valid committee sequence exists.
    witness : tuple of frozenset or None
        A valid committee sequence if ``answer`` is true and the solver
        produced one. Always passes :func:`verify`.
    algorithm : str
        Name of the algorithm that produced the answer.
    stats : dict
        Counters; always contains ``"states"`` (search effort in
        algorithm-specific units) and ``"time_ms"``.

    Reports compare by their fields and are not hashable.
    """

    _fields = ("answer", "witness", "algorithm", "stats")

    def __init__(self, answer: bool, witness: tuple | None, algorithm: str, stats: dict):
        super().__init__(answer, witness, algorithm, stats)


def _report(algorithm, start, witness, states, **extra) -> SolveReport:
    """The report of a solver run that began at ``time.perf_counter()`` ``start``.

    The answer is yes iff ``witness`` is not ``None``. ``stats`` holds
    ``states``, the elapsed ``time_ms`` and the ``extra`` counters.
    """
    time_ms = (time.perf_counter() - start) * 1000.0
    return SolveReport(
        answer=witness is not None,
        witness=witness,
        algorithm=algorithm,
        stats={"states": states, "time_ms": time_ms, **extra},
    )


def _integer(value):
    """``value`` as an ``int``, or None if it is not a number's integer.

    ``bool`` is an int subclass but never a size or a weight, so it is
    refused; numpy integers and anything else ``operator.index`` takes
    are fine. Its callers are :func:`_natural`, which every bounded
    integer argument goes through, and the two checks of integer rows:
    :class:`WeightedInstance`'s weights and
    :func:`~mpvkit.kernel.shrink_weights`' signed weights.
    """
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _natural(name, value, low):
    """``value`` as an ``int``, if it is an integer (:func:`_integer`) >= ``low``.

    This is the one rule of every integer argument with a lower bound:
    instance parameters, graph sizes and vertex ids, generator sizes,
    ``limit``, ``N`` and every solver's ``budget``. Anything else raises
    ``ValueError(f"{name} must be a positive integer, got {value!r}")``
    for ``low`` 1, with "a non-negative integer" for ``low`` 0 and "an
    integer >= low" above 1.
    """
    number = _integer(value)
    if number is None or number < low:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(low)
        raise ValueError(f"{name} must be {kind or f'an integer >= {low}'}, got {value!r}")
    return number


def _check_parameters(instance, variant, m, k, ell, x):
    """Validate and store the parameters every instance shares."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    object.__setattr__(instance, "variant", variant)
    for name, value, low in (("m", m, 1), ("k", k, 1), ("ell", ell, 0), ("x", x, 1)):
        object.__setattr__(instance, name, _natural(name, value, low))


# Ballot profiles with at most this many entries (stages x agents) are
# counted in plain Python. On a 2-vCPU Xeon, importing numpy costs about as
# much as counting 10**6 entries that way, and in a warm process numpy only
# wins above about 64 entries, so this caps the cost of staying in Python
# at about 0.4 ms per tally.
TALLY_PYTHON_MAX = 4096


def _tally(ballots, m):
    """Check ballot rows and count every stage's approvals.

    All rows are joined into one flat buffer. When ``m < 256`` and every
    row has the same length, ``bytes`` checks each row in one C pass: like
    ``array("q")`` it refuses floats, strings and ``None`` and takes
    ``bool`` and numpy integers, and it also refuses entries outside
    0..255. Otherwise, or if ``bytes`` refuses an entry, every row is
    copied into one ``array("q")``, whose loop reports the error, so both
    buffers raise the same errors. Every entry must lie in ``0..m``.
    Profiles with at most :data:`TALLY_PYTHON_MAX` entries are then
    counted in plain Python; larger ones import numpy and count all stages
    with one ``bincount``. Every path returns the same ``(rows, counts)``.
    """
    rows = tuple(tuple(row) for row in ballots)
    if not rows:
        raise ValueError("an instance needs at least one stage")
    tau, n = len(rows), len(rows[0])
    flat = None
    if m < 256 and all(len(row) == n for row in rows):
        try:
            flat = b"".join(map(bytes, rows))
        except (TypeError, ValueError):
            pass  # an entry outside 0..255 or not an integer: report it below
    if flat is None:
        flat = array("q")
        for t, row in enumerate(rows, start=1):
            if len(row) != n:
                raise ValueError(f"stage {t} has {len(row)} ballots, expected {n}")
            try:
                # unlike a numpy conversion, array refuses floats and strings
                flat += array("q", row)
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"stage {t}: ballot entries must be integers: {exc}") from None
    width = m + 1
    if len(flat) <= TALLY_PYTHON_MAX:
        if n and (min(flat) < 0 or max(flat) > m):
            _out_of_range(rows, flat, m)
        counts = []
        for t in range(tau):
            row = [0] * width
            for entry in flat[t * n : (t + 1) * n]:
                row[entry] += 1
            row[0] = 0
            counts.append(tuple(row))
        return rows, tuple(counts)
    import numpy as np

    dtype = np.uint8 if isinstance(flat, bytes) else np.int64
    entries = np.frombuffer(flat, dtype=dtype).reshape(tau, n)
    if entries.min() < 0 or entries.max() > m:
        _out_of_range(rows, flat, m)
    entries = entries + np.arange(0, tau * width, width)[:, None]  # stage t counts at t * width
    counts = np.bincount(entries.ravel(), minlength=tau * width).reshape(tau, width)
    counts[:, 0] = 0
    return rows, tuple(map(tuple, counts.tolist()))


def _out_of_range(rows, flat, m):
    """Raise the error for the first ballot entry outside ``0..m``."""
    i = next(i for i, entry in enumerate(flat) if not 0 <= entry <= m)
    t, j = divmod(i, len(rows[0]))
    raise ValueError(f"stage {t + 1}: ballot entry {rows[t][j]!r} outside 0..{m}")


def _spell(counts, n):
    """The canonical ballots of ``counts`` over ``n`` agents.

    At every stage agents ``1..total`` approve the candidates in id order,
    each as often as its count, and the other agents abstain. When
    ``m < 256`` (at most 256 slots per row, as in :func:`_tally`) a row is
    spelled as ``bytes``, one run per candidate, and converted to a tuple
    of ints in one C pass; larger rows are spelled as tuples.
    """
    rows = []
    for row in counts:
        if len(row) <= 256:
            spelled = b"".join([bytes((c,)) * count for c, count in enumerate(row) if count])
            rows.append(tuple(spelled + bytes(n - len(spelled))))
        else:
            runs = [(c,) * count for c, count in enumerate(row) if count]
            spelled = tuple(chain.from_iterable(runs))
            rows.append(spelled + (0,) * (n - len(spelled)))
    return tuple(rows)


class Instance(_Frozen):
    """One conservative or revolutionary multistage plurality voting instance.

    Parameters
    ----------
    variant : str
        ``"C"`` (consecutive committees differ by at most ``ell``) or
        ``"R"`` (they differ by at least ``ell``).
    m : int
        Number of candidates, ids ``1..m``.
    ballots : tuple of tuples
        ``ballots[t-1][j]`` is the candidate approved by agent ``j+1`` at
        stage ``t``, or ``0`` for abstention. The outer length is the number
        of stages, every inner tuple has one entry per agent. An entry is
        anything ``operator.index`` accepts: Python's ``bool`` is an
        ``int``, so ``True`` is candidate 1, while numpy's bool has no
        ``__index__`` and is refused like a float.
    k : int
        Committee size bound.
    ell : int
        Symmetric-difference bound between consecutive committees.
    x : int
        Plurality score threshold per stage.

    ``m``, ``k``, ``ell`` and ``x`` accept any integer type except
    ``bool`` and are stored as ``int``. ``counts[t-1][c]`` is the score
    candidate ``c`` contributes at stage ``t`` (index ``0`` of each row
    is unused and 0); it is the only data that scoring, checking, the
    solvers and :func:`~mpvkit.kernel.kernel_mtau` read, so they all
    accept a :class:`WeightedInstance` as well. ``tau`` is the number of
    stages.

    An instance stores ``counts`` and ``n``, the number of agents. It
    keeps given ballots only: those passed to this constructor, those of
    a file's ``profile`` rows, and those of
    :func:`~mpvkit.reductions.random_instance`. The clique gadget, the
    normalizations, the lifts, the AND-compositions and the n-tau
    kernels build their outputs from counts and never tally or spell
    ballots, and so does :func:`~mpvkit.formats.parse_instance` for a
    file's ``weights`` rows under an ``agents`` line. The ballots of
    such an instance are the canonical spelling of its counts: at every
    stage agents ``1..total`` approve the candidates in id order, each
    as often as its count, and the rest abstain. They are spelled when
    ``ballots`` is first read and cached apart from given ballots, so
    the instance still counts as built from counts:
    :func:`~mpvkit.formats.emit_instance` writes its counts, not its
    ballots.

    ``ballots`` and ``n`` exist only for ballot instances; on a weighted
    instance they raise :class:`PreconditionError`, and so does every
    operation that needs agents: the n-tau kernels, the lifts and
    normalizations, and the AND-compositions.

    Two instances are equal when they have the same class, parameters,
    ``counts`` and ``n``, and the same ballots. Two instances built from
    counts have the same spelling when their counts agree, so they
    compare without spelling; against given ballots, a side built from
    counts spells its ballots. The hash is computed from the parameters,
    ``n`` and ``counts``, so it never spells ballots.
    """

    _fields = ("variant", "m", "k", "ell", "x", "counts")
    # set by the constructors that have them; a weighted instance has neither
    _n = None
    _ballots = None  # given ballots only; None marks an instance built from counts
    _spelled = None  # the spelling of counts, once read

    def __init__(self, variant, m, ballots, k, ell, x):
        _check_parameters(self, variant, m, k, ell, x)
        rows, counts = _tally(ballots, self.m)
        object.__setattr__(self, "_ballots", rows)
        object.__setattr__(self, "_n", len(rows[0]))
        object.__setattr__(self, "counts", counts)

    @classmethod
    def _of_counts(cls, variant, m, counts, n, k, ell, x):
        """The instance of ``counts`` over ``n`` agents, built with no tally.

        ``counts`` holds one row per stage with slot 0 unused and 0, as
        the reductions and kernels build them; the rows are trusted and
        kept as given. ``n=None`` gives an instance without agents, which
        callers build as a :class:`WeightedInstance`. No ballots are
        stored: ``ballots`` spells them from the counts on first read.
        """
        instance = object.__new__(cls)
        _check_parameters(instance, variant, m, k, ell, x)
        counts = tuple(map(tuple, counts))
        if n is not None:
            total = max(map(sum, counts))
            assert total <= n, f"a stage total of {total} exceeds n={n}"
        object.__setattr__(instance, "_n", n)
        object.__setattr__(instance, "counts", counts)
        return instance

    def _parameters(self):
        return (self.variant, self.m, self.k, self.ell, self.x, self._n, self.counts)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        canonical = self._ballots is None and other._ballots is None
        return self._parameters() == other._parameters() and (
            self._n is None or canonical or self.ballots == other.ballots
        )

    def __hash__(self):
        return hash(self._parameters())

    @property
    def ballots(self) -> tuple:
        if self._ballots is not None:
            return self._ballots
        if self._spelled is None:
            object.__setattr__(self, "_spelled", _spell(self.counts, self.n))
        return self._spelled

    @property
    def n(self) -> int:
        if self._n is None:
            raise PreconditionError(
                "a weighted instance has scores but no agents or ballots"
            )
        return self._n

    @property
    def tau(self) -> int:
        return len(self.counts)


class WeightedInstance(Instance):
    """Multistage plurality voting with per-stage candidate weights.

    Replaces the agent/ballot layer of :class:`Instance` with explicit
    non-negative integer scores: ``weights[t-1][c]`` is the score candidate
    ``c`` contributes at stage ``t`` (index ``0`` of each row is unused and
    must be 0). Weights may be arbitrarily large integers of any type
    except ``bool`` and are stored as ``int``. The rows are the instance's
    ``counts``.
    """

    def __init__(self, variant, m, weights, k, ell, x):
        _check_parameters(self, variant, m, k, ell, x)
        rows = []
        for t, row in enumerate(weights, start=1):
            row = tuple(row)
            if len(row) != self.m + 1:
                raise ValueError(
                    f"stage {t}: weight row has {len(row)} entries, expected m+1={self.m + 1}"
                )
            if row[0] != 0:
                raise ValueError(f"stage {t}: weight slot 0 is reserved and must be 0")
            numbers = tuple(map(_integer, row))
            if None in numbers or min(numbers) < 0:
                c = next(c for c, w in enumerate(numbers) if w is None or w < 0)
                raise ValueError(
                    f"stage {t}: weight for candidate {c} must be a non-negative "
                    f"integer, got {row[c]!r}"
                )
            rows.append(numbers)
        if not rows:
            raise ValueError("an instance needs at least one stage")
        object.__setattr__(self, "counts", tuple(rows))

    @property
    def weights(self) -> tuple:
        return self.counts


# ---------------------------------------------------------------------------
# scoring and checking
# ---------------------------------------------------------------------------


def _check_id(kind, value, high):
    """``value`` as an ``int``, if it is an integer (numpy's too) in ``1..high``.

    Anything else raises ``ValueError``.
    """
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{kind} must be an integer, got {value!r}") from None
    if not 1 <= number <= high:
        raise ValueError(f"{kind} {value!r} outside 1..{high}")
    return number


def _sequence(instance, committees):
    """``committees`` as a tuple of frozensets, one per stage of ``instance``.

    This is the structural check of a solution, shared by :func:`verify`
    and every map that reads one. A committee count other than ``tau``
    raises ``ValueError``, and so does a member that is not a candidate id
    in ``1..m`` (:func:`_check_id`), in that order. The members are kept as
    given, so a numpy integer stays one.
    """
    seq = tuple(map(frozenset, committees))
    if len(seq) != instance.tau:
        raise ValueError(f"solution has {len(seq)} committees, instance has {instance.tau} stages")
    for committee in seq:
        for c in committee:
            _check_id("candidate", c, instance.m)
    return seq


def score(instance: Instance, t: int, committee: Iterable[int]) -> int:
    """Plurality score of ``committee`` at stage ``t``.

    The score is the sum of the members' stage-``t`` counts; for ballots,
    that is the number of agents whose approval lands in the committee.
    Raises ``ValueError`` for a stage or candidate id out of range.
    """
    _check_id("stage", t, instance.tau)
    row = instance.counts[t - 1]
    return sum(row[_check_id("candidate", c, instance.m)] for c in frozenset(committee))


def symdiff_size(a: Iterable[int], b: Iterable[int]) -> int:
    """Size of the symmetric difference of two committees."""
    return len(frozenset(a) ^ frozenset(b))


def verify(instance: Instance, committees) -> list:
    """Check a committee sequence against every constraint of ``instance``.

    Returns a list of human-readable violation strings, empty when the
    sequence is a valid solution. Structural problems (wrong number of
    stages, candidate ids out of range) raise ``ValueError`` from
    :func:`_sequence` instead of being reported as violations.
    """
    seq = _sequence(instance, committees)
    violations = []
    for t, (committee, row) in enumerate(zip(seq, instance.counts), start=1):
        if len(committee) > instance.k:
            violations.append(
                f"stage {t}: committee size {len(committee)} exceeds k={instance.k}"
            )
        s = sum(row[c] for c in committee)  # ids were checked above
        if s < instance.x:
            violations.append(f"stage {t}: score {s} is below x={instance.x}")
    for t in range(1, instance.tau):
        d = len(seq[t - 1] ^ seq[t])
        if instance.variant == CONSERVATIVE and d > instance.ell:
            violations.append(
                f"stages {t}/{t + 1}: symmetric difference {d} exceeds ell={instance.ell}"
            )
        if instance.variant == REVOLUTIONARY and d < instance.ell:
            violations.append(
                f"stages {t}/{t + 1}: symmetric difference {d} is below ell={instance.ell}"
            )
    return violations


def feasible_committee(
    instance: Instance,
    t: int,
    required: Iterable[int] = (),
    forbidden: Iterable[int] = (),
) -> frozenset | None:
    """Find a stage-``t`` committee through ``required`` avoiding ``forbidden``.

    Greedy: start from ``required`` and add the remaining allowed candidates
    in order of decreasing stage-``t`` approval count (ties broken towards
    the lower id) until the committee has ``k`` members or candidates run
    out. Returns the committee if its score reaches ``x``, else ``None``.
    ``None`` is also returned when ``required`` alone is larger than ``k``.
    Overlapping ``required`` and ``forbidden`` sets raise ``ValueError``.

    Because scores are non-negative and monotone under adding candidates,
    a valid committee with the given inclusions/exclusions exists if and
    only if the greedy one is valid.
    """
    _check_id("stage", t, instance.tau)
    required, forbidden = frozenset(required), frozenset(forbidden)
    # masks with bit c - 1 for candidate c, built from the checked ids as plain
    # ints (1 << np.int64(70) overflows); a loop costs nothing on an empty set
    inside = outside = 0
    for c in required:
        inside |= 1 << _check_id("candidate", c, instance.m) - 1
    for c in forbidden:
        outside |= 1 << _check_id("candidate", c, instance.m) - 1
    if inside & outside:
        raise ValueError(f"required and forbidden overlap: {sorted(required & forbidden)}")
    row = instance.counts[t - 1]
    added = _greedy_fill(row, _stage_order(row), instance.k, instance.x, inside, outside)
    return None if added is None else required | frozenset(added)


def _decode(mask, pool):
    """The committee of ``pool`` members whose positions are set in ``mask``."""
    members = []
    while mask:
        low = mask & -mask
        members.append(pool[low.bit_length() - 1])
        mask ^= low
    return frozenset(members)


def _approved(counts):
    """The candidates that some stage's ``counts`` approve, in id order.

    Dropping the others, the never-approved candidates, from a solution
    keeps every score and shrinks sizes and symmetric differences, so a
    conservative instance has a solution iff it has one among these.
    Layered-k and dp-tau search conservative instances over them, and
    the n-tau kernels keep them. The scan builds one tuple per candidate
    column; a ``compress`` scan of the nonzero slots of each row is
    faster on wide, sparse counts and slower on tall, dense ones, so
    measure both before swapping them.
    """
    return [c for c, column in enumerate(zip(*counts)) if c and any(column)]


def _stage_order(row):
    """Candidate ids by decreasing stage score, ties broken towards the lower id."""
    # sorted stays stable under reverse=True, so equal counts keep id order
    return sorted(range(1, len(row)), key=row.__getitem__, reverse=True)


def _greedy_fill(row, order, k, x, required, forbidden):
    """The greedy step of :func:`feasible_committee` on a precomputed ``order``.

    ``required`` and ``forbidden`` are int masks over the candidates
    ``1..m``: bit ``c - 1`` stands for candidate ``c``. They are assumed
    disjoint and in range. Returns the list of candidates added to
    ``required``, in ``order`` and skipping both masks, until the
    committee has ``k`` members or ``order`` runs out; or ``None`` when
    ``required`` alone has more than ``k`` members or the committee's
    score misses ``x``. It builds no ``frozenset``.
    """
    room = k - required.bit_count()  # negative when required alone is too large
    taken = required | forbidden
    added, total = [], 0
    while required:  # the score of required, one lowest bit at a time
        low = required & -required
        total += row[low.bit_length()]
        required ^= low
    for c in order:
        if len(added) >= room:
            break
        if not taken >> c - 1 & 1:
            added.append(c)
            total += row[c]
    return added if room >= 0 and total >= x else None


def _committees(n, k):
    """The number of committees of at most ``k`` members drawn from ``n``
    candidates, the empty one included; 0 when ``k`` is negative.

    The sum of ``comb(n, j)`` for ``j <= min(k, n)``, each term computed
    from the one before, so the sum takes ``min(k, n)`` steps.
    """
    top = min(k, n)
    if top < 0:
        return 0
    total = term = 1
    for j in range(1, top + 1):
        term = term * (n - j + 1) // j  # comb(n, j) from comb(n, j - 1)
        total += term
    return total


def _change_out_of_reach(instance) -> bool:
    """Whether a revolutionary instance is a no because ``ell > 2k``.

    Consecutive committees of size at most ``k`` never differ by more
    than ``2k`` candidates. A single stage has no consecutive pair, so
    the rule needs at least two.
    """
    return (
        instance.variant == REVOLUTIONARY and instance.tau >= 2 and instance.ell > 2 * instance.k
    )


def _hopeless(instance):
    """Why ``instance`` is a no without any search, or ``None``.

    A score is a sum of per-candidate counts, so a stage whose ``k``
    largest counts sum below ``x`` has no feasible committee: the first
    such stage is returned (counting from 1). Otherwise 0 is returned
    when :func:`_change_out_of_reach` holds, and ``None`` when neither
    rule fires. Slot 0 of a count row is 0, so it never lifts a top-``k``
    sum.
    """
    k, x = instance.k, instance.x
    for t, row in enumerate(instance.counts, start=1):
        if sum(sorted(row, reverse=True)[:k]) < x:
            return t
    return 0 if _change_out_of_reach(instance) else None
