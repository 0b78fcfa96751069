"""Plain-text file formats for instances, solutions, and graphs.

All three formats are line oriented with a fixed directive order, so
``parse(emit(obj))`` reproduces ``obj`` exactly and emitted files are
byte-stable. Parsers reject unknown directives, out-of-order lines, and
out-of-range values with the offending line number; that includes a
``candidates`` count above :data:`MAX_CANDIDATES` and ``stages`` that
would make more than :data:`MAX_COUNTS` counts.

Instance files::

    mpv 1
    variant C
    agents 2
    candidates 3
    stages 3
    k 1
    ell 2
    x 1
    profile 1: 1 1
    profile 2: 2 2
    profile 3: 1 3

An instance built from given ballots writes them as ``profile`` rows.
An instance built from counts (reductions, lifts, AND-compositions,
n-tau kernels) keeps its ``agents`` line but writes one ``weights t:
c_1 .. c_m`` row of approval counts per stage instead, so its file
stands for any number of agents; read back, it is again an instance
built from counts, and each row must sum to at most the ``agents``
value. Weighted files have the same ``weights`` rows
(arbitrary-precision integers) and no ``agents`` line.

Solution files are ``stage t: id id ..`` lines; graph files are ``graph
nv ne`` followed by ``ne`` edge lines and an optional ``parts q``
section.
"""

from __future__ import annotations

from operator import index

from .core import Instance, WeightedInstance


# An instance holds (m + 1) * stages counts however few ballots its file
# lists, so huge ``candidates`` or ``stages`` lines would exhaust memory.
MAX_CANDIDATES = 100_000
MAX_COUNTS = 10**7


class FormatError(ValueError):
    """Malformed input text; knows the 1-based line it choked on."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _int_field(line_no, name, token, minimum=None):
    try:
        value = int(token)
    except ValueError:
        raise FormatError(line_no, f"{name} must be an integer, got {token!r}") from None
    if minimum is not None and value < minimum:
        raise FormatError(line_no, f"{name} must be at least {minimum}, got {value}")
    return value


def _directive(lines, idx, name, minimum=None):
    if idx >= len(lines):
        raise FormatError(len(lines) + 1, f"missing '{name}' line")
    parts = lines[idx].split()
    if len(parts) != 2 or parts[0] != name:
        raise FormatError(idx + 1, f"expected '{name} <value>', got {lines[idx]!r}")
    return _int_field(idx + 1, name, parts[1], minimum)


def _tagged_row(lines, idx, tag):
    """Split a 'tag t: a b c' line into integer entries.

    Every token goes through ``int`` in one pass, so ``01``, ``+2`` and
    ``1_0`` are read too; if ``int`` refuses one, the per-token loop
    names the line of the first bad token.
    """
    if idx >= len(lines):
        raise FormatError(len(lines) + 1, f"missing '{tag}' line")
    head, sep, rest = lines[idx].partition(":")
    if not sep or head != tag:
        raise FormatError(idx + 1, f"expected '{tag}: ...', got {lines[idx]!r}")
    tokens = rest.split()
    try:
        return list(map(int, tokens))
    except ValueError:
        return [_int_field(idx + 1, "entry", tok) for tok in tokens]


def _spelled(tag, rows):
    """One 'tag t: a b c' line per row, every entry written with ``%d``,
    so ``bool`` and numpy integers are written as integers."""
    return [f"{tag} {t}:" + " %d" * len(row) % tuple(row) for t, row in enumerate(rows, start=1)]


def _no_trailing(lines, idx):
    if idx < len(lines):
        raise FormatError(idx + 1, f"unexpected trailing line {lines[idx]!r}")


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def _check_emittable(m, tau):
    """Raise ``ValueError`` unless a file of ``m`` candidates and ``tau``
    stages stays within :data:`MAX_CANDIDATES` and :data:`MAX_COUNTS`."""
    if m > MAX_CANDIDATES:
        raise ValueError(
            f"cannot emit {m} candidates: files hold at most MAX_CANDIDATES={MAX_CANDIDATES}"
        )
    if (m + 1) * tau > MAX_COUNTS:
        raise ValueError(
            f"cannot emit {tau} stages of {m} candidates: files hold at most "
            f"MAX_COUNTS={MAX_COUNTS} counts"
        )


def emit_instance(instance) -> str:
    """Serialize an Instance or WeightedInstance to canonical text.

    Raises ``ValueError`` for an instance that :func:`parse_instance`
    would refuse: more than :data:`MAX_CANDIDATES` candidates, or more
    than :data:`MAX_COUNTS` counts.
    """
    _check_emittable(instance.m, instance.tau)
    lines = ["mpv 1", f"variant {instance.variant}"]
    if instance._n is not None:
        lines.append(f"agents {instance._n}")
    lines.append(f"candidates {instance.m}")
    lines.append(f"stages {instance.tau}")
    lines.append(f"k {instance.k}")
    lines.append(f"ell {instance.ell}")
    lines.append(f"x {instance.x}")
    if instance._ballots is None:  # built from counts, weighted or not
        lines += _spelled("weights", (row[1:] for row in instance.counts))
    else:
        lines += _spelled("profile", instance._ballots)
    return "\n".join(lines) + "\n"


def parse_instance(text: str):
    """Parse instance text; returns Instance or WeightedInstance.

    ``profile`` rows give an instance with those ballots, ``weights``
    rows under an ``agents`` line one built from counts, and ``weights``
    rows without it a weighted instance.
    """
    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty input")
    if lines[0].split() != ["mpv", "1"]:
        raise FormatError(1, f"expected 'mpv 1' header, got {lines[0]!r}")
    variant_parts = lines[1].split() if len(lines) > 1 else []
    if len(variant_parts) != 2 or variant_parts[0] != "variant":
        raise FormatError(2, "expected 'variant C' or 'variant R'")
    variant = variant_parts[1]
    if variant not in ("C", "R"):
        raise FormatError(2, f"variant must be C or R, got {variant!r}")
    idx = 2
    n = None
    if idx < len(lines) and lines[idx].startswith("agents"):
        n = _directive(lines, idx, "agents", minimum=0)
        idx += 1
    m = _directive(lines, idx, "candidates", minimum=1)
    if m > MAX_CANDIDATES:
        raise FormatError(idx + 1, f"candidates must be at most {MAX_CANDIDATES}, got {m}")
    tau = _directive(lines, idx + 1, "stages", minimum=1)
    if (m + 1) * tau > MAX_COUNTS:
        raise FormatError(idx + 2, f"{tau} stages of {m} candidates exceed {MAX_COUNTS} counts")
    k = _directive(lines, idx + 2, "k", minimum=1)
    ell = _directive(lines, idx + 3, "ell", minimum=0)
    x = _directive(lines, idx + 4, "x", minimum=1)
    idx += 5
    if n is None or idx < len(lines) and lines[idx].startswith("weights"):
        counts = []
        for t in range(1, tau + 1):
            row = _tagged_row(lines, idx, f"weights {t}")
            if len(row) != m:
                raise FormatError(idx + 1, f"expected {m} weights, got {len(row)}")
            if min(row) < 0:
                w = next(w for w in row if w < 0)
                raise FormatError(idx + 1, f"negative weight {w}")
            if n is not None and sum(row) > n:
                raise FormatError(idx + 1, f"{sum(row)} approvals exceed {n} agents")
            counts.append((0,) + tuple(row))
            idx += 1
        _no_trailing(lines, idx)
        kind = WeightedInstance if n is None else Instance
        return kind._of_counts(variant, m, counts, n, k, ell, x)
    ballots = []
    for t in range(1, tau + 1):
        row = _tagged_row(lines, idx, f"profile {t}")
        if len(row) != n:
            raise FormatError(idx + 1, f"expected {n} ballot entries, got {len(row)}")
        if row and (min(row) < 0 or max(row) > m):
            e = next(e for e in row if not 0 <= e <= m)
            raise FormatError(idx + 1, f"ballot entry {e} outside 0..{m}")
        ballots.append(tuple(row))
        idx += 1
    _no_trailing(lines, idx)
    return Instance(variant=variant, m=m, ballots=tuple(ballots), k=k, ell=ell, x=x)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


def emit_solution(committees) -> str:
    """Serialize a committee sequence, ids sorted within each stage.

    Ids go through ``operator.index``, so a float id raises ``TypeError``
    instead of being written as the integer ``%d`` would truncate it to.
    """
    rows = (sorted(map(index, committee)) for committee in committees)
    return "\n".join(_spelled("stage", rows)) + "\n"


def parse_solution(text: str, instance) -> tuple:
    """Parse a solution against an instance's stage count and id range."""
    lines = text.splitlines()
    committees = []
    for t in range(1, instance.tau + 1):
        row = _tagged_row(lines, t - 1, f"stage {t}")
        seen = set()
        for c in row:
            if not 1 <= c <= instance.m:
                raise FormatError(t, f"candidate id {c} outside 1..{instance.m}")
            if c in seen:
                raise FormatError(t, f"candidate id {c} repeated")
            seen.add(c)
        committees.append(frozenset(seen))
    _no_trailing(lines, instance.tau)
    return tuple(committees)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def emit_graph(graph) -> str:
    """Serialize a Graph or PartitionedGraph."""
    from .reductions import PartitionedGraph

    lines = [f"graph {graph.num_vertices} {len(graph.edges)}"]
    for u, v in graph.edges:
        lines.append(f"{u} {v}")
    if isinstance(graph, PartitionedGraph):
        lines.append(f"parts {len(graph.parts)}")
        for part in graph.parts:
            lines.append(" ".join(str(v) for v in sorted(part)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str):
    """Parse graph text; returns PartitionedGraph when a parts section
    is present, plain Graph otherwise."""
    from .reductions import Graph, PartitionedGraph

    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "graph":
        raise FormatError(1, f"expected 'graph <nv> <ne>', got {lines[0]!r}")
    nv = _int_field(1, "vertex count", head[1], minimum=0)
    ne = _int_field(1, "edge count", head[2], minimum=0)
    edges = []
    seen = set()
    for i in range(ne):
        line_no = 2 + i
        if line_no - 1 >= len(lines):
            raise FormatError(len(lines) + 1, "missing edge line")
        parts = lines[line_no - 1].split()
        if len(parts) != 2:
            raise FormatError(line_no, f"expected 'u v', got {lines[line_no - 1]!r}")
        u = _int_field(line_no, "endpoint", parts[0])
        v = _int_field(line_no, "endpoint", parts[1])
        if u == v:
            raise FormatError(line_no, f"self-loop at vertex {u}")
        if not (1 <= u <= nv and 1 <= v <= nv):
            raise FormatError(line_no, f"edge ({u}, {v}) outside 1..{nv}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(line_no, f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append(key)
    idx = 1 + ne
    if idx >= len(lines):
        return Graph(nv, tuple(edges))
    q = _directive(lines, idx, "parts", minimum=2)
    idx += 1
    parts = []
    placed = set()
    for i in range(q):
        if idx >= len(lines):
            raise FormatError(len(lines) + 1, "missing part line")
        part = [_int_field(idx + 1, "vertex id", tok) for tok in lines[idx].split()]
        for v in part:
            if not 1 <= v <= nv:
                raise FormatError(idx + 1, f"vertex {v} outside 1..{nv}")
            if v in placed:
                raise FormatError(idx + 1, f"vertex {v} listed twice in the parts")
            placed.add(v)
        parts.append(frozenset(part))
        idx += 1
    _no_trailing(lines, idx)
    try:
        pg = PartitionedGraph(parts=tuple(parts), edges=tuple(edges))
    except ValueError as exc:
        raise FormatError(2 + ne, str(exc)) from None
    if pg.num_vertices != nv:
        raise FormatError(
            1, f"header says {nv} vertices but the parts cover {pg.num_vertices}"
        )
    return pg
