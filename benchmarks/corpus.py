"""Seeded inputs for the three benchmark workloads.

:func:`build` takes a workload name and the ``--seed`` value and returns
a list of :class:`Item` objects. Each item records why it is in the
corpus and the answer it is expected to have. That expectation comes
from how the item was made (a planted clique or cover, a duplicated
stage) or from one direct solver call used to place a yes/no twin pair
on the boundary; each run confirms it with an independent reference
(``workloads.reference_answer``). ``solve_auto`` never sets an expected
answer.

Non-greedy instances sit at or below the smallest per-stage top-k score,
so every stage alone can reach ``x`` and no "no" answer comes from that
precheck. The greedy pairs are the exception: their "no" twin raises
``x`` one above it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product

from mpvkit import (
    Graph,
    Instance,
    PartitionedGraph,
    brute_force,
    cmpv_normalize_half,
    cmpv_to_rmpv,
    emit_graph,
    emit_instance,
    random_instance,
    solve_dp_tau,
    solve_layered_k,
    vc_to_cmpv,
)

# The instances ROADMAP items 3 to 5 measure on, kept exactly as named
# there: (variant, n, m, tau, k, ell, x, seed, answer). The answers are
# the ones ROADMAP reports; the reference confirms them on every run.
NAMED = (
    ("C", 30, 60, 5, 4, 2, 7, 6, False),
    ("R", 40, 40, 8, 3, 2, 6, 5, True),
    ("C", 40, 40, 8, 3, 2, 6, 5, True),
)

# Random stream of the tau = 3 twins, picked by timing: on its first draw
# layered-k took 0.7-1.0 times dp-tau's time on both twins over seeds 1-8
# (Intel Xeon, 2 vCPUs). Traced solve-mix runs probe both solvers on the
# twins and print the ratio as ``tau3_layered_over_dp``.
TAU3_STREAM = "solve-mix/tau3/55"

README_EXAMPLE = Instance(
    variant="R", m=3, ballots=((1, 1), (2, 2), (1, 3)), k=1, ell=2, x=1
)


@dataclass
class Item:
    """One input of a workload: what the op runs on and what it should say."""

    name: str
    kind: str
    reason: str
    expected: bool
    data: dict = field(default_factory=dict)
    path: str = ""

    def manifest(self):
        return {"name": self.name, "kind": self.kind, "reason": self.reason, "expected": self.expected}


# ---------------------------------------------------------------------------
# random instances placed on the yes/no boundary
# ---------------------------------------------------------------------------


def topk_floor(instance):
    """Smallest over stages of the best committee score at that stage."""
    k = instance.k
    return min(sum(sorted(row[1:], reverse=True)[:k]) for row in instance.counts)


def _with(instance, **changes):
    fields = dict(
        variant=instance.variant,
        m=instance.m,
        ballots=instance.ballots,
        k=instance.k,
        ell=instance.ell,
        x=instance.x,
    )
    fields.update(changes)
    return Instance(**fields)


def _draw(rng, variant, n, m, tau, k, ell):
    inst = random_instance(n, m, tau, k, ell, 1, variant, seed=rng.getrandbits(32))
    return _with(inst, x=topk_floor(inst))


def _x_twins(rng, variant, n, m, tau, k, ell, selector):
    """Yes/no twins that differ only in ``x``: the largest yes ``x`` and one more.

    Draws ballots until the top-k floor itself is a no, then lowers
    ``x`` until ``selector`` says yes.
    """
    for _ in range(64):
        no = _draw(rng, variant, n, m, tau, k, ell)
        if selector(no).answer:
            continue
        for x in range(no.x - 1, 0, -1):
            yes = _with(no, x=x)
            if selector(yes).answer:
                return yes, _with(no, x=x + 1)
            no = _with(no, x=x)
    raise RuntimeError(f"no x twin found for {variant} n{n} m{m} t{tau} k{k} l{ell}")


def _stage_twins(rng, variant, n, m, tau, k, ell):
    """Revolutionary twins: the no twin repeats the tightest stage.

    At ``x`` equal to the top-k floor the tightest stage admits only its
    top-k committee when the k-th and (k+1)-th counts differ. Repeating
    that stage right after it forces two equal consecutive committees,
    which ``ell >= 1`` forbids, while every stage still passes the
    top-k check.
    """
    for _ in range(64):
        yes = _draw(rng, variant, n, m, tau, k, ell)
        scores = [sum(sorted(r[1:], reverse=True)[:k]) for r in yes.counts]
        t = scores.index(min(scores))
        ranked = sorted(yes.counts[t][1:], reverse=True)
        if ranked[k - 1] == ranked[k] or ranked[k - 1] == 0:
            continue
        rows = list(yes.ballots)
        other = t + 1 if t + 1 < tau else t - 1
        rows[other] = rows[t]
        no = _with(yes, ballots=tuple(rows))
        if topk_floor(no) != yes.x:
            continue
        return yes, no
    raise RuntimeError(f"no stage twin found for {variant} n{n} m{m} t{tau} k{k}")


def _order_twins(rng, variant, n, m, k, ell, selector):
    """Three-stage twins with the same stages: the no twin puts another one in the middle.

    Both twins have the same per-stage committee layers, so the solvers do
    about the same work on each. Draws ballots, then lowers ``x`` from the
    top-k floor until the middle stage decides the answer.
    """
    for _ in range(64):
        base = _draw(rng, variant, n, m, 3, k, ell)
        rows = base.ballots
        for x in range(base.x, max(0, base.x - 3), -1):
            orders = [
                _with(base, x=x, ballots=(rows[(mid + 1) % 3], rows[mid], rows[(mid + 2) % 3]))
                for mid in range(3)
            ]
            answers = [selector(o).answer for o in orders]
            if True in answers and False in answers:
                return orders[answers.index(True)], orders[answers.index(False)]
    raise RuntimeError(f"no stage-order twin found for {variant} n{n} m{m} k{k} l{ell}")


def _spec(inst):
    return f"{inst.variant} n{inst.n} m{inst.m} t{inst.tau} k{inst.k} l{inst.ell} x{inst.x}"


def _pair_items(prefix, kind, reason, pair):
    yes, no = pair
    return [
        Item(f"{prefix}-yes", kind, f"{reason}; {_spec(yes)}", True, {"instance": yes}),
        Item(f"{prefix}-no", kind, f"{reason}; {_spec(no)}", False, {"instance": no}),
    ]


def _greedy_twins(rng, variant, n, m, tau, k, ell):
    """Greedy-regime twins: ``x`` at the top-k floor, and one above it."""
    yes = _draw(rng, variant, n, m, tau, k, ell)
    return yes, _with(yes, x=yes.x + 1)


# Solver home regimes: slot, reason, twin builder, then the shape
# (variant, n, m, tau, k, ell) used in solve-mix and in cli-oneshot. The
# sizes keep every instance's independent reference within a few
# hundred milliseconds, and every cli-oneshot file well under 100 ms.
REGIMES = (
    ("greedy-c", "greedy home: conservative with ell >= 2k", _greedy_twins,
     ("C", 20, 30, 6, 3, 6), ("C", 6, 8, 3, 2, 4)),
    ("greedy-r", "greedy home: revolutionary with ell = 0", _greedy_twins,
     ("R", 20, 30, 6, 3, 0), ("R", 6, 8, 3, 2, 0)),
    ("layered", "layered-k home: small k over several stages, x twins at the boundary",
     partial(_x_twins, selector=solve_layered_k), ("C", 12, 18, 4, 3, 1), ("C", 6, 10, 3, 2, 1)),
    ("inout", "inout-ell home: revolutionary ell = 1 over many stages", _stage_twins,
     ("R", 30, 12, 8, 3, 1), ("R", 12, 8, 5, 3, 1)),
    ("dp", "dp-tau home: two stages, wide candidate pool, small x",
     partial(_x_twins, selector=solve_dp_tau), ("C", 15, 40, 2, 4, 1), ("C", 8, 12, 2, 3, 1)),
    ("brute", "brute-force home: tiny instance",
     partial(_x_twins, selector=brute_force), ("C", 4, 6, 3, 2, 1), ("C", 4, 6, 3, 2, 1)),
)


def _regime_items(rng, kind, which):
    items = []
    for slot, reason, twins, *shapes in REGIMES:
        items += _pair_items(slot, kind, reason, twins(rng, *shapes[which]))
    return items


def _solve_base(rng):
    """Instances for ``solve-mix``: in-process ``solve_auto`` then ``verify``."""
    items = _regime_items(rng, "solve", 0)
    boundary = next(i for i in items if i.name == "layered-no").data["instance"]
    far = _with(boundary, x=boundary.x + 1)
    items.append(
        Item(
            "layered-no-far",
            "solve",
            f"layered-k home, x two above the largest yes: a no found sooner; {_spec(far)}",
            False,
            {"instance": far},
        )
    )
    items += _pair_items(
        "tau3",
        "solve",
        "tau = 3 twins that differ in stage order, where layered-k and dp-tau "
        "run within 2x of each other, so routing shows",
        _order_twins(random.Random(TAU3_STREAM), "C", 20, 24, 3, 1, solve_dp_tau),
    )
    for v, n, m, tau, k, ell, x, s, expected in NAMED:
        inst = random_instance(n, m, tau, k, ell, x, v, seed=s)
        items.append(
            Item(
                f"named-{v}{n}-{m}-s{s}",
                "solve",
                f"ROADMAP named instance {v} n{n} m{m} t{tau} k{k} l{ell} x{x} seed {s}",
                expected,
                {"instance": inst, "fixed": True},
            )
        )
    return items


def _cli_base(rng):
    """Small instance files for ``cli-oneshot``, each well under 100 ms in process."""
    items = [
        Item(
            "readme",
            "cli",
            "README quick-start example",
            True,
            {"instance": README_EXAMPLE, "algorithm": "auto", "fixed": True},
        ),
        Item(
            "readme-no",
            "cli",
            "README example with ell = 3 > 2k, so no two committees differ enough",
            False,
            {"instance": _with(README_EXAMPLE, ell=3), "algorithm": "auto", "fixed": True},
        ),
    ]
    for item in _regime_items(rng, "cli", 1):
        # solve_auto never routes to brute force, so its pair asks for it
        item.data["algorithm"] = "brute" if item.name.startswith("brute") else "auto"
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# graphs for the hardness gadgets
# ---------------------------------------------------------------------------


def clique_committee(pgraph):
    """Graph brute force for a multicolored clique (one vertex per part, all
    pairwise adjacent); returns the committee it selects in ``mcc_to_cmpv``,
    or None when there is no such clique."""
    edges = set(pgraph.edges)
    h = pgraph.num_vertices
    edge_id = {e: h + 1 + i for i, e in enumerate(pgraph.edges)}
    for pick in product(*(sorted(p) for p in pgraph.parts)):
        pairs = [(min(u, v), max(u, v)) for u, v in combinations(pick, 2)]
        if all(p in edges for p in pairs):
            return frozenset(pick) | frozenset(edge_id[p] for p in pairs)
    return None


def vertex_cover(graph, r):
    """Graph brute force: a vertex cover of size ``r``, or None."""
    for cover in combinations(range(1, graph.num_vertices + 1), r):
        chosen = set(cover)
        if all(u in chosen or v in chosen for u, v in graph.edges):
            return frozenset(cover)
    return None


def _mcc_graph(rng, sizes, per_pair, want):
    parts, start = [], 1
    for s in sizes:
        parts.append(list(range(start, start + s)))
        start += s
    for _ in range(500):
        planted = [rng.choice(p) for p in parts] if want else None
        edges = []
        for i, j in combinations(range(len(parts)), 2):
            pool = [(u, v) for u in parts[i] for v in parts[j]]
            chosen = set()
            if planted:
                chosen.add((planted[i], planted[j]))
            rest = [e for e in pool if e not in chosen]
            chosen.update(rng.sample(rest, per_pair - len(chosen)))
            edges += sorted(chosen)
        pg = PartitionedGraph(tuple(frozenset(p) for p in parts), tuple(edges))
        if (clique_committee(pg) is not None) == want:
            return pg
    raise RuntimeError(f"no {'yes' if want else 'no'} MCC graph for {sizes}")


def _vc_graph(rng, nv, ne, want):
    """Graph on ``nv`` vertices with ``ne`` edges whose half cover exists iff ``want``."""
    all_edges = list(combinations(range(1, nv + 1), 2))
    for _ in range(500):
        if want:
            cover = set(rng.sample(range(1, nv + 1), nv // 2))
            pool = [e for e in all_edges if e[0] in cover or e[1] in cover]
        else:
            pool = all_edges
        g = Graph(nv, tuple(rng.sample(pool, ne)))
        if (vertex_cover(g, nv // 2) is not None) == want:
            return g
    raise RuntimeError(f"no {'yes' if want else 'no'} VC graph on {nv} vertices")


def _rmpv_source(g):
    return cmpv_to_rmpv(cmpv_normalize_half(vc_to_cmpv(g)))


def _and_inputs(rng, variant, ell, want):
    """Two same-shape AND-composition inputs, both yes unless ``want`` is False."""
    found = {True: [], False: []}
    while len(found[True]) < 2 or not found[False]:
        # x = 2 keeps one shape, and the best two of three ballots reach it
        inst = _with(_draw(rng, variant, 3, 4, 3, 2, ell), x=2)
        found[brute_force(inst).answer].append(inst)
    return found[True][:2] if want else found[True][:1] + found[False][:1]


def _gadget_base(rng):
    """Inputs for ``gadget-build``: graphs and instances fed to the transformations.

    Each item's expected answer is that of the source problem, decided by
    the graph brute force above or by construction. ``brute`` marks the
    outputs small enough for ``brute_force`` inside the op.
    """
    items = []
    for sizes, per_pair in (((2, 2, 2), 1), ((3, 3, 3), 4), ((3, 3, 3, 3), 4)):
        shape = "+".join(map(str, sizes))
        for want in (True, False):
            pg = _mcc_graph(rng, sizes, per_pair, want)
            items.append(
                Item(
                    f"mcc-{shape}-{'yes' if want else 'no'}",
                    "mcc",
                    f"mcc_to_cmpv on {shape} parts, {per_pair} edges per part pair",
                    want,
                    {"graph": pg, "brute": sizes == (2, 2, 2)},
                )
            )
    for want in (True, False):
        tag = "yes" if want else "no"
        items.append(
            Item(
                f"vc-chain-{tag}",
                "vc_chain",
                "vc_to_cmpv -> cmpv_normalize_half -> cmpv_to_rmpv on 8 vertices, 12 edges",
                want,
                {"graph": _vc_graph(rng, 8, 12, want), "brute": True},
            )
        )
        g = _vc_graph(rng, 6, 7, want)
        items.append(
            Item(
                f"lift-ell1-{tag}",
                "lift_ell1",
                "lift_ell1 of a 6-vertex VC gadget",
                want,
                {"graph": g, "source": vc_to_cmpv(g), "brute": True},
            )
        )
        g = _vc_graph(rng, 6, 7, want)
        items.append(
            Item(
                f"lift-2km2-{tag}",
                "lift_2km2",
                "lift_ell_2km2 of a 6-vertex VC gadget made revolutionary",
                want,
                {"graph": g, "source": _rmpv_source(g), "brute": True},
            )
        )
        for kind, variant, ell in (("and_cmpv", "C", 1), ("and_rmpv", "R", 4)):
            items.append(
                Item(
                    f"{kind.replace('_', '-')}-{tag}",
                    kind,
                    f"{kind.replace('_', '_compose_')} over two {variant} n3 m4 t3 k2 "
                    f"ell{ell} inputs{'' if want else ', one of them a no'}",
                    want,
                    {"sources": _and_inputs(rng, variant, ell, want), "brute": True},
                )
            )
    # Wide pairs are narrow twins padded with never-approved candidates.
    # That keeps conservative answers (a solution never needs such a
    # candidate) and the revolutionary stage twins' answers (their tight
    # stages already fill all k seats).
    narrow_c = _x_twins(rng, "C", 12, 10, 4, 2, 1, solve_layered_k)
    narrow_r = _stage_twins(rng, "R", 30, 12, 4, 2, 1)
    pairs = (
        ("ntau-c", "kernel_ntau_cmpv on a wide-m C instance", tuple(_with(i, m=1500) for i in narrow_c)),
        ("ntau-r", "kernel_ntau_rmpv on a wide-m R instance", tuple(_with(i, m=400) for i in narrow_r)),
        ("mtau", "kernel_mtau on a small instance", _x_twins(rng, "C", 6, 5, 3, 2, 1, brute_force)),
    )
    for slot, reason, pair in pairs:
        for item in _pair_items(slot, slot.split("-")[0], reason, pair):
            item.data["brute"] = slot != "mtau"
            items.append(item)
    return items


def relabel_instance(inst, rng):
    """The same instance under new candidate ids and a new agent order.

    Answers do not change: scores, committee sizes and symmetric
    differences are invariant under renaming candidates and agents.
    """
    ids = list(range(1, inst.m + 1))
    rng.shuffle(ids)
    agents = list(range(inst.n))
    rng.shuffle(agents)
    rows = tuple(tuple(ids[row[j] - 1] if row[j] else 0 for j in agents) for row in inst.ballots)
    return _with(inst, ballots=rows)


def relabel_graph(graph, rng):
    """The same graph, and partition if any, under new vertex ids."""
    ids = list(range(1, graph.num_vertices + 1))
    rng.shuffle(ids)
    edges = tuple((ids[u - 1], ids[v - 1]) for u, v in graph.edges)
    if isinstance(graph, PartitionedGraph):
        return PartitionedGraph(tuple(frozenset(ids[v - 1] for v in p) for p in graph.parts), edges)
    return Graph(graph.num_vertices, edges)


def _relabel(item, rng):
    data = item.data
    # brute force explores committees in id order, so relabeling a
    # brute-forced gadget would change how long its op runs
    if data.get("fixed") or data.get("brute"):
        return
    if "instance" in data:
        data["instance"] = relabel_instance(data["instance"], rng)
    if "sources" in data:
        data["sources"] = [relabel_instance(s, rng) for s in data["sources"]]
    if "graph" in data:
        data["graph"] = relabel_graph(data["graph"], rng)


_BASES = {"cli-oneshot": _cli_base, "solve-mix": _solve_base, "gadget-build": _gadget_base}


def build(workload, seed):
    """The workload's corpus for ``seed``.

    Shapes, yes/no twins and expected answers come from a fixed base
    draw; the seed relabels every instance and graph except the named
    ones and the gadgets whose op runs brute force. Runs with different
    seeds thus see different inputs of the same difficulty, which keeps
    their timings comparable.
    """
    items = _BASES[workload](random.Random(f"{workload}/base"))
    rng = random.Random(f"{workload}/{seed}")
    for item in items:
        _relabel(item, rng)
    return items


def write(items, directory):
    """Write every item's input file and a manifest of reasons and answers."""
    os.makedirs(directory, exist_ok=True)
    for item in items:
        if "instance" in item.data:
            text = emit_instance(item.data["instance"])
        elif "graph" in item.data:
            text = emit_graph(item.data["graph"])
        else:
            text = "\n".join(emit_instance(s) for s in item.data["sources"])
        item.path = os.path.join(directory, item.name + ".txt")
        with open(item.path, "w") as handle:
            handle.write(text)
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump([item.manifest() for item in items], handle, indent=1)
