"""One op per corpus item, and the checks that decide whether it was right.

An op is the unit the benchmark times: one ``mpv solve`` subprocess
(``cli-oneshot``), one ``solve_auto`` plus ``verify`` (``solve-mix``),
or one build plus ``emit_instance`` -> ``parse_instance`` round trip,
with ``brute_force`` on small outputs (``gadget-build``). Ops call only
public mpvkit functions and wrap each call in a span of the tracer they
are given, so the traced and untraced runs execute the same code.

Checks run outside the op's timed region. The first op on an item is
checked in full; later ops on the same item must repeat its output
exactly. The independent reference for each item runs once, after the
timed loop (:meth:`Checker.finish`).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass, field

from mpvkit import (
    BudgetExceededError,
    Instance,
    WeightedInstance,
    and_compose_cmpv,
    and_compose_rmpv,
    brute_force,
    cmpv_normalize_half,
    cmpv_to_rmpv,
    emit_instance,
    kernel_mtau,
    kernel_ntau_cmpv,
    kernel_ntau_rmpv,
    lift_ell1,
    lift_ell_2km2,
    mcc_to_cmpv,
    parse_instance,
    parse_solution,
    solve_auto,
    solve_dp_tau,
    solve_inout_ell,
    solve_layered_k,
    solve_weighted,
    to_weighted,
    vc_to_cmpv,
    verify,
)

import corpus

# brute_force as the reference gives up beyond this many partial sequences
REFERENCE_BUDGET = 10**6


class Mismatch(Exception):
    """Two independent ways of deciding an instance disagree."""


@dataclass
class Outcome:
    """What one op produced. ``answer`` is None when the op failed."""

    answer: object = None
    failed: str = ""
    digest: str = ""
    detail: dict = field(default_factory=dict)


def _digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode() if not isinstance(part, str) else part.encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def run_cli(ctx, *args):
    return subprocess.run(
        [sys.executable, "-m", "mpvkit.cli", *args],
        capture_output=True,
        text=True,
        env=ctx.env,
        cwd=ctx.root,
        timeout=150,
    )


def op_cli(item, ctx, tr):
    args = ["solve", "--witness", item.path]
    if item.data["algorithm"] != "auto":
        args += ["--algorithm", item.data["algorithm"]]
    with tr.span("cli.solve"):
        proc = run_cli(ctx, *args)
    if proc.returncode not in (0, 1):
        return Outcome(failed=f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return Outcome(
        answer=proc.returncode == 0,
        digest=_digest(proc.returncode, proc.stdout),
        detail={"stdout": proc.stdout},
    )


def op_solve(item, ctx, tr):
    inst = item.data["instance"]
    with tr.span("solvers.auto"):
        report = solve_auto(inst)
        tr.add(
            f"solvers.{report.algorithm}",
            report.stats["time_ms"] / 1000.0,
            {"states": report.stats["states"]},
        )
    violations = None
    if report.answer:
        with tr.span("core.verify"):
            violations = verify(inst, report.witness)
    return Outcome(
        answer=report.answer,
        digest=_digest(report.answer, report.algorithm, report.witness),
        detail={"violations": violations, "witness": report.witness},
    )


def _build(item, tr):
    """Run the item's transformation; returns (output instance, extra detail)."""
    kind, data = item.kind, item.data
    if kind == "mcc":
        with tr.span("reductions.mcc"):
            return mcc_to_cmpv(data["graph"]), {}
    if kind == "vc_chain":
        with tr.span("reductions.vc_chain"):
            return cmpv_to_rmpv(cmpv_normalize_half(vc_to_cmpv(data["graph"]))), {}
    if kind in ("lift_ell1", "lift_2km2"):
        lift = lift_ell1 if kind == "lift_ell1" else lift_ell_2km2
        with tr.span("reductions.lift"):
            return lift(data["source"]), {}
    if kind in ("and_cmpv", "and_rmpv"):
        compose = and_compose_cmpv if kind == "and_cmpv" else and_compose_rmpv
        with tr.span("reductions.and"):
            return compose(data["sources"]), {}
    if kind == "ntau":
        inst = data["instance"]
        kernel = kernel_ntau_cmpv if inst.variant == "C" else kernel_ntau_rmpv
        with tr.span("kernel.ntau") as sp:
            result = kernel(inst)
            sp.counts["kept_frac"] = result.instance.m / inst.m
        return result.instance, {"kernel": result}
    if kind == "mtau":
        with tr.span("kernel.mtau"):
            return kernel_mtau(data["instance"]), {}
    raise ValueError(f"unknown gadget kind {kind!r}")


def op_gadget(item, ctx, tr):
    out, detail = _build(item, tr)
    with tr.span("core.instance") as sp:
        if isinstance(out, WeightedInstance):
            WeightedInstance(out.variant, out.m, out.weights, out.k, out.ell, out.x)
            sp.counts["entries"] = out.m * out.tau
        else:
            Instance(out.variant, out.m, out.ballots, out.k, out.ell, out.x)
            sp.counts["entries"] = out.n * out.tau
    with tr.span("formats.emit"):
        text = emit_instance(out)
    with tr.span("formats.parse") as sp:
        back = parse_instance(text)
        sp.counts["bytes"] = len(text)
    answer = item.expected
    if item.data.get("brute"):
        with tr.span("oracle.brute") as sp:
            report = brute_force(back)
            sp.counts["states"] = report.stats["states"]
        answer = report.answer
        detail["witness"] = report.witness
    detail.update(out=out, text=text, back=back)
    return Outcome(answer=answer, digest=_digest(text, answer, detail.get("witness")), detail=detail)


OPS = {"cli-oneshot": op_cli, "solve-mix": op_solve, "gadget-build": op_gadget}


# ---------------------------------------------------------------------------
# independent reference
# ---------------------------------------------------------------------------


def reference_answer(inst):
    """Decide ``inst`` without ``solve_auto``.

    ``brute_force`` when it fits :data:`REFERENCE_BUDGET`; otherwise
    layered-k and a second structured solver, called directly, must
    agree. A yes must come with a witness that passes ``verify``.
    """
    try:
        reports = [brute_force(inst, budget=REFERENCE_BUDGET)]
    except BudgetExceededError:
        second = solve_inout_ell if inst.variant == "R" and inst.ell >= 1 else solve_dp_tau
        reports = [solve_layered_k(inst), second(inst)]
    answers = {r.answer for r in reports}
    if len(answers) != 1:
        raise Mismatch(f"reference solvers disagree: {[(r.algorithm, r.answer) for r in reports]}")
    for r in reports:
        if r.answer and verify(inst, r.witness):
            raise Mismatch(f"{r.algorithm} witness fails verify")
    return answers.pop()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


# Items whose op output is wrong at this commit because of a defect in
# mpvkit itself. Their answer mismatch is printed under "exempted" in the
# record instead of failing the run; every other check on them still
# gates. Drop an entry once the defect is fixed: the record then lists it
# under "exemption_unused".
KNOWN_DEFECTS = {
    "lift-ell1-no": "lift_ell1 turns this no VC gadget into a yes instance",
}


class Checker:
    """Decides per op whether it was correct; remembers each item's first output.

    Calling the checker on an op runs the checks on the op's own output:
    its answer against the item's expected answer, witnesses through
    ``verify``, byte-identical round trips, gadgets against the graph
    brute force. :meth:`finish` then confirms every expected answer with
    an independent reference and ``mpv verify``; it runs after the timed
    loop, so its memory and its child processes stay out of
    ``peak_rss_mb``. ``problems`` collects one line per wrong item; each
    makes all of that item's ops count as wrong.
    """

    def __init__(self, workload, ctx):
        self.workload = workload
        self.ctx = ctx
        self.first = {}
        self.problems = {}
        self.exempted = {}
        self.items = {}
        self.witness_files = {}

    def __call__(self, item, outcome):
        if outcome.failed:
            return False
        if item.name in self.first:
            return outcome.digest == self.first[item.name]
        self.first[item.name] = outcome.digest
        self.items[item.name] = item
        problem = getattr(self, "_" + self.workload.replace("-", "_"))(item, outcome)
        if problem:
            self.problems[item.name] = problem
        return not problem

    def finish(self):
        """Confirm each checked item's expected answer independently."""
        for name, item in self.items.items():
            try:
                problem = self._reference(item)
            except Mismatch as exc:
                problem = str(exc)
            if problem:
                self.problems.setdefault(name, problem)
        for name, (path, solution) in self.witness_files.items():
            proc = run_cli(self.ctx, "verify", path, solution)
            if proc.returncode != 0 or proc.stdout.strip() != "VALID":
                self.problems.setdefault(name, f"mpv verify exit {proc.returncode}: {proc.stdout.strip()[:200]}")

    def unused_exemptions(self):
        return sorted(n for n in KNOWN_DEFECTS if n in self.items and n not in self.exempted)

    def _reference(self, item):
        data = item.data
        if "instance" in data or "source" in data:
            sources = [data["instance"] if "instance" in data else data["source"]]
        else:
            sources = data.get("sources")
        if not sources:
            return ""  # a graph alone: checked against the graph brute force per op
        ref = all(reference_answer(s) for s in sources)
        if ref != item.expected:
            return f"reference says {ref}, corpus expected {item.expected}"
        if item.kind == "mtau" and solve_weighted(to_weighted(data["instance"])).answer != ref:
            return "solve_weighted on the original disagrees with the reference"
        return ""

    def _cli_oneshot(self, item, out):
        lines = out.detail["stdout"].splitlines()
        if lines[:1] != ["YES" if out.answer else "NO"]:
            return f"stdout starts {lines[:1]} with exit {0 if out.answer else 1}"
        if out.answer != item.expected:
            return f"mpv solve said {out.answer}, expected {item.expected}"
        if not out.answer:
            return ""
        solution = os.path.join(self.ctx.work, item.name + ".sol")
        with open(solution, "w") as handle:
            handle.write("\n".join(lines[1:]) + "\n")
        self.witness_files[item.name] = (item.path, solution)
        inst = item.data["instance"]
        with open(solution) as handle:
            if verify(inst, parse_solution(handle.read(), inst)):
                return "witness fails verify in process"
        return ""

    def _solve_mix(self, item, out):
        if out.answer != item.expected:
            return f"solve_auto said {out.answer}, expected {item.expected}"
        if out.answer and out.detail["violations"]:
            return f"witness violations: {out.detail['violations'][:2]}"
        return ""

    def _gadget_build(self, item, out):
        d = out.detail
        if emit_instance(d["back"]) != d["text"] or d["back"] != d["out"]:
            return "emit -> parse round trip is not byte-identical"
        kind = item.kind
        if kind == "mcc":
            committee = corpus.clique_committee(item.data["graph"])
            if (committee is not None) != item.expected:
                return f"graph brute force says {committee is not None}, corpus expected {item.expected}"
            if committee is not None and verify(d["out"], (committee,) * d["out"].tau):
                return "the clique's committee fails verify on the gadget"
        elif kind == "vc_chain":
            g = item.data["graph"]
            if (corpus.vertex_cover(g, g.num_vertices // 2) is not None) != item.expected:
                return f"graph brute force disagrees with the corpus's expected {item.expected}"
        elif kind == "mtau":
            return self._mtau(item, d)
        elif kind == "ntau" and d.get("witness") is not None:
            lifted = d["kernel"].lift(d["witness"])
            if verify(item.data["instance"], lifted):
                return "lifted kernel witness fails verify on the original"
        if out.answer != item.expected:
            message = f"brute_force on the {kind} output says {out.answer}, expected {item.expected}"
            if item.name not in KNOWN_DEFECTS:
                return message
            self.exempted[item.name] = f"{message}: {KNOWN_DEFECTS[item.name]}"
        if d.get("witness") is not None and verify(d["back"], d["witness"]):
            return "brute_force witness fails verify"
        return ""

    @staticmethod
    def _mtau(item, d):
        shrunk = solve_weighted(d["back"])
        if shrunk.answer != item.expected:
            return f"kernel_mtau output answers {shrunk.answer}, expected {item.expected}"
        if shrunk.answer and verify(item.data["instance"], shrunk.witness):
            return "kernel_mtau output witness fails verify on the original"
        return ""
