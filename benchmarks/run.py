"""mpvkit benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload solve-mix --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --smoke

Each workload is a closed loop with one caller in this process: the next
op starts when the previous one has returned. The loop makes whole
passes over the workload's corpus, as many as fill ``--seconds`` at the
nominal pass time (:data:`NOMINAL_PASS_S`).

* ``cli-oneshot``: one fresh ``python -m mpvkit.cli solve --witness FILE``
  subprocess per op over 14 small files. Interpreter start and
  ``import mpvkit`` dominate, so solver changes should not show here.
* ``solve-mix``: ``solve_auto`` then ``verify`` in process over yes/no
  twins from each solver's home regime and the ROADMAP's named
  instances. The solvers do nearly all the work.
* ``gadget-build``: reductions, lifts, AND-compositions and kernels, each
  followed by an ``emit_instance`` -> ``parse_instance`` round trip and,
  on small outputs, ``brute_force``. Instance construction, formats,
  reductions and kernels do the work.

Timings are scaled to a reference machine speed, because a shared
machine runs the same Python up to 1.7x faster or slower from one
minute to the next, and by up to 1.5x between passes of one run.
Before every op, and once after the last, the loop times
:func:`calibrate`, a fixed pure-Python task that runs no mpvkit code.
An op's slowdown is the median of the calibrations just before it, just
after it and before the op preceding it, over
:data:`CALIBRATION_REFERENCE_S`, and its time is divided by that. All
end-to-end timings except ``setup_s`` come from the scaled op times. The
record keeps the raw metrics and the range of slowdowns.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate
run: untraced passes alternate with passes that have spans around every
call into a layer, then a sweep that gives each layer the workload does not
touch one traced call, the interpreter and import timings, and the
regret probe. It prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment, the tail percentile, any problems and any exempted
known defect (``workloads.KNOWN_DEFECTS``). The exit code is 0 only when
every op was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-oneshot", "solve-mix", "gadget-build")
SETUP_REPEATS = 5
# Nominal seconds per pass over each corpus (Intel Xeon, 2 vCPUs). A run
# makes round(--seconds / nominal) whole passes, so every run of a
# workload times the same ops the same number of times, and the tail
# percentile always sits on the same rank.
NOMINAL_PASS_S = {"cli-oneshot": 8.0, "solve-mix": 4.0, "gadget-build": 2.7}
# solve-mix runs its seeded twins (a few ms each) this many times per pass
# and the named instances (up to seconds each) once, so that per-item
# medians of the cheap ops rest on enough samples to be steady
SEEDED_REPEATS = {"solve-mix": 4}
WALL_LIMIT_S = 140.0  # stop starting passes after this much wall time
IMPORT_REPEATS = 3
PROBE_TIMEOUT_S = 6.0
CALIBRATION_STEPS = 10000
# Median seconds of calibrate() over ten solve-mix runs on the reference
# machine (Intel Xeon, 2 vCPUs); it only sets the scale of the reported
# timings, which on that machine come out close to the raw ones
CALIBRATION_REFERENCE_S = 0.0024
# solve-mix probes these items besides one yes instance per regime: the
# stage-order twins (is layered-k within 2x of dp-tau?) and the named
# instance that drives dp-tau out of memory
TRACED_PROBES = ("tau3-yes", "tau3-no", "named-C40-40-s5")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "yes_ms_p50": "ms",
    "no_ms_p50": "ms",
    "correct_frac": "fraction",
    "peak_rss_mb": "MB",
}
# failed_frac is 0 on a healthy run, so it is reported through the
# result line's "failed"/"attempted" fields and the summary, not as a metric
SUMMARY_ONLY = {"failed_frac": "fraction"}

ALGORITHMS = ("greedy", "layered-k", "inout-ell", "dp-tau", "brute-force")
PER_LAYER = {
    "cli.import_s": "s",
    "cli.interp_s": "s",
    "formats.parse_ms": "ms",
    "formats.emit_ms": "ms",
    "formats.parse_mb_per_s": "MB/s",
    "core.instance_ms": "ms",
    "core.ballot_entries": "count",
    "core.verify_ms": "ms",
    "reductions.mcc_ms": "ms",
    "reductions.vc_chain_ms": "ms",
    "reductions.lift_ms": "ms",
    "reductions.and_ms": "ms",
    "kernel.ntau_ms": "ms",
    "kernel.ntau_kept_frac": "fraction",
    "kernel.mtau_ms": "ms",
    "oracle.brute_ms": "ms",
    "oracle.states": "count",
    **{f"solvers.{a}.{m}": u for a in ALGORITHMS for m, u in (("ms", "ms"), ("states", "count"), ("calls", "count"))},
    "solvers.auto.overhead_ms": "ms",
    "solvers.auto.regret_ms": "ms",
    "solvers.auto.best_pick_frac": "fraction",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


class Context:
    """Where the checkout is and how to start mpvkit in a child process."""

    def __init__(self, root, work):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = work
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = self.src + (os.pathsep + path if path else "")


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def load_mpvkit(root):
    """Import mpvkit from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mpvkit", "__init__.py")):
        fail(f"no mpvkit sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import mpvkit

    if os.path.dirname(os.path.dirname(os.path.abspath(mpvkit.__file__))) != src:
        fail(f"imported mpvkit from {mpvkit.__file__}, not from {src}")
    return mpvkit


# ---------------------------------------------------------------------------
# set-up and the loop
# ---------------------------------------------------------------------------


def setup(workload, seed, ctx, repeats):
    """Build and write the corpus and warm the CLI import ``repeats`` times.

    Returns the last corpus and the set-up time: the median time to build
    and write the corpus plus the median time of the warm-up import, so
    that a slow interpreter start and a slow corpus build in different
    repeats do not add up.
    """
    import corpus

    builds, warmups = [], []
    for i in range(repeats):
        start = time.perf_counter()
        items = corpus.build(workload, seed)
        corpus.write(items, os.path.join(ctx.work, f"corpus{i}"))
        builds.append(time.perf_counter() - start)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mpvkit.cli", "--version"],
            capture_output=True,
            env=ctx.env,
            cwd=ctx.root,
            timeout=120,
        )
        if proc.returncode != 0:
            fail(f"warm-up import failed: {proc.stderr.decode()[-300:]}")
        warmups.append(time.perf_counter() - start)
    return items, statistics.median(builds) + statistics.median(warmups)


def calibrate():
    """Seconds for a fixed pure-Python task: integer arithmetic and dict updates.

    It runs no mpvkit code, so no change to mpvkit can move it; its time
    follows how fast the machine runs Python at that moment.
    """
    start = time.perf_counter()
    counts = {}
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i * i % 7
        counts[i % 61] = counts.get(i % 61, 0) + total
    return time.perf_counter() - start


def run_loop(items, op, checker, ctx, tr, passes, deadline, calibrations=None, first_op=0):
    """``passes`` whole passes over ``items``, fewer if ``deadline`` comes first.

    Returns one ``(item, ms, correct, failed)`` sample per op; ``correct``
    holds only the checks on the op's own output until :func:`settle`.
    With a list as ``calibrations``, each op is preceded by a
    :func:`calibrate` whose time is appended to it, and the last op is
    followed by one more. Spans get op ids from ``first_op`` on.
    """
    from workloads import Outcome

    samples = []
    for _ in range(passes):
        for item in items:
            if calibrations is not None:
                calibrations.append(calibrate())
            tr.op = first_op + len(samples)
            start = time.perf_counter()
            try:
                outcome = op(item, ctx, tr)
            except Exception as exc:  # a crashing op is counted, not fatal
                outcome = Outcome(failed=f"{type(exc).__name__}: {exc}")
            ms = (time.perf_counter() - start) * 1000.0
            samples.append((item, ms, checker(item, outcome), outcome.failed))
            if outcome.failed:
                checker.problems.setdefault(item.name, outcome.failed)
        if time.perf_counter() > deadline:
            break
    if calibrations is not None:
        calibrations.append(calibrate())
    return samples


def settle(samples, checker):
    """Run the checker's deferred checks; an item they fault fails all its ops."""
    checker.finish()
    return [(item, ms, ok and item.name not in checker.problems, failed) for item, ms, ok, failed in samples]


def tail_percentile(n):
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def scale(samples, calibrations):
    """Op times divided by their own slowdown; returns (samples, slowdowns).

    ``calibrations`` holds the :func:`calibrate` time taken before each
    sample's op, then one taken after the last op.
    """
    slowdowns = [
        statistics.median(calibrations[max(0, i - 1) : i + 2]) / CALIBRATION_REFERENCE_S
        for i in range(len(samples))
    ]
    scaled = [(item, ms / f, ok, failed) for (item, ms, ok, failed), f in zip(samples, slowdowns)]
    return scaled, slowdowns


def end_to_end(samples, setup_s, peak_rss_mb, pass_len):
    """End-to-end metrics of one run's samples, ``pass_len`` ops per pass.

    ``ops_per_s`` is the median over passes of each pass's ops per
    second, so one pass slowed by a busy machine does not move it.
    The p50 metrics are medians over corpus items of each item's median
    op time: every item counts once, however often a pass runs it, and a
    group with an even number of items averages its two middle items
    instead of taking the extreme samples where they meet. The tail is
    taken over all ops, each counted at its item's median time: the
    slowest few percent of the op mix, which one op slowed by the machine
    does not move (the slowest ops are a few named instances run once a
    pass, so a plain order statistic would be their fastest run). Under
    eleven ops it falls back to the median.
    """
    ms = [s[1] for s in samples]
    medians = item_medians(samples)
    expected = {s[0].name: s[0].expected for s in samples}
    yes = [v for name, v in medians.items() if expected[name]]
    no = [v for name, v in medians.items() if not expected[name]]
    smoothed = [medians[s[0].name] for s in samples]
    p = tail_percentile(len(ms))
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(
            len(chunk) / (sum(chunk) / 1000.0) for chunk in (ms[i : i + pass_len] for i in range(0, len(ms), pass_len))
        ),
        "op_ms_p50": statistics.median(medians.values()),
        "op_ms_tail": percentile(smoothed, p),
        "yes_ms_p50": statistics.median(yes) if yes else float("nan"),
        "no_ms_p50": statistics.median(no) if no else float("nan"),
        "correct_frac": sum(1 for s in samples if s[2]) / len(samples),
        "peak_rss_mb": peak_rss_mb,
    }
    failed = sum(1 for s in samples if s[3])
    extra = {
        "failed_frac": failed / len(samples),
        "op_ms_tail_percentile": p,
        "samples": len(ms),
        "item_ms_p50": medians,
    }
    return metrics, failed, extra


def item_medians(samples):
    """Median op time per corpus item."""
    by_item = {}
    for item, ms, _, _ in samples:
        by_item.setdefault(item.name, []).append(ms)
    return {name: statistics.median(v) for name, v in by_item.items()}


def peak_rss_mb(workload):
    """Peak RSS of this process, or for cli-oneshot of its largest child.

    Read before :func:`settle`, so the deferred checks do not count. The
    corpus build and, for cli-oneshot, the warm-up import child come
    before the loop and stay below the ops' own peak.
    """
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def timed_subprocess(ctx, code):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.root, check=True, timeout=120)
    return time.perf_counter() - start


def import_times(ctx, repeats):
    """Median bare interpreter start, and median extra for ``import mpvkit``."""
    bare, full = [], []
    for _ in range(repeats):
        bare.append(timed_subprocess(ctx, "pass"))
        full.append(timed_subprocess(ctx, "import mpvkit"))
    interp = statistics.median(bare)
    return interp, statistics.median(full) - interp


def regret_probe(items, ctx, tr):
    """Every applicable solver on each item, each item in a capped child.

    Returns (mean regret ms, share of items where solve_auto picked the
    fastest solver, per-item rows). Calls that fail, run out of memory or
    are cut off by the timeout cannot be the fastest.
    """
    from mpvkit import emit_instance

    regrets, picks, rows = [], [], {}
    for item in items:
        path = os.path.join(ctx.work, f"probe-{item.name}.txt")
        with open(path, "w") as handle:
            handle.write(emit_instance(item.data["instance"]))
        env = dict(ctx.env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "probe.py"), ctx.src, path],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=ctx.root,
        )
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
            cut = []
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            cut = [{"solver": "next", "error": f"killed after {PROBE_TIMEOUT_S} s"}]
        calls = [json.loads(line) for line in out.splitlines() if line.startswith("{")] + cut
        rows[item.name] = calls
        auto = next((c for c in calls if c["solver"] == "auto" and "error" not in c), None)
        direct = [c for c in calls if c["solver"] != "auto"]
        for c in direct:
            if "error" not in c:
                tr.add(f"solvers.{c['algorithm']}", c["ms"] / 1000.0, {"states": c["states"]})
        done = [c for c in direct if "error" not in c]
        if auto is None or not done:
            continue
        best = min(done, key=lambda c: c["ms"])
        regrets.append(auto["ms"] - best["ms"])
        picks.append(auto["algorithm"] == best["algorithm"])
    if not regrets:
        return float("nan"), float("nan"), rows
    return statistics.mean(regrets), sum(picks) / len(picks), rows


def probe_ratio(rows, a, b):
    """Time of solver ``a`` over solver ``b`` in one item's probe rows, or None."""
    ms = {r["solver"]: r["ms"] for r in rows if "error" not in r}
    return ms[a] / ms[b] if a in ms and b in ms else None


def layer_metrics(tr):
    """Per-layer metrics from a tracer's spans; only names it has data for."""
    spans = tr.self_times()
    out = {}

    def mean_ms(name):
        return statistics.mean(s for s, _ in spans[name]) * 1000.0

    def mean_count(name, key):
        return statistics.mean(c.get(key, 0) for _, c in spans[name])

    simple = {
        "formats.parse": "formats.parse_ms",
        "formats.emit": "formats.emit_ms",
        "core.instance": "core.instance_ms",
        "core.verify": "core.verify_ms",
        "reductions.mcc": "reductions.mcc_ms",
        "reductions.vc_chain": "reductions.vc_chain_ms",
        "reductions.lift": "reductions.lift_ms",
        "reductions.and": "reductions.and_ms",
        "kernel.ntau": "kernel.ntau_ms",
        "kernel.mtau": "kernel.mtau_ms",
        "oracle.brute": "oracle.brute_ms",
        "solvers.auto": "solvers.auto.overhead_ms",
    }
    for span, metric in simple.items():
        if spans.get(span):
            out[metric] = mean_ms(span)
    if spans.get("formats.parse"):
        total = sum(c.get("bytes", 0) for _, c in spans["formats.parse"])
        seconds = sum(s for s, _ in spans["formats.parse"])
        out["formats.parse_mb_per_s"] = total / 1e6 / seconds
    if spans.get("core.instance"):
        out["core.ballot_entries"] = mean_count("core.instance", "entries")
    if spans.get("kernel.ntau"):
        out["kernel.ntau_kept_frac"] = mean_count("kernel.ntau", "kept_frac")
    if spans.get("oracle.brute"):
        out["oracle.states"] = mean_count("oracle.brute", "states")
    for alg in ALGORITHMS:
        name = f"solvers.{alg}"
        if spans.get(name):
            out[f"{name}.ms"] = mean_ms(name)
            out[f"{name}.states"] = mean_count(name, "states")
            out[f"{name}.calls"] = len(spans[name])
    return out


def sweep_items(seed):
    """Small items that reach every layer: one solve per regime, each gadget kind."""
    import corpus

    solve = [i for i in corpus.build("solve-mix", seed) if i.name.endswith("-yes")]
    gadgets = [i for i in corpus.build("gadget-build", seed) if not i.name.startswith("mcc-3")]
    return solve, gadgets


def traced_run(workload, items, ctx, passes, seed, deadline, checker, quick):
    """Untraced and traced passes, sweep, probe. Returns (metrics, samples, extra).

    ``quick`` probes one instance and times one import, for the smoke run.
    """
    from tracing import NULL, Tracer
    from workloads import OPS, Checker

    op = OPS[workload]
    tr = Tracer()
    plain, traced = [], []
    # untraced and traced passes alternate, and op times are scaled as in
    # the timed run, so that the machine speeding up or slowing down
    # during the run does not show as tracing overhead
    for _ in range(max(1, passes // 2)):
        for tracer, out in ((NULL, plain), (tr, traced)):
            calibrations = []
            samples = run_loop(items, op, checker, ctx, tracer, 1, deadline, calibrations, first_op=len(out))
            out += scale(samples, calibrations)[0]
        if time.perf_counter() > deadline:
            break
    metrics = layer_metrics(tr)

    a, b = item_medians(plain), item_medians(traced)
    common = [k for k in a if k in b]
    overhead = (sum(b[k] for k in common) / sum(a[k] for k in common) - 1.0) * 100.0

    sweep = Tracer()
    solve, gadgets = sweep_items(seed)
    # solve-mix probes every regime and the instance that drives dp-tau
    # out of memory; the other workloads probe three regimes
    probe_set = solve if workload == "solve-mix" else solve[2:5]
    if workload == "solve-mix":
        probe_set = probe_set + [i for i in items if i.name in TRACED_PROBES]
    if quick:
        probe_set = probe_set[:1]
    sweep_check = Checker("solve-mix", ctx)
    run_loop(solve, OPS["solve-mix"], sweep_check, ctx, sweep, 1, deadline)
    gadget_check = Checker("gadget-build", ctx)
    run_loop(gadgets, OPS["gadget-build"], gadget_check, ctx, sweep, 1, deadline)
    sweep_check.finish()
    gadget_check.finish()
    regret, best_pick, probe_rows = regret_probe(probe_set, ctx, sweep)
    interp, imp = import_times(ctx, 1 if quick else IMPORT_REPEATS)
    for name, value in layer_metrics(sweep).items():
        metrics.setdefault(name, value)
    metrics.update(
        {
            "cli.import_s": imp,
            "cli.interp_s": interp,
            "solvers.auto.regret_ms": regret,
            "solvers.auto.best_pick_frac": best_pick,
            "trace.overhead_pct": overhead,
            "trace.spans": len(tr.spans),
        }
    )
    trace_dir = os.path.join(ctx.root, ".bench_work", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tr.write(os.path.join(trace_dir, f"{workload}-seed{seed}.jsonl"))
    sweep.write(os.path.join(trace_dir, f"{workload}-seed{seed}-sweep.jsonl"))
    extra = {
        "probe": probe_rows,
        "sweep_problems": {**sweep_check.problems, **gadget_check.problems},
        "sweep_exempted": gadget_check.exempted,
        "tau3_layered_over_dp": {
            name: probe_ratio(rows, "layered-k", "dp-tau") for name, rows in probe_rows.items() if name.startswith("tau3")
        },
    }
    return metrics, plain + traced, extra


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root)
    return proc.stdout.strip() or "unknown"


def environment(root, seed):
    import numpy
    import sympy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def measure(workload, seed, seconds, trace, ctx, repeats=SETUP_REPEATS, limit=None):
    """One benchmark run. Returns (result dict, record dict)."""
    from tracing import NULL
    from workloads import OPS, Checker

    deadline = time.perf_counter() + WALL_LIMIT_S
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    items, setup_s = setup(workload, seed, ctx, repeats)
    if limit:
        items = items[:limit]
    seeded = [i for i in items if not i.data.get("fixed")]
    named = [i for i in items if i.data.get("fixed")]
    schedule = seeded * SEEDED_REPEATS.get(workload, 1) + named
    checker = Checker(workload, ctx)
    if trace:
        metrics, samples, extra = traced_run(
            workload, schedule, ctx, passes, seed, deadline, checker, quick=bool(limit)
        )
        units = PER_LAYER
        samples = settle(samples, checker)
        _, failed, summary = end_to_end(samples, setup_s, peak_rss_mb(workload), len(schedule))
    else:
        calibrations = []
        samples = run_loop(schedule, OPS[workload], checker, ctx, NULL, passes, deadline, calibrations)
        rss = peak_rss_mb(workload)
        samples = settle(samples, checker)
        scaled, slowdowns = scale(samples, calibrations)
        metrics, failed, summary = end_to_end(scaled, setup_s, rss, len(schedule))
        raw, _, _ = end_to_end(samples, setup_s, rss, len(schedule))
        units = END_TO_END
        extra = {
            "slowdown": {"min": min(slowdowns), "median": statistics.median(slowdowns), "max": max(slowdowns)},
            "raw_metrics": raw,
        }
    correct = all(s[2] for s in samples) and not failed and not extra.get("sweep_problems")
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(ctx.root, seed),
        **summary,
        "corpus": [i.manifest() for i in items],
        "problems": checker.problems,
        "exempted": checker.exempted,
        "exemption_unused": checker.unused_exemptions(),
        **extra,
    }
    return result, record


def smoke(root):
    """One op per workload, untraced and traced; every metric must print with its unit."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    want = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    ok = want == {**END_TO_END, **PER_LAYER}
    if not ok:
        print("BENCHMARK.json metrics differ from the ones run.py prints", file=sys.stderr)
    for workload in WORKLOADS:
        for trace in (0, 1):
            ctx = make_context(root, f"smoke-{workload}-{trace}")
            try:
                result, record = measure(workload, 1, 0, trace, ctx, repeats=1, limit=1)
            finally:
                shutil.rmtree(ctx.work, ignore_errors=True)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = PER_LAYER if trace else END_TO_END
            missing = [k for k, u in expected.items() if printed.get(k) != u]
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                values.update({k: record[k] for k in SUMMARY_ONLY})
            for name, value in values.items():
                unit = {**END_TO_END, **PER_LAYER, **SUMMARY_ONLY}[name]
                print(f"{workload:13} {name:30} {value:14.4f} {unit}")
            if missing or not result["correct"]:
                ok = False
                print(f"{workload} trace={trace}: missing {missing}, correct={result['correct']}, "
                      f"problems={record['problems']}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def make_context(root, tag):
    work = os.path.join(root, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    return Context(root, work)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one op per workload; check every metric prints")
    args = parser.parse_args(argv)
    root = os.getcwd()
    load_mpvkit(root)
    if args.smoke:
        return smoke(root)
    if not args.workload:
        parser.error("--workload is required unless --smoke is given")
    ctx = make_context(root, f"{args.workload}-{args.seed}")
    try:
        result, record = measure(args.workload, args.seed, args.seconds, args.trace, ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Every run uses one string-hash seed: with per-process randomization,
    # set iteration order, and with it the time of frozenset-heavy ops,
    # differs from run to run. The CLI and probe children inherit it.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
