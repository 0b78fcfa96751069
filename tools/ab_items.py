"""Time solve-mix's items on two trees' mpvkit side by side in one process.

    python tools/ab_items.py BEFORE AFTER [--seeds 1 3] [--rounds 20]
        [--solves 5] [--items PREFIX,...] [--json PATH]

BEFORE and AFTER are the ``src`` directories of two checkouts, for example
a ``git clone`` of the parent commit and this tree's ``src``. Each tree's
package is loaded under its own name (``mpvkit_before``, ``mpvkit_after``),
so both run in the same interpreter, with the same numpy and the same
machine state. The items are solve-mix's (``benchmarks/corpus.py``, which
is only read); ``--items`` keeps those whose names start with one of the
given prefixes. Each instance reaches each tree through that tree's own
``parse_instance(emit_instance(...))``.

For each seed the items are built and every item is solved once per tree,
which loads numpy and fills each tree's kept tables; the two trees must
agree on answer, witness, algorithm and states. Then come ``--rounds``
rounds with the garbage collector off. A round times ``--solves`` of
solve-mix's ops, ``solve_auto`` and then ``verify`` on a yes, per item and
tree, the trees in alternating order from round to round. Per item it
prints the median over rounds and
seeds of each tree's time per solve and their ratio AFTER/BEFORE, and last
the same for the whole pass, the sum over the items. To run under another
malloc setting, set it in the environment, for example
``MALLOC_MMAP_THRESHOLD_=131072``.
"""

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(src, name):
    """The ``mpvkit`` package under ``src``, imported as ``name``."""
    package = Path(src).resolve() / "mpvkit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def outcome(tree, instance):
    """What the two trees must agree on for one instance."""
    report = tree.solve_auto(instance)
    return report.answer, report.witness, report.algorithm, report.stats["states"]


def timed(tree, instance, solves):
    """Seconds per solve-mix op, ``solve_auto`` and then ``verify`` on a yes,
    over ``solves`` ops."""
    start = time.perf_counter()
    for _ in range(solves):
        report = tree.solve_auto(instance)
        if report.answer:
            tree.verify(instance, report.witness)
    return (time.perf_counter() - start) / solves


def compare(before_src, after_src, seeds, rounds, solves, prefixes):
    """``{item: (before_s, after_s)}``: medians over rounds and seeds, plus ``"pass"``."""
    sys.path[:0] = [str(Path(after_src).resolve()), str(ROOT / "benchmarks")]
    import corpus

    trees = load(before_src, "mpvkit_before"), load(after_src, "mpvkit_after")
    times = {}  # item: ([before per round], [after per round])
    for seed in seeds:
        items = [item for item in corpus.build("solve-mix", seed) if item.name.startswith(prefixes)]
        text = {item.name: corpus.emit_instance(item.data["instance"]) for item in items}
        cases = [[tree.parse_instance(text[item.name]) for tree in trees] for item in items]
        for item, pair in zip(items, cases):
            got = [outcome(tree, instance) for tree, instance in zip(trees, pair)]
            if got[0] != got[1]:
                raise SystemExit(f"seed {seed}, {item.name}: the trees disagree: {got[0]} != {got[1]}")
        gc.disable()
        try:
            for r in range(rounds):
                order = (0, 1) if r % 2 == 0 else (1, 0)
                for item, pair in zip(items, cases):
                    runs = times.setdefault(item.name, ([], []))
                    for side in order:
                        runs[side].append(timed(trees[side], pair[side], solves))
        finally:
            gc.enable()
    result = {name: tuple(map(statistics.median, runs)) for name, runs in times.items()}
    result["pass"] = tuple(statistics.median(map(sum, zip(*(runs[side] for runs in times.values())))) for side in (0, 1))
    return result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--solves", type=int, default=5)
    parser.add_argument("--items", default="", help="comma-separated name prefixes (default: every item)")
    parser.add_argument("--json", help="also write the medians, in ms, to this file")
    args = parser.parse_args(argv)
    prefixes = tuple(args.items.split(",")) if args.items else ("",)
    result = compare(args.before, args.after, args.seeds, args.rounds, args.solves, prefixes)
    print(f"{'item':<18} {'before ms':>10} {'after ms':>10} {'after/before':>13}")
    for name, (before, after) in result.items():
        print(f"{name:<18} {before * 1e3:>10.3f} {after * 1e3:>10.3f} {after / before:>13.3f}")
    if args.json:
        rows = {name: {"before_ms": b * 1e3, "after_ms": a * 1e3, "ratio": a / b} for name, (b, a) in result.items()}
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
