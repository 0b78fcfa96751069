"""Command-line front end.

``mpv solve|verify|kernelize|transform|generate|bench``; every
subcommand reads and writes the plain-text formats from
:mod:`mpvkit.formats`. Exit codes: 0 yes/valid, 1 no/invalid, 2 usage,
input or unexpected error, 3 exploration budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .core import BudgetExceededError, DEFAULT_BUDGET, TrivialVerdict, _natural, verify
from .formats import (
    FormatError,
    _check_emittable,
    emit_instance,
    emit_solution,
    parse_graph,
    parse_instance,
    parse_solution,
)
from .solvers import _SOLVERS

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3

# name -> function of :mod:`mpvkit.reductions`, in the order ``--reduction``
# lists them; the kernel and reduction modules are imported only by the
# subcommands that call them
_REDUCTIONS = {
    "vc-cmpv": "vc_to_cmpv",
    "cmpv-rmpv": "cmpv_to_rmpv",
    "normalize-half": "cmpv_normalize_half",
    "mcc-cmpv": "mcc_to_cmpv",
    "lift-ell1": "lift_ell1",
    "lift-ell2km2": "lift_ell_2km2",
    "and-cmpv": "and_compose_cmpv",
    "and-rmpv": "and_compose_rmpv",
}


def _write_output(text: str, path):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


_NAMES = ", ".join(sorted(_SOLVERS))
_BUDGET_HELP = "state exploration budget, in the solver's own unit (default: %(default)s)"


def _budget(text):
    """``--budget`` value: a non-negative integer, by :func:`~mpvkit.core._natural`'s rule."""
    try:
        return _natural("budget", int(text), 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    instance = parse_instance(Path(args.instance).read_text())
    report = _SOLVERS[args.algorithm][0](instance, budget=args.budget)
    print("YES" if report.answer else "NO")
    if args.witness and report.witness is not None:
        sys.stdout.write(emit_solution(report.witness))
    return EXIT_YES if report.answer else EXIT_NO


def _cmd_verify(args) -> int:
    instance = parse_instance(Path(args.instance).read_text())
    committees = parse_solution(Path(args.solution).read_text(), instance)
    violations = verify(instance, committees)
    if violations:
        for violation in violations:
            print(violation)
        return EXIT_NO
    print("VALID")
    return EXIT_YES


def _cmd_kernelize(args) -> int:
    from .kernel import kernel_mtau, kernel_ntau_cmpv, kernel_ntau_rmpv

    instance = parse_instance(Path(args.instance).read_text())
    if args.target == "mtau":
        _write_output(emit_instance(kernel_mtau(instance)), args.output)
        return EXIT_YES
    if instance.variant == "C":
        result = kernel_ntau_cmpv(instance)
    else:
        result = kernel_ntau_rmpv(instance)
    if result.verdict is not None:
        print(f"NO ({result.verdict.reason})")
        return EXIT_NO
    if result.gap:
        print(
            "note: k exceeds n and the candidate count sits between "
            "n*stages and k*stages; no reduction rule applies",
            file=sys.stderr,
        )
    _write_output(emit_instance(result.instance), args.output)
    mapping_path = args.mapping
    if mapping_path is None and args.output:
        mapping_path = args.output + ".map"
    if mapping_path:
        lines = [f"{new} {old}" for new, old in sorted(result.id_map.items())]
        Path(mapping_path).write_text("\n".join(lines) + "\n")
    return EXIT_YES


def _cmd_transform(args) -> int:
    from . import reductions

    name = args.reduction
    reduction = getattr(reductions, _REDUCTIONS[name])
    texts = [Path(p).read_text() for p in args.inputs]
    if name in ("vc-cmpv", "mcc-cmpv"):
        graph = parse_graph(texts[0])
        nv, ne, q = graph.num_vertices, len(graph.edges), len(getattr(graph, "parts", ()))
        # before building what cannot be written; an edgeless vc-cmpv is a verdict
        if name == "mcc-cmpv":
            _check_emittable(nv + ne, q + 3 * q * (q - 1) // 2)
        elif ne:
            _check_emittable(nv, ne)
        result = reduction(graph)
    elif name.startswith("and-"):
        result = reduction([parse_instance(text) for text in texts])
    else:
        result = reduction(parse_instance(texts[0]))
    if isinstance(result, TrivialVerdict):
        print(f"{'YES' if result.answer else 'NO'} ({result.reason})")
        return EXIT_YES if result.answer else EXIT_NO
    _write_output(emit_instance(result), args.output)
    return EXIT_YES


def _cmd_generate(args) -> int:
    from .reductions import random_instance

    _check_emittable(args.candidates, args.stages)  # before building what cannot be written
    instance = random_instance(
        n=args.agents,
        m=args.candidates,
        tau=args.stages,
        k=args.k,
        ell=args.ell,
        x=args.x,
        variant=args.variant,
        abstain_probability=args.abstain_probability,
        seed=args.seed,
    )
    _write_output(emit_instance(instance), args.output)
    return EXIT_YES


def _cmd_bench(args) -> int:
    import csv

    directory = Path(args.directory)
    if not directory.is_dir():
        raise ValueError(f"{args.directory!r} is not a directory")
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for name in algorithms:
        if name not in _SOLVERS:
            raise ValueError(f"unknown algorithm {name!r}; choose from {_NAMES}")
    import numpy  # noqa: F401  -- loaded before the first timed solve, so no time_ms includes it

    rows = []
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        try:
            instance = parse_instance(path.read_text())
        except (FormatError, UnicodeDecodeError):
            continue  # directories often hold .map sidecars, notes and binaries
        for name in algorithms:
            try:
                report = _SOLVERS[name][0](instance, budget=args.budget)
            except BudgetExceededError:
                outcome = ["budget", "", ""]
            except ValueError:
                outcome = ["n/a", "", ""]
            else:
                states, ms = report.stats.get("states", ""), report.stats.get("time_ms", 0.0)
                outcome = ["yes" if report.answer else "no", str(states), f"{ms:.3f}"]
            rows.append([path.name, name, *outcome])
    target = open(args.output, "w", newline="") if args.output else nullcontext(sys.stdout)
    with target as handle:
        writer = csv.writer(handle)
        writer.writerow(["instance", "algorithm", "answer", "states", "time_ms"])
        writer.writerows(rows)
    return EXIT_YES


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpv",
        description="Exact solvers and instance tooling for multistage plurality voting.",
    )
    parser.add_argument("--version", action="version", version=f"mpv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance file")
    p.add_argument("instance", help="instance file")
    p.add_argument(
        "--algorithm",
        choices=sorted(_SOLVERS),
        default="auto",
        help="solver to run (default: auto)",
    )
    p.add_argument("--witness", action="store_true", help="print a committee sequence on yes")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help=_BUDGET_HELP)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("instance", help="instance file")
    p.add_argument("solution", help="solution file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("kernelize", help="shrink an instance")
    p.add_argument("instance", help="instance file")
    p.add_argument("--target", choices=("ntau", "mtau"), required=True)
    p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    p.add_argument(
        "--mapping",
        default=None,
        help="id-mapping sidecar path (default: OUTPUT.map when -o is given)",
    )
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("transform", help="apply a reduction or lift")
    p.add_argument(
        "--reduction",
        choices=tuple(_REDUCTIONS),
        required=True,
    )
    p.add_argument(
        "inputs", nargs="+", help="input file; several for and-cmpv and and-rmpv"
    )
    p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("generate", help="emit a seeded random instance")
    p.add_argument("--variant", choices=("C", "R"), required=True)
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--candidates", type=int, required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--abstain-probability", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="time algorithms over a directory of instances")
    p.add_argument("directory", help="directory of instance files")
    p.add_argument(
        "--algorithms",
        default="auto",
        help=f"comma-separated algorithm names from {_NAMES} (default: auto)",
    )
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help=_BUDGET_HELP)
    p.add_argument("-o", "--output", default=None, help="CSV output file (default: stdout)")
    p.set_defaults(func=_cmd_bench)
    return parser


def run(argv=None) -> int:
    """Parse ``argv`` and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "transform" and len(args.inputs) > 1:
            if not args.reduction.startswith("and-"):  # only AND-compositions take several
                parser.error(f"transform --reduction {args.reduction} takes one input file")
    except SystemExit as exc:
        # argparse already printed usage or version text
        return EXIT_YES if not exc.code else EXIT_ERROR
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash must not exit with the "no" code
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
