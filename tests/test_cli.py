import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mpvkit
from mpvkit import core
from mpvkit import (
    Instance,
    brute_force,
    emit_graph,
    emit_instance,
    parse_instance,
    random_instance,
    solve_auto,
    kernel_mtau,
    to_weighted,
    Graph,
    PartitionedGraph,
    WeightedInstance,
)
from mpvkit.cli import run
from mpvkit.solvers import _SOLVERS

from conftest import e1


@pytest.fixture
def e1_file(tmp_path):
    def _write(name="inst.mpv", **kwargs):
        path = tmp_path / name
        path.write_text(emit_instance(e1(**kwargs)))
        return str(path)

    return _write


def test_solve_yes_and_no(e1_file, capsys):
    assert run(["solve", e1_file(variant="R", ell=2)]) == 0
    assert capsys.readouterr().out == "YES\n"
    assert run(["solve", e1_file(variant="C", ell=0)]) == 1
    assert capsys.readouterr().out == "NO\n"


def test_solve_witness_output(e1_file, capsys):
    assert run(["solve", e1_file(variant="R", ell=2), "--witness"]) == 0
    out = capsys.readouterr().out
    assert out == "YES\nstage 1: 1\nstage 2: 2\nstage 3: 1\n"


@pytest.mark.parametrize("algorithm", sorted(_SOLVERS))
def test_solve_algorithms(e1_file, capsys, algorithm):
    # greedy runs only where the stages decouple, here conservative ell = 2k
    variant = "C" if algorithm == "greedy" else "R"
    assert run(["solve", e1_file(variant=variant, ell=2), "--algorithm", algorithm]) == 0
    assert capsys.readouterr().out.startswith("YES")


def test_solver_names_match_the_table(capsys):
    names = sorted(_SOLVERS)
    assert run(["solve", "--help"]) == 0
    assert "--algorithm {%s}" % ",".join(names) in capsys.readouterr().out
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    usage = re.search(r"^mpv solve INSTANCE \[--algorithm ([a-z|-]+)\]", readme, re.M)
    assert sorted(usage.group(1).split("|")) == names
    # one row of README's solver table per function in the table
    section = readme.split("\n## Solvers\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert sorted(rows) == sorted(solver.__name__ for solver, _ in _SOLVERS.values())


def test_solve_greedy_out_of_regime(e1_file, capsys):
    assert run(["solve", e1_file(variant="C", ell=1), "--algorithm", "greedy"]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_weighted_instance(tmp_path, capsys):
    path = tmp_path / "w.mpv"
    path.write_text(emit_instance(to_weighted(e1("R", ell=2))))
    assert run(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "YES\n"
    assert run(["solve", str(path), "--algorithm", "dp-tau"]) == 0
    assert capsys.readouterr().out == "YES\n"


def test_solve_budget_exit_code(tmp_path, capsys):
    rows = ((1, 2, 3, 4, 5, 6, 7, 8),) * 4
    from mpvkit import Instance

    inst = Instance(variant="C", m=8, ballots=rows, k=4, ell=8, x=1)
    path = tmp_path / "big.mpv"
    path.write_text(emit_instance(inst))
    assert run(["solve", str(path), "--algorithm", "brute", "--budget", "10"]) == 3
    assert "budget" in capsys.readouterr().err


def test_negative_budget_is_a_usage_error(e1_file, tmp_path, capsys):
    path = e1_file(variant="R", ell=2)
    for args in (["solve", path], ["bench", str(tmp_path)]):
        for value in ("-1", "abc"):
            assert run(args + [f"--budget={value}"]) == 2
            err = capsys.readouterr().err
            assert f"argument --budget: must be a non-negative integer, got '{value}'" in err
    # budget 0 is still a budget: layered-k runs out of it at once
    assert run(["solve", path, "--budget", "0"]) == 3
    assert "exceed the budget of 0" in capsys.readouterr().err


def test_missing_file_and_bad_usage(capsys, tmp_path):
    assert run(["solve", str(tmp_path / "absent.mpv")]) == 2
    capsys.readouterr()
    assert run(["frobnicate"]) == 2
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.mpv"
    bad.write_text("mpv 1\nvariant C\nagents -3\n")
    assert run(["solve", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_absurd_sizes_are_input_errors(tmp_path, capsys):
    huge = tmp_path / "huge.mpv"
    huge.write_text(
        emit_instance(e1()).replace("candidates 3", "candidates 99999999999999999999")
    )
    assert run(["solve", str(huge)]) == 2
    assert "line 4: candidates must be at most" in capsys.readouterr().err
    # rejected before any count row is allocated
    many = tmp_path / "many.mpv"
    many.write_text(
        emit_instance(e1()).replace("candidates 3", "candidates 100000").replace("stages 3", "stages 1000")
    )
    assert run(["solve", str(many)]) == 2
    assert "line 5: 1000 stages of 100000 candidates exceed" in capsys.readouterr().err


def test_transform_refuses_gadgets_it_cannot_write(tmp_path):
    # refused from the graph's sizes before the gadget is built, so each
    # call stays far under a 1 GB address-space cap; the clique gadget's
    # 100 + 3 * C(100, 2) stages are counted in full, and an edgeless graph
    # of any size is still answered yes without a gadget
    parts = "".join(" ".join(str(10 * p + j) for j in range(1, 11)) + "\n" for p in range(100))
    cases = {
        "wide": ("vc-cmpv", "graph 100000 2000\n" + "".join(f"1 {v}\n" for v in range(2, 2002))),
        "huge": ("vc-cmpv", "graph 200000000 1\n1 2\n"),
        "parts": ("mcc-cmpv", "graph 1000 0\nparts 100\n" + parts),
        "edgeless": ("vc-cmpv", "graph 200000000 0\n"),
    }
    script = (
        "import os, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from mpvkit.cli import run\n"
        "os.chdir(sys.argv[1])\n"
        "for name, reduction in zip(sys.argv[2::2], sys.argv[3::2]):\n"
        "    print(name, run(['transform', '--reduction', reduction, name]), flush=True)\n"
    )
    args = []
    for name, (reduction, text) in cases.items():
        (tmp_path / name).write_text(text)
        args += [name, reduction]
    proc = _fresh_python("-c", script, str(tmp_path), *args)
    assert proc.stdout == (
        "wide 2\nhuge 2\nparts 2\n"
        "YES (an edgeless graph is covered by the empty set)\nedgeless 0\n"
    ), proc.stderr
    assert proc.stderr.splitlines() == [
        "error: cannot emit 2000 stages of 100000 candidates: files hold at most "
        "MAX_COUNTS=10000000 counts",
        "error: cannot emit 200000000 candidates: files hold at most MAX_CANDIDATES=100000",
        "error: cannot emit 14950 stages of 1000 candidates: files hold at most "
        "MAX_COUNTS=10000000 counts",
    ]


def test_unexpected_crash_is_not_a_no(e1_file, monkeypatch, capsys):
    def crash(text):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("mpvkit.cli.parse_instance", crash)
    assert run(["solve", e1_file()]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_round_trip(e1_file, tmp_path, capsys):
    inst_path = e1_file(variant="R", ell=2)
    sol = tmp_path / "sol.txt"
    sol.write_text("stage 1: 1\nstage 2: 2\nstage 3: 1\n")
    assert run(["verify", inst_path, str(sol)]) == 0
    assert "VALID" in capsys.readouterr().out
    tight = e1_file(name="tight.mpv", variant="C", ell=0)
    assert run(["verify", tight, str(sol)]) == 1
    out = capsys.readouterr().out
    assert "symmetric difference" in out


def test_kernelize_ntau_with_mapping(tmp_path, capsys):
    from mpvkit import Instance

    inst = Instance(variant="C", m=9, ballots=((9, 8), (2, 8)), k=2, ell=1, x=1)
    src = tmp_path / "big.mpv"
    src.write_text(emit_instance(inst))
    out = tmp_path / "small.mpv"
    assert run(["kernelize", str(src), "--target", "ntau", "-o", str(out)]) == 0
    small = parse_instance(out.read_text())
    assert small.m <= small.n * small.tau
    mapping = (tmp_path / "small.mpv.map").read_text().splitlines()
    assert mapping == ["1 1", "2 2", "3 8", "4 9"]
    alt = tmp_path / "ids.map"
    assert run(
        ["kernelize", str(src), "--target", "ntau", "-o", str(out), "--mapping", str(alt)]
    ) == 0
    assert alt.read_text().splitlines() == ["1 1", "2 2", "3 8", "4 9"]


def test_kernelize_trivial_no(tmp_path, capsys):
    from mpvkit import random_instance

    inst = random_instance(1, 3, 2, 1, 3, 1, "R", seed=1)
    src = tmp_path / "t.mpv"
    src.write_text(emit_instance(inst))
    assert run(["kernelize", str(src), "--target", "ntau"]) == 1
    assert capsys.readouterr().out.startswith("NO")


@pytest.mark.parametrize("variant", ["C", "R"])
def test_kernelize_ntau_without_agents(tmp_path, capsys, variant):
    from mpvkit import Instance

    src = tmp_path / "empty.mpv"
    src.write_text(emit_instance(Instance(variant, 4, ((), ()), 2, 1, 1)))
    assert "\nagents 0\n" in src.read_text()
    assert run(["kernelize", str(src), "--target", "ntau"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("NO (") and "no agents" in captured.out
    assert captured.err == ""


def test_kernelize_notes_the_gap_on_stderr(tmp_path, capsys):
    from mpvkit import Instance

    # k = 3 > n = 1, and the 4 candidates sit strictly between n*tau = 2 and k*tau = 6
    src = tmp_path / "gap.mpv"
    src.write_text(emit_instance(Instance("R", 4, ((1,), (2,)), 3, 1, 1)))
    assert run(["kernelize", str(src), "--target", "ntau"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "note: k exceeds n and the candidate count sits between n*stages and k*stages; "
        "no reduction rule applies\n"
    )
    assert parse_instance(captured.out).m == 4


def test_kernelize_mtau(e1_file, capsys):
    assert run(["kernelize", e1_file(variant="R", ell=2), "--target", "mtau"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mpv 1")
    assert "weights" in out


def test_kernelize_mtau_without_sympy(tmp_path, monkeypatch, capsys):
    rows = ((0, 10**12 + 3, 10**12 - 1, 2), (0, 7, 5 * 10**11, 10**12))
    inst = WeightedInstance("R", 3, rows, 1, 1, 10**12)
    expected = emit_instance(kernel_mtau(inst))
    path = tmp_path / "big.mpv"
    path.write_text(emit_instance(inst))
    monkeypatch.setitem(sys.modules, "sympy", None)  # importing sympy now fails
    assert run(["kernelize", str(path), "--target", "mtau"]) == 0
    assert capsys.readouterr().out == expected
    assert "x 52\n" in expected  # the threshold did shrink


def test_transform_vc(tmp_path, capsys):
    g = Graph(4, ((1, 2), (2, 3), (3, 4)))
    src = tmp_path / "g.txt"
    src.write_text(emit_graph(g))
    out = tmp_path / "vc.mpv"
    assert run(["transform", "--reduction", "vc-cmpv", str(src), "-o", str(out)]) == 0
    inst = parse_instance(out.read_text())
    assert (inst.k, inst.ell, inst.x) == (2, 0, 1)
    assert run(["solve", str(out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("edges", [((1, 2), (1, 3), (2, 3)), ((1, 2), (1, 3), (2, 4))])
def test_transform_mcc(tmp_path, capsys, edges):
    pg = PartitionedGraph(parts=({1}, {2}, {3, 4}), edges=edges)
    clique = any({(1, 2), (1, v), (2, v)} <= set(edges) for v in (3, 4))
    src = tmp_path / "g.txt"
    src.write_text(emit_graph(pg))
    out = tmp_path / "mcc.mpv"
    assert run(["transform", "--reduction", "mcc-cmpv", str(src), "-o", str(out)]) == 0
    text = out.read_text()
    inst = parse_instance(text)
    assert f"\nagents {max(map(sum, inst.counts))}\n" in text
    assert run(["solve", str(out)]) == (0 if clique else 1)
    assert capsys.readouterr().out == ("YES\n" if clique else "NO\n")


def test_transform_edgeless_verdict(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text(emit_graph(Graph(2, ())))
    assert run(["transform", "--reduction", "vc-cmpv", str(src)]) == 0
    assert capsys.readouterr().out.startswith("YES")


def test_transform_refuses_the_wrong_graph_kind(tmp_path, capsys):
    plain, parted = tmp_path / "plain.graph", tmp_path / "parted.graph"
    plain.write_text(emit_graph(Graph(2, ((1, 2),))))
    parted.write_text(emit_graph(PartitionedGraph(({1}, {2}), ((1, 2),))))
    assert run(["transform", "--reduction", "vc-cmpv", str(parted)]) == 2
    assert capsys.readouterr().err == "error: vc_to_cmpv expects an unpartitioned graph\n"
    assert run(["transform", "--reduction", "mcc-cmpv", str(plain)]) == 2
    assert capsys.readouterr().err == "error: mcc_to_cmpv expects a partitioned graph\n"


def test_transform_chain(tmp_path, capsys):
    from mpvkit import random_instance

    inst = random_instance(2, 4, 2, 1, 0, 1, "C", seed=11)
    a = tmp_path / "a.mpv"
    a.write_text(emit_instance(inst))
    b = tmp_path / "b.mpv"
    assert run(["transform", "--reduction", "normalize-half", str(a), "-o", str(b)]) == 0
    c = tmp_path / "c.mpv"
    assert run(["transform", "--reduction", "cmpv-rmpv", str(b), "-o", str(c)]) == 0
    rev = parse_instance(c.read_text())
    assert rev.variant == "R" and rev.tau == 2 * parse_instance(b.read_text()).tau + 1
    assert run(["solve", str(a)]) == run(["solve", str(c)])
    capsys.readouterr()


@pytest.mark.parametrize(
    "reduction",
    ["vc-cmpv", "cmpv-rmpv", "normalize-half", "mcc-cmpv", "lift-ell1", "lift-ell2km2"],
)
def test_transform_refuses_extra_inputs(tmp_path, capsys, reduction):
    src = tmp_path / "g.txt"
    src.write_text(emit_graph(Graph(2, ((1, 2),))))
    assert run(["transform", "--reduction", reduction, str(src), "/nonexistent/file"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"--reduction {reduction} takes one input file" in err


def test_transform_and_compose(tmp_path, capsys):
    from mpvkit import random_instance

    paths = []
    for seed in (4, 5):
        inst = random_instance(2, 3, 2, 1, 1, 1, "C", seed=seed)
        p = tmp_path / f"{seed}.mpv"
        p.write_text(emit_instance(inst))
        paths.append(str(p))
    out = tmp_path / "and.mpv"
    assert run(["transform", "--reduction", "and-cmpv", *paths, "-o", str(out)]) == 0
    combined = parse_instance(out.read_text())
    assert combined.tau == 2 * 2 + 2
    capsys.readouterr()


def test_count_row_files_stand_for_any_number_of_agents(tmp_path, monkeypatch, capsys):
    # a file of count rows for 10**12 agents: no subcommand spells its ballots
    def no_spelling(counts, n):
        raise AssertionError("a subcommand spelled ballots")

    monkeypatch.setattr(core, "_spell", no_spelling)
    n, half = 10**12, 5 * 10**11
    inst = Instance._of_counts("C", 4, [(0, half, 0, half, 0), (0, half, 0, 0, half)], n, 3, 1, n)
    path, sol = tmp_path / "big.mpv", tmp_path / "big.sol"
    path.write_text(emit_instance(inst))
    assert path.read_text() == (
        f"mpv 1\nvariant C\nagents {n}\ncandidates 4\nstages 2\nk 3\nell 1\nx {n}\n"
        f"weights 1: {half} 0 {half} 0\nweights 2: {half} 0 0 {half}\n"
    )
    assert run(["solve", str(path), "--witness"]) == 0
    out = capsys.readouterr().out
    assert out == "YES\nstage 1: 1 3\nstage 2: 1 3 4\n"
    sol.write_text(out.partition("\n")[2])
    assert run(["verify", str(path), str(sol)]) == 0
    assert capsys.readouterr().out == "VALID\n"
    kernel, composed = tmp_path / "k.mpv", tmp_path / "and.mpv"
    assert run(["kernelize", str(path), "--target", "ntau", "-o", str(kernel)]) == 0
    assert parse_instance(kernel.read_text()) == inst
    args = ["transform", "--reduction", "and-cmpv", str(path), str(path), "-o", str(composed)]
    assert run(args) == 0
    back = parse_instance(composed.read_text())
    assert (back.n, back._ballots) == (2 * n, None)
    assert run(["solve", str(composed)]) == 0
    assert capsys.readouterr() == ("YES\n", "")


def test_generate_is_seeded(tmp_path):
    args = [
        "generate", "--variant", "C", "--agents", "3", "--candidates", "4",
        "--stages", "3", "--k", "2", "--ell", "1", "--x", "2", "--seed", "7",
    ]
    p1, p2 = tmp_path / "g1.mpv", tmp_path / "g2.mpv"
    assert run(args + ["-o", str(p1)]) == 0
    assert run(args + ["-o", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()
    inst = parse_instance(p1.read_text())
    assert (inst.n, inst.m, inst.tau) == (3, 4, 3)


def test_generate_refuses_what_solve_would_refuse(tmp_path, capsys):
    out = tmp_path / "wide.mpv"
    args = ["--variant", "C", "--agents", "2", "--stages", "1", "--k", "1", "--ell", "0"]
    args += ["--x", "1", "--seed", "0", "-o", str(out)]
    assert run(["generate", "--candidates", "300000", *args]) == 2
    assert "MAX_CANDIDATES=100000" in capsys.readouterr().err
    assert not out.exists()
    # refused before the 10**7 + 1 stage rows are drawn
    assert run(["generate", "--candidates", "9", *args, "--stages", "1000001"]) == 2
    assert "MAX_COUNTS=10000000" in capsys.readouterr().err
    assert not out.exists()
    # at the limit the file is written and solve reads it
    assert run(["generate", "--candidates", "100000", *args]) == 0
    assert run(["solve", str(out)]) == 0
    assert capsys.readouterr().out == "YES\n"


def test_bench_csv(tmp_path, e1_file, capsys):
    bench_dir = tmp_path / "instances"
    bench_dir.mkdir()
    for name, variant, ell in (("yes.mpv", "R", 2), ("no.mpv", "C", 0)):
        (bench_dir / name).write_text(emit_instance(e1(variant=variant, ell=ell)))
    (bench_dir / "notes.txt").write_text("not an instance\n")
    out = tmp_path / "bench.csv"
    code = run(
        ["bench", str(bench_dir), "--algorithms", "auto,brute,dp-tau", "-o", str(out)]
    )
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["instance", "algorithm", "answer", "states", "time_ms"]
    body = rows[1:]
    assert len(body) == 6
    answers = {(r[0], r[1]): r[2] for r in body}
    assert answers[("yes.mpv", "auto")] == "yes"
    assert answers[("no.mpv", "brute")] == "no"
    assert all(float(r[4]) >= 0 for r in body)
    capsys.readouterr()
    assert run(["bench", str(bench_dir), "--algorithms", "auto,brute,dp-tau"]) == 0
    printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert printed[0] == rows[0]
    assert [r[:4] for r in printed[1:]] == [r[:4] for r in body]


def test_bench_skips_files_that_are_not_utf8(tmp_path, capsys):
    bench_dir = tmp_path / "instances"
    bench_dir.mkdir()
    (bench_dir / "yes.mpv").write_text(emit_instance(e1(variant="R", ell=2)))
    (bench_dir / "utf16.txt").write_bytes(b"\xff\xfe" + "not an instance".encode("utf-16-le"))
    assert run(["bench", str(bench_dir), "--algorithms", "auto"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert [r[:3] for r in rows[1:]] == [["yes.mpv", "auto", "yes"]]
    # solve still reports such a file as an input error
    assert run(["solve", str(bench_dir / "utf16.txt")]) == 2
    assert "utf-8" in capsys.readouterr().err


def test_bench_usage_errors(tmp_path, monkeypatch, capsys):
    path = tmp_path / "yes.mpv"
    path.write_text(emit_instance(e1(variant="R", ell=2)))
    assert run(["bench", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {str(path)!r} is not a directory\n"
    # the unknown name and --algorithms' help both list the table's names
    names = "auto, brute, dp-tau, greedy, inout-ell, layered-k"
    assert names == ", ".join(sorted(_SOLVERS))
    assert run(["bench", str(tmp_path), "--algorithms", "auto,magic"]) == 2
    assert capsys.readouterr().err == f"error: unknown algorithm 'magic'; choose from {names}\n"
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps at hyphens too
    assert run(["bench", "--help"]) == 0
    assert f"comma-separated algorithm names from {names} (default: auto)" in capsys.readouterr().out


def test_bench_rows_for_budget_and_refusal_and_no_subdirectories(tmp_path, capsys):
    (tmp_path / "inst.mpv").write_text(emit_instance(e1(variant="C", ell=1)))
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "deeper.mpv").write_text(emit_instance(e1(variant="R", ell=2)))
    args = ["bench", str(tmp_path), "--algorithms", "layered-k,greedy", "--budget", "0"]
    assert run(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # layered-k runs out of budget 0, greedy refuses an instance out of its
    # regime, and the subdirectory is skipped
    assert list(csv.reader(io.StringIO(captured.out)))[1:] == [
        ["inst.mpv", "layered-k", "budget", "", ""],
        ["inst.mpv", "greedy", "n/a", "", ""],
    ]


def test_bench_dp_tau_matches_separate_solves(tmp_path):
    # mpv bench solves a directory in one process, in which dp-tau keeps the
    # twin tables of each shape it builds: three files share one shape
    # (C, tau 3, k 2, ell 1) and one has another (R, tau 2, k 1, ell 1)
    for n, m, tau, k, variant, seed in [(6, 8, 3, 2, "C", s) for s in range(3)] + [(5, 6, 2, 1, "R", 0)]:
        inst = random_instance(n, m, tau, k, 1, 1, variant, seed=seed)
        tight = min(sum(sorted(row[1:])[-k:]) for row in inst.counts)
        inst = Instance(variant, m, inst.ballots, k, 1, tight)
        (tmp_path / f"{variant}{tau}-{seed}.mpv").write_text(emit_instance(inst))
    proc = _fresh_python("-m", "mpvkit.cli", "bench", str(tmp_path), "--algorithms", "dp-tau")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
    assert len(rows) == 4 and {row[2] for row in rows} == {"yes", "no"}, rows
    for name, _, answer, states, _ in rows:
        # a process of its own answers at the budget of the states bench
        # counted and runs out one below it
        solve = ("-m", "mpvkit.cli", "solve", "--algorithm", "dp-tau", str(tmp_path / name), "--budget")
        assert _fresh_python(*solve, states).returncode == (0 if answer == "yes" else 1), name
        assert _fresh_python(*solve, str(int(states) - 1)).returncode == 3, name


# Wraps every solver of the table so that each call records whether numpy
# was loaded before it, then runs ``mpv`` in-process
_BENCH_AND_PROBE = (
    "import sys\n"
    "from mpvkit.cli import run\n"
    "from mpvkit.solvers import _SOLVERS\n"
    "loaded = []\n"
    "def probe(solve):\n"
    "    def call(instance, budget):\n"
    "        loaded.append('numpy' in sys.modules)\n"
    "        return solve(instance, budget)\n"
    "    return call\n"
    "for name, (solve, estimate) in list(_SOLVERS.items()):\n"
    "    _SOLVERS[name] = (probe(solve), estimate)\n"
    "code = run(sys.argv[1:])\n"
    "print('loaded:', *loaded, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_bench_loads_numpy_before_the_first_timed_solve(tmp_path):
    # greedy and layered-k on these small files load no numpy themselves,
    # and dp-tau imports it inside its timed solve: bench loads it first, so
    # no solve's time_ms includes numpy's import
    for seed in range(2):
        inst = random_instance(6, 8, 3, 2, 1, 2, "C", seed=seed)
        (tmp_path / f"C-{seed}.mpv").write_text(emit_instance(inst))
    args = ("bench", str(tmp_path), "--algorithms", "greedy,layered-k,dp-tau")
    proc = _fresh_python("-c", _BENCH_AND_PROBE, *args)
    assert proc.returncode == 0, proc.stderr
    assert len(list(csv.reader(io.StringIO(proc.stdout)))) == 7
    assert proc.stderr.strip().splitlines()[-1] == "loaded:" + " True" * 6


# ---------------------------------------------------------------------------
# numpy stays off the start-up path
# ---------------------------------------------------------------------------

# Runs ``mpv`` in-process in a fresh interpreter, then reports on stderr
# whether numpy was imported along the way.
# modules that mpv's start-up, solve and verify paths must not load
_UNUSED_BY_SOLVE = ("numpy", "dataclasses", "inspect", "mpvkit.kernel", "mpvkit.reductions")

_MPV_AND_REPORT = (
    "import sys\n"
    "from mpvkit.cli import run\n"
    "code = run(sys.argv[1:])\n"
    f"print('loaded:', *[m for m in {_UNUSED_BY_SOLVE!r} if m in sys.modules], file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _fresh_python(*args):
    # the child imports the same mpvkit as this process
    src = str(Path(mpvkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def _mpv(*args):
    """``(exit code, stdout, loaded)`` of one ``mpv`` call in a fresh interpreter.

    ``loaded`` is the set of the :data:`_UNUSED_BY_SOLVE` modules the call loaded.
    """
    proc = _fresh_python("-c", _MPV_AND_REPORT, *args)
    report = proc.stderr.strip().splitlines()[-1]
    assert report.startswith("loaded:"), proc.stderr
    return proc.returncode, proc.stdout, set(report.split()[1:])


def test_import_does_not_load_numpy():
    proc = _fresh_python("-c", "import sys, mpvkit; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_loads_no_submodule():
    script = "import sys, mpvkit; print(sorted(m for m in sys.modules if m.startswith('mpvkit')))"
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['mpvkit']\n"


def test_lazy_namespace_contract():
    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    script = f"""
import ast, importlib, mpvkit
names = mpvkit.__all__
assert set(dir(mpvkit)) >= set(names), "dir misses a name before first use"
assert sorted(mpvkit._HOMES) == sorted(names) and len(set(names)) == len(names)
scope = {{}}
exec("from mpvkit import *", scope)
assert set(scope) - {{"__builtins__"}} == set(names), "star import differs from __all__"
for name in names:
    home = importlib.import_module("mpvkit." + mpvkit._HOMES[name])
    value = getattr(mpvkit, name)
    assert value is getattr(home, name) is scope[name], name
    assert getattr(value, "__module__", home.__name__) == home.__name__, name
try:
    mpvkit.no_such_name
except AttributeError as exc:
    print(exc)
# every name the benchmark imports from mpvkit still resolves
for file in ("workloads.py", "corpus.py", "probe.py"):
    tree = ast.parse(open({str(bench)!r} + "/" + file).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mpvkit":
            for alias in node.names:
                getattr(mpvkit, alias.name)
from mpvkit import WeightedInstance, to_weighted, solve_weighted
print("ok")
"""
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'mpvkit' has no attribute 'no_such_name'\nok\n"


def test_kernel_mtau_does_not_load_sympy():
    script = (
        "import sys, types\n"
        "from mpvkit import WeightedInstance, kernel_mtau\n"
        "rows = ((0, 10**12 + 3, 10**12 - 1, 2), (0, 7, 5 * 10**11, 10**12))\n"
        "print(kernel_mtau(WeightedInstance('R', 3, rows, 1, 1, 10**12)).x)\n"
        # an entry that is no module, such as a None that blocks the import, loads nothing
        "print(any(isinstance(mod, types.ModuleType) for name, mod in sys.modules.items()\n"
        "          if name.split('.')[0] == 'sympy'))\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "52\nFalse\n"


def test_version_does_not_load_numpy():
    code, out, loaded = _mpv("--version")
    assert code == 0 and out.strip()
    assert not loaded


def test_numpy_free_solves(tmp_path):
    inout = random_instance(6, 6, 4, 3, 1, 3, "R", seed=0)
    assert solve_auto(inout).algorithm == "inout-ell"
    # layered-k files shaped like the benchmark's small layered and dp files:
    # their layers hold few enough committee pairs to scan in plain Python
    layered = [
        ("layered-yes", random_instance(6, 10, 3, 2, 1, 2, "C", seed=0)),
        ("layered-no", random_instance(6, 10, 3, 2, 1, 3, "C", seed=0)),
        ("dp-shape-yes", random_instance(8, 12, 2, 3, 1, 3, "C", seed=3)),
        ("dp-shape-no", random_instance(8, 12, 2, 3, 1, 5, "C", seed=0)),
    ]
    for name, inst in layered:
        assert solve_auto(inst).algorithm == "layered-k", name
    cases = [
        ("greedy", e1("C", ell=2), ()),
        ("inout", inout, ()),
        ("brute", e1("C", ell=1), ("--algorithm", "brute")),
        ("readme-ell3", e1("R", ell=3), ()),
        *((name, inst, ()) for name, inst in layered),
    ]
    for name, inst, extra in cases:
        path = tmp_path / f"{name}.mpv"
        path.write_text(emit_instance(inst))
        code, out, loaded = _mpv("solve", "--witness", str(path), *extra)
        answer = brute_force(inst).answer
        assert code == (0 if answer else 1), name
        assert out.startswith("YES\n" if answer else "NO\n"), name
        assert not loaded, name
        if answer:
            sol = tmp_path / f"{name}.sol"
            sol.write_text(out.split("\n", 1)[1])
            code, out, loaded = _mpv("verify", str(path), str(sol))
            assert (code, out) == (0, "VALID\n"), name
            assert not loaded, name


def test_layered_k_loads_numpy_only_above_the_python_cap(tmp_path, monkeypatch):
    # a revolutionary file's 40 candidates are all in layered-k's pool: k = 2
    # makes a committee space of 821, within SCAN_PYTHON_MAX, and k = 3
    # makes 10,701, which the numpy pass lists unless no stage reaches x:
    # the seed's top-3 stage sums are all 3, so x = 4 is listed, empty, in
    # plain Python. At k = 2, x = 2 leaves 15 committees per stage (450
    # pairs), so a fresh mpv, which has not loaded numpy, lists and scans a
    # non-empty small space in plain Python, and x = 3 leaves none; x = 1
    # leaves 225 (101,250 pairs, the only file above the cap), so a fresh
    # mpv lists them in Python, then loads numpy and lists them again from
    # the committee table
    from math import comb

    from mpvkit import emit_solution, solve_layered_k, solvers

    cap = solvers.SCAN_PYTHON_MAX
    args = ["--variant", "R", "--agents", "6", "--candidates", "40", "--stages", "3"]
    args += ["--ell", "2", "--seed", "0"]
    answers = []
    rows = ((2, 2, 821, False), (2, 3, 821, False), (2, 1, 821, True), (3, 3, 10_701, True), (3, 4, 10_701, False))
    for k, x, space, in_numpy in rows:
        path = tmp_path / f"k{k}-x{x}.mpv"
        assert _mpv("generate", *args, "--k", str(k), "--x", str(x), "-o", str(path))[0] == 0
        inst = parse_instance(path.read_text())
        assert sum(comb(40, j) for j in range(k + 1)) == space
        with monkeypatch.context() as patch:  # the plain-Python path, in process
            patch.setattr(solvers, "SCAN_PYTHON_MAX", 10**12)
            rep = solve_layered_k(inst)
        sizes = rep.stats["layer_sizes"]
        pairs = sum(a * b for a, b in zip(sizes, sizes[1:]))
        assert (pairs > cap) == (in_numpy and space <= cap), (k, x, pairs)
        code, out, loaded = _mpv("solve", "--witness", "--algorithm", "layered-k", str(path))
        assert ("numpy" in loaded) == in_numpy, (k, x)
        assert code == (0 if rep.answer else 1), (k, x)
        assert out == ("YES\n" + emit_solution(rep.witness) if rep.answer else "NO\n"), (k, x)
        if rep.answer:
            sol = tmp_path / f"k{k}-x{x}.sol"
            sol.write_text(out.split("\n", 1)[1])
            assert _mpv("verify", str(path), str(sol))[:2] == (0, "VALID\n"), (k, x)
        answers.append((rep.answer, sizes))
    # the hand-off's and the numpy pass's witnesses went through mpv
    # verify, and x = 4 is a NO with empty layers
    assert [answer for answer, _ in answers[2:]] == [True, True, False]
    assert (rep.stats["states"], sizes) == (0, [0, 0, 0])
    assert [sizes for _, sizes in answers[:3]] == [[15, 15, 15], [0, 0, 0], [225, 225, 225]], answers


def test_solve_answers_a_short_stage_without_numpy(tmp_path):
    # 40 candidates with k = 3 make a committee space of 10,701, which
    # layered-k would list in its numpy pass; but stage 1's three largest
    # counts sum to 3 < x = 4, so solve_auto answers no before any search
    from math import comb

    path = tmp_path / "short.mpv"
    args = ["--variant", "R", "--agents", "6", "--candidates", "40", "--stages", "3"]
    args += ["--k", "3", "--ell", "2", "--x", "4", "--seed", "2", "-o", str(path)]
    assert _mpv("generate", *args)[0] == 0
    inst = parse_instance(path.read_text())
    assert [sum(sorted(row, reverse=True)[:3]) for row in inst.counts] == [3, 4, 4]
    assert sum(comb(40, j) for j in range(4)) == 10_701
    code, out, loaded = _mpv("solve", "--witness", str(path))
    assert (code, out) == (1, "NO\n")
    assert not loaded


def test_no_module_imports_dataclasses_or_typing():
    # every record is a core._Record, so the package needs neither module
    import ast

    for path in sorted(Path(mpvkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            roots = {name.split(".")[0] for name in names}
            assert not roots & {"dataclasses", "typing"}, (path.name, node.lineno)


def test_generate_transform_and_kernelize_load_no_dataclasses(tmp_path):
    # each loads the one module it runs, and neither dataclasses nor inspect
    wide = tmp_path / "w.mpv"
    args = ["--variant", "C", "--agents", "2", "--candidates", "20", "--stages", "2"]
    args += ["--k", "2", "--ell", "1", "--x", "1", "--seed", "0", "-o", str(wide)]
    code, _, loaded = _mpv("generate", *args)
    assert (code, loaded) == (0, {"mpvkit.reductions"})
    graph = tmp_path / "g.graph"
    triangle = PartitionedGraph(({1, 2}, {3, 4}, {5, 6}), ((1, 3), (1, 5), (3, 5)))
    graph.write_text(emit_graph(triangle))
    code, out, loaded = _mpv("transform", "--reduction", "mcc-cmpv", str(graph))
    assert (code, loaded) == (0, {"mpvkit.reductions"}) and out.startswith("mpv 1\n")
    for target in ("ntau", "mtau"):
        code, out, loaded = _mpv("kernelize", "--target", target, str(wide))
        assert (code, loaded) == (0, {"mpvkit.kernel"}), target
        assert out.startswith("mpv 1\n"), target


def test_layered_solve_still_answers(e1_file):
    path = e1_file(variant="R", ell=2)
    assert solve_auto(parse_instance(Path(path).read_text())).algorithm == "layered-k"
    code, out, loaded = _mpv("solve", "--witness", path)
    assert (code, out) == (0, "YES\nstage 1: 1\nstage 2: 2\nstage 3: 1\n")
    assert not loaded
    # the probe sees numpy when a solver does load it: this file passes
    # dp-tau's prechecks
    code, out, loaded = _mpv("solve", "--algorithm", "dp-tau", path)
    assert (code, out) == (0, "YES\n")
    assert "numpy" in loaded  # numpy itself imports inspect



# ---------------------------------------------------------------------------
# CLI scenarios
# ---------------------------------------------------------------------------

# A scenario is a list of steps run in order in a fresh working directory.
# A step (command, code, pattern) runs the command's words through cli.run,
# which must exit with code and write a line that pattern matches (re.M) to
# stdout, or to stderr on exit 2; "COMMAND > FILE" also writes stdout to
# FILE. Any other step is a function that writes files or checks them, and
# fails by returning False. No scenario reads a file that another one wrote.


def _text(name):
    return Path(name).read_text()


def _generate(name, variant, n, m, tau, k, ell, x, seed):
    """The step that writes ``random_instance(n, m, tau, k, ell, x, variant, seed=seed)``."""
    flags = f"--variant {variant} --agents {n} --candidates {m} --stages {tau} --k {k}"
    return f"generate {flags} --ell {ell} --x {x} --seed {seed} -o {name}", 0, ""


def _solved(name, flags=""):
    """Steps: ``solve --witness`` answers YES on ``name``, and ``verify`` accepts its witness."""
    return [
        (f"solve --witness {flags} {name} > {name}.out", 0, "^YES$"),
        lambda: Path(f"{name}.sol").write_text(_text(f"{name}.out").partition("\n")[2]),
        (f"verify {name} {name}.sol", 0, "^VALID$"),
    ]


def _grep(name, pattern, found=True):
    """The step that checks whether a line of file ``name`` matches ``pattern``."""
    return lambda: (re.search(pattern, _text(name), re.M) is not None) == found


def _same(a, b):
    return lambda: _text(a) == _text(b)


def _csv(name):
    return list(csv.reader(io.StringIO(_text(name))))


def _gadget():
    Path("g.graph").write_text("graph 6 4\n1 3\n1 5\n3 5\n2 4\nparts 3\n1 2\n3 4\n5 6\n")


def _odd_tokens():
    # profile tokens 1 and 2 respelled 01 and +2, which parse as 1 and 2
    def respell(row):
        return re.sub(r" 2( |$)", r" +2\1", re.sub(r" 1( |$)", r" 01\1", row[0]))

    Path("odd.mpv").write_text(re.sub(r"^profile.*$", respell, _text("f.mpv"), flags=re.M))


_FILES = {
    "f.mpv": ("C", 3, 5, 4, 2, 1, 2, 7),  # a yes with m <= n * tau
    "r.mpv": ("R", 6, 6, 4, 3, 1, 3, 0),  # in/out-ell's home: revolutionary, ell = 1
    "w.mpv": ("C", 2, 20, 2, 2, 1, 1, 0),  # the n-tau kernel keeps at most 4 candidates
    "short.mpv": ("R", 6, 40, 3, 3, 2, 4, 2),  # stage 1's top-3 counts sum to 3 < x
    # 23 approved candidates in 5 count columns (10, 7, 3, 2 and 1 twins)
    "twins.mpv": ("C", 15, 40, 2, 4, 1, 4, 0),
}
_F = _generate("f.mpv", *_FILES["f.mpv"])

_SCENARIOS = {
    "generate-and-solve": [
        ("--version", 0, "^mpv "),
        _F,
        ("solve --witness f.mpv", 0, "^YES$"),
        # brute force runs at core.DEFAULT_BUDGET like every other solver
        ("solve --witness --algorithm brute f.mpv", 0, "^YES$"),
        ("solve --help", 0, "50000000"),
    ],
    # rows are read with one int per token and written with one %d per entry;
    # the n-tau kernel writes a file with m <= n * tau back unchanged
    "canonical-rows": [
        _F,
        ("solve --witness f.mpv > out.txt", 0, "^YES$"),
        ("kernelize --target ntau f.mpv -o same.mpv", 0, ""),
        _same("f.mpv", "same.mpv"),
        _odd_tokens,
        _grep("odd.mpv", r"^profile.* (01|\+2)( |$)"),
        ("solve --witness odd.mpv > odd.out", 0, "^YES$"),
        _same("out.txt", "odd.out"),
        ("kernelize --target ntau odd.mpv -o back.mpv", 0, ""),
        _same("f.mpv", "back.mpv"),
    ],
    # the gadget is built from counts: its 340 agents are written as one
    # `weights` row per stage and read back without spelling ballots
    "clique-gadget": [
        _gadget,
        ("transform --reduction mcc-cmpv g.graph -o g.mpv", 0, ""),
        _grep("g.mpv", "^agents 340$"),
        _grep("g.mpv", "^weights 1:"),
        *_solved("g.mpv"),
        *_solved("g.mpv", "--algorithm brute"),
    ],
    # the ROADMAP's named-C40-40-s5: the numpy pass, after the score bound
    "layered-k-numpy-pass": [
        _generate("c40.mpv", "C", 40, 40, 8, 3, 2, 6, 5),
        *_solved("c40.mpv", "--algorithm layered-k"),
    ],
    # 834 committees listed in plain Python, 198,622 pairs scanned with numpy
    "layered-k-middle-path": [
        _generate("mid.mpv", "C", 12, 18, 4, 3, 1, 3, 0),
        *_solved("mid.mpv", "--algorithm layered-k"),
    ],
    "dp-tau-twins": [
        _generate("twins.mpv", *_FILES["twins.mpv"]),
        *_solved("twins.mpv", "--algorithm dp-tau"),
    ],
    "inout-ell": [
        _generate("r.mpv", *_FILES["r.mpv"]),
        *_solved("r.mpv", "--algorithm inout-ell"),
    ],
    "and-cmpv": [
        _generate("a.mpv", "C", 3, 4, 3, 2, 1, 2, 7),
        _generate("b.mpv", "C", 3, 4, 3, 2, 1, 2, 8),
        ("transform --reduction and-cmpv a.mpv b.mpv -o and.mpv", 0, ""),
        *_solved("and.mpv", "--algorithm brute"),
    ],
    "refusals": [
        (
            "generate --variant C --agents -1 --candidates 3 --stages 2 --k 1 --ell 0 --x 1 "
            "--seed 0", 2, "^error: n must be a non-negative integer, got -1$",
        ),
        lambda: Path("plain.graph").write_text("graph 4 1\n1 2\n"),
        (
            "transform --reduction mcc-cmpv plain.graph", 2,
            "^error: mcc_to_cmpv expects a partitioned graph$",
        ),
        _F,
        ("solve --budget -1 f.mpv", 2, "argument --budget: must be a non-negative integer, got '-1'"),
    ],
    # budget refusals of sizes too long to print as an int (CPython's limit
    # is 4,300 digits) exit 3, with each size as a power of ten
    "long-refusals-wide": [
        _generate("wide.mpv", "R", 2, 20000, 3, 10000, 3000, 1, 0),
        *(
            (f"solve --algorithm {name} --budget 100 wide.mpv", 3, r"^budget exceeded: over 10\^")
            for name in ("layered-k", "brute", "inout-ell")
        ),
    ],
    "long-refusals-tall": [
        _generate("tall.mpv", "R", 2, 6, 20000, 3, 1, 1, 0),
        (
            "solve --algorithm dp-tau tall.mpv", 3,
            r"^budget exceeded: profile space of size over 10\^24082 cannot be packed",
        ),
    ],
    # generated ballots stay `profile` rows, the kernels' counts are written
    # as `weights` rows, and both kernels keep the verdict
    "kernels": [
        _generate("w.mpv", *_FILES["w.mpv"]),
        ("kernelize --target ntau w.mpv -o k.mpv", 0, ""),
        lambda: Path("k.mpv.map").is_file(),
        _grep("w.mpv", "^profile 1:"),
        _grep("w.mpv", "^weights", found=False),
        _grep("k.mpv", "^agents 2$"),
        _grep("k.mpv", "^weights 1:"),
        _grep("k.mpv", "^profile", found=False),
        ("kernelize --target mtau w.mpv -o m.mpv", 0, ""),
        *((f"solve {f}.mpv > {f}.out", 0, "^YES$") for f in "wkm"),
        _same("w.out", "k.out"),
        _same("w.out", "m.out"),
    ],
    "bench": [
        lambda: Path("bench").mkdir(),
        _generate("bench/f.mpv", *_FILES["f.mpv"]),
        _gadget,
        ("transform --reduction mcc-cmpv g.graph -o bench/g.mpv", 0, ""),
        ("bench bench --algorithms auto,brute,greedy -o bench.csv", 0, ""),
        lambda: len(_csv("bench.csv")) == 7 and "budget" not in [r[2] for r in _csv("bench.csv")],
    ],
    # one CSV row per (file, name) of solvers._SOLVERS; greedy answers on
    # the decoupled file (conservative ell = 2k)
    "bench-every-solver": [
        lambda: Path("table").mkdir(),
        _generate("table/dec.mpv", "C", 3, 5, 4, 1, 2, 1, 7),
        *(_generate(f"table/{name}", *spec) for name, spec in _FILES.items()),
        ("bench table --algorithms auto,brute,layered-k,inout-ell,dp-tau,greedy -o table.csv", 0, ""),
        lambda: len(_csv("table.csv")) == 37 and len({(r[0], r[1]) for r in _csv("table.csv")[1:]}) == 36,
        _grep("table.csv", r"^dec\.mpv,greedy,yes,.*$"),
        (
            "bench table --algorithms auto,magic", 2, "^error: unknown algorithm 'magic'; "
            "choose from auto, brute, dp-tau, greedy, inout-ell, layered-k$",
        ),
    ],
}


@pytest.mark.parametrize("name", _SCENARIOS)
def test_cli_scenario(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for i, step in enumerate(_SCENARIOS[name]):
        if callable(step):
            assert step() is not False, (name, i)
            continue
        command, code, pattern = step
        words, _, target = command.partition(" > ")
        got = run(words.split())
        out, err = capsys.readouterr()
        if target:
            Path(target).write_text(out)
        shown = err if code in (2, 3) else out  # input errors and budget refusals go to stderr
        assert got == code and re.search(pattern, shown, re.M), (step, out, err)
