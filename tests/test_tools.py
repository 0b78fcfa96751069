import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _exec_lines(*paths):
    """``({path: count}, total)`` as tools/exec_lines.py prints them."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "exec_lines.py"), *map(str, paths)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
        check=True,
    )
    *files, last = (line.split(" ", 1) for line in proc.stdout.splitlines())
    assert last[1] == "total", proc.stdout
    return {path: int(count) for count, path in files}, int(last[0])


def test_exec_lines_counts_code_only(tmp_path):
    # every module of src/, the total their sum; on a copy of solvers.py a
    # comment, a blank line, a longer docstring and a trailing comment
    # leave the count unchanged, and one more statement adds one
    counts, total = _exec_lines("src")
    assert sorted(Path(path).name for path in counts) == sorted(p.name for p in (ROOT / "src" / "mpvkit").glob("*.py"))
    assert total == sum(counts.values()) and min(counts.values()) > 0, counts
    source = (ROOT / "src" / "mpvkit" / "solvers.py").read_text(encoding="utf-8")
    opening = 'def _kept(key, build):\n    """'
    assert source.count(opening) == 1
    edited = "# a comment\n\n" + source.replace(opening, 'def _kept(key, build):  # the store\n    """One more line.\n\n    ')
    copy, grown = tmp_path / "solvers.py", tmp_path / "grown.py"
    copy.write_text(edited, encoding="utf-8")
    grown.write_text(edited + "\nSTATEMENT = 1\n", encoding="utf-8")
    counts_copy, _ = _exec_lines(copy, grown)
    assert counts_copy == {str(copy): counts["src/mpvkit/solvers.py"], str(grown): counts["src/mpvkit/solvers.py"] + 1}


def test_ab_items_runs_the_repo_against_itself(tmp_path):
    # one round of two solve-mix items, this tree's src as both trees:
    # the trees agree, and every item and the pass get two positive times
    out = tmp_path / "ab.json"
    src = str(ROOT / "src")
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_items.py"), src, src, "--seeds", "1", "--rounds", "1",
         "--solves", "1", "--items", "layered-yes,dp-no", "--json", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(rows) == ["dp-no", "layered-yes", "pass"], rows
    assert all(row["before_ms"] > 0 and row["after_ms"] > 0 for row in rows.values()), rows
