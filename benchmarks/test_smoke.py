"""The benchmark's own test: ``run.py --smoke`` prints every metric with its unit."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok"}
