"""Smoke tests: the experiment scripts run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/reproduce_bases.py", "--max-d", "3", "--max-k", "3"],
        ["scripts/speedup_bench.py", "--n", "5", "--m", "40", "--count", "2"],
    ],
    ids=["reproduce_bases", "speedup_bench"],
)
def test_script_runs(argv):
    assert run_script(argv)


def test_speedup_bench_counts_pinned():
    # the family's answers and the det node totals; the ms columns are timings
    out = run_script(["scripts/speedup_bench.py", "--n", "9", "--m", "350", "--count", "10"])
    lines = out.splitlines()
    assert lines[0] == "family d=3 k=3 n=9 m=350 count=10 (5 sat / 5 unsat)"
    assert lines[1].split()[:3] == ["complete:", "78747", "nodes"]
    assert lines[2].split()[:3] == ["cycle:", "62622", "nodes"]
