"""Smoke tests: the experiment scripts run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/reproduce_bases.py", "--max-d", "3", "--max-k", "3"],
        ["scripts/speedup_bench.py", "--n", "5", "--m", "40", "--count", "2"],
    ],
    ids=["reproduce_bases", "speedup_bench"],
)
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
