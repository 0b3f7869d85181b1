"""The benchmark's workloads still run on this source tree.

perfbench/workloads.py drives the package through its public API; each
smoke repetition here runs it in a fresh interpreter on ``src`` and asserts
that every verdict check it makes holds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("mode", ["run", "trace"])
@pytest.mark.parametrize("workload", ["search", "algebra"])
def test_smoke_workload_checks_hold(workload, mode, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "workloads.py"), "--workload", workload,
         "--seed", "1", "--mode", mode, "--expected", str(PERFBENCH / "expected.json"),
         "--tmp", str(tmp_path), "--smoke"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout.splitlines()[-1])["checks"]
    assert checks and all(ok for _, ok in checks), checks
