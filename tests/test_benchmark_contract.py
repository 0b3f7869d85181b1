"""The benchmark's workloads still run on this source tree.

perfbench/workloads.py drives the package through its public API; each
smoke repetition here, and one full-size ``algebra`` repetition, runs it in
a fresh interpreter on ``src`` and asserts that every verdict check it makes
holds. The full-size searches run in-process against the stdout bytes the
benchmark expects.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from johnson_eigen.cli import run

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workload_checks(workload, mode, tmp_path, smoke):
    """The verdict checks of one repetition of the workload, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "workloads.py"), "--workload", workload,
         "--seed", "1", "--mode", mode, "--expected", str(PERFBENCH / "expected.json"),
         "--tmp", str(tmp_path)] + (["--smoke"] if smoke else []),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["checks"]


@pytest.mark.parametrize("mode", ["run", "trace"])
@pytest.mark.parametrize("workload", ["search", "algebra"])
def test_smoke_workload_checks_hold(workload, mode, tmp_path):
    checks = _workload_checks(workload, mode, tmp_path, smoke=True)
    assert checks and all(ok for _, ok in checks), checks


def test_full_size_algebra_checks_hold(tmp_path):
    # the J(9,4) basis digests and the J(16,6) i=3 operator chain of expected.json
    checks = _workload_checks("algebra", "run", tmp_path, smoke=False)
    assert any(label.startswith("J(9,4)") for label, _ in checks)
    assert all(ok for _, ok in checks), checks


def _search_cells():
    """The (n, w, i) of each search cell the benchmark pins, from its keys "J(n,w) i=i"."""
    expected = json.loads((PERFBENCH / "expected.json").read_text())["search"]
    cells = [tuple(map(int, re.fullmatch(r"J\((\d+),(\d+)\) i=(\d+)", key).groups())) for key in expected]
    return expected, cells


def test_full_size_search_stdout_is_the_benchmark_bytes():
    # the four `minsupport --algo both --json` calls of the search workload, in-process
    expected, cells = _search_cells()
    assert len(cells) == 4
    for n, w, i in cells:
        argv = ["minsupport", "--n", str(n), "--w", str(w), "--i", str(i),
                "--algo", "both", "--threads", "2", "--json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv)
        assert code == 0
        assert buf.getvalue() == expected[f"J({n},{w}) i={i}"]
