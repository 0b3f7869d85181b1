"""Benchmark of johnson-eigen: time to a checked verdict, one cold process per repetition.

    python3 perfbench/run.py --workload search --seed 1 --seconds 57 --trace 0

Run from anywhere inside a checkout; the package is imported from its `src`.
Each repetition is a fresh interpreter (workloads.py), so every one pays
interpreter start, the import and an empty eigenspace-basis cache, as a
command-line user does. The run first times set-up (start, import and
inputs) several times, then repeats the workload until --seconds are spent.

--trace 0 prints the end-to-end metrics: the medians over the run's
repetitions of wall time, CPU time (the process and the workers it reaped)
and peak RSS, and the median of the set-ups.
--trace 1 alternates plain and traced repetitions and prints the per-layer
metrics, and writes every span to .perfbench/trace-<workload>-<seed>.json.
The last stdout line is one JSON object; lines before it are for people.
Exit code 2, with no result, when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from statistics import median, median_low
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("search", "algebra")

SETUP_SAMPLES = 15
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
# Every process ends before this many seconds from the start of the run.
RUN_DEADLINE_S = 170.0

LAYER_TIMES = (
    "minsupport.verify_bound", "minsupport.bnb", "minsupport.hyperplane",
    "exact_linalg.nullspace", "spectral.adjacency_matrix", "spectral.eigenspace_basis",
    "spectral.is_eigenfunction", "canonical.build", "canonical.match",
    "operators.induce", "operators.induce_down_one", "operators.reduce", "operators.partition",
    "johnson.apply_adjacency", "fileformat.write", "fileformat.read",
)
LAYER_COUNTS = {
    "minsupport.bnb_nodes": "count", "minsupport.hyperplane_subsets": "count",
    "minsupport.witnesses": "count", "exact_linalg.cells": "count",
    "spectral.is_eigenfunction_calls": "count", "canonical.match_calls": "count",
    "operators.support_out": "count", "johnson.scatter_terms": "count",
    "fileformat.bytes": "bytes", "cli.stdout_bytes": "bytes",
}


class Abort(Exception):
    """The program cannot be benchmarked here; no result is printed."""


class Child:
    """Starts workloads.py in a fresh interpreter and measures the process."""

    def __init__(self, workload: str, seed: int, smoke: bool, expected: Path, tmp: Path, deadline: float):
        self.base = [
            sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--expected", str(expected), "--tmp", str(tmp),
        ] + (["--smoke"] if smoke else [])
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORKDIR / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.deadline = deadline

    def run(self, mode: str) -> dict:
        """One repetition: wall, CPU and peak RSS of the process tree, and its report.

        CPU and peak RSS come from wait4, which covers the child and every
        worker process it reaped. report is None when the child crashed,
        exited nonzero or was stopped at the run's deadline.
        """
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.base + ["--mode", mode], env=self.env, stdout=subprocess.PIPE)
        killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = None
        if proc.returncode == 0:
            try:
                report = json.loads(out.decode().splitlines()[-1])
            except (IndexError, ValueError):
                pass
        return {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024,
            "report": report,
        }


def report_failures(mode: str, report: dict | None, reference: dict | None) -> list[str]:
    """Labels of the failed checks of one repetition.

    A repetition fails as a whole when it crashed, exited nonzero or timed
    out, or when its verdicts (or, untraced, its counters) differ from the
    first plain repetition's.
    """
    if report is None:
        return [f"{mode} repetition crashed, exited nonzero or timed out"]
    bad = [label for label, ok in report["checks"] if not ok]
    if reference is not None and (
        report["digest"] != reference["digest"]
        or mode == "run" and report["counters"] != reference["counters"]
    ):
        bad.append(f"{mode} repetition differs from the first in verdicts or counters")
    return bad


def layer_values(report: dict) -> dict:
    """Per-layer metrics of one traced repetition: inclusive span time per layer,
    the counters, rates, and the root span's time outside every layer span."""
    spans = report["spans"]
    times = dict.fromkeys(LAYER_TIMES, 0.0)
    children_of_root = 0.0
    for name, start, end, parent in spans:
        if name in times:
            times[name] += end - start
        if parent == 0:
            children_of_root += end - start
    values = {f"{name}_s": t for name, t in times.items()}
    counters = report["layer_counters"]
    for name in LAYER_COUNTS:
        values[name] = counters.get(name, 0)
    bnb_s, hyper_s = values["minsupport.bnb_s"], values["minsupport.hyperplane_s"]
    values["minsupport.bnb_nodes_per_s"] = values["minsupport.bnb_nodes"] / bnb_s if bnb_s else 0.0
    values["minsupport.hyperplane_subsets_per_s"] = (
        values["minsupport.hyperplane_subsets"] / hyper_s if hyper_s else 0.0
    )
    root_start, root_end = spans[0][1], spans[0][2]
    values["trace.unaccounted_s"] = (root_end - root_start) - children_of_root
    return values


def per_layer_units() -> dict:
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units.update(LAYER_COUNTS)
    units.update({
        "minsupport.bnb_nodes_per_s": "1/s", "minsupport.hyperplane_subsets_per_s": "1/s",
        "trace.overhead_s": "s", "trace.unaccounted_s": "s",
    })
    return units


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool = False, expected: Path = HERE / "expected.json") -> dict:
    """Measure one workload: the result object, the summary lines, the counters
    of the first plain repetition and the error rate."""
    if not (SRC / "johnson_eigen" / "__init__.py").is_file():
        raise Abort(f"no package at {SRC / 'johnson_eigen'}")
    start = time.monotonic()
    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORKDIR, prefix="tmp-"))
    try:
        child = Child(workload, seed, smoke, expected, tmp, start + RUN_DEADLINE_S)
        # fills the byte-code cache; a user's installed package has one too
        if child.run("setup")["report"] is None:
            raise Abort("the workload's set-up failed")
        setup = [child.run("setup")["wall"] for _ in range(SETUP_SAMPLES)]

        modes = ("run", "trace") if trace else ("run",)
        min_rounds = MIN_TRACED_PAIRS if trace else MIN_REPS
        reps = {"run": [], "trace": []}
        attempted, failures = 0, []
        reference = None  # the first plain report: its verdict digest and counters
        t_measure = time.monotonic()
        while True:
            for mode in modes:
                rep = child.run(mode)
                reps[mode].append(rep)
                report = rep["report"]
                if report is not None and reference is None and mode == "run":
                    reference = report
                # every check of the report, plus one for the repetition as a whole
                attempted += 1 + (len(report["checks"]) if report else 0)
                failures += report_failures(mode, report, reference)
            per_round = sum(median([r["wall"] for r in reps[mode]]) for mode in modes)
            now = time.monotonic()
            if now + per_round > start + RUN_DEADLINE_S - 10:
                break
            if len(reps["run"]) >= min_rounds and now - t_measure + per_round > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # a repetition that failed gave no verdict, so its time is not a time to one
    plain = [r for r in reps["run"] if r["report"] is not None] or reps["run"]
    traced = [r for r in reps["trace"] if r["report"] is not None]
    counters = reference["counters"] if reference else None
    failed = len(failures)
    if trace and not traced:
        raise Abort("no traced repetition completed")
    walls = [r["wall"] for r in plain]
    cpus = [r["cpu"] for r in plain]
    summary = [
        f"workload {workload} seed {seed}: {len(plain)} repetitions, {len(setup)} set-ups",
        f"  wall_s fastest {min(walls):.4f} median {median(walls):.4f} slowest {max(walls):.4f}",
        f"  cpu_s fastest {min(cpus):.4f} median {median(cpus):.4f}  "
        f"peak_rss_mib median {median([r['rss_mib'] for r in plain]):.2f}  "
        f"setup_s median {median(setup):.4f}",
        f"  error_rate {failed}/{attempted} = {failed / attempted:.4f}",
        f"  counters {json.dumps(counters, sort_keys=True)}",
    ] + [f"  FAILED: {label}" for label in failures]
    if trace:
        units = per_layer_units()
        layers = [layer_values(r["report"]) for r in traced]
        # median_low keeps a count an integer and every value one that was measured
        values = {name: median_low([v[name] for v in layers])
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = median([r["wall"] for r in traced]) - median(walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        write_trace(workload, seed, traced)
    else:
        # Medians, not the fastest repetition: on a shared host other tenants
        # slow every process for tens of seconds at a time. Over 600 s of
        # repetitions of the J(9,4) bases on a shared 2-vCPU virtual machine,
        # the median of a 28 s window moved 5.4% between windows (quartile
        # distance over median), and the fastest repetition 13%.
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "cpu_s": {"value": median(cpus), "unit": "s"},
            "peak_rss_mib": {"value": median([r["rss_mib"] for r in plain]), "unit": "MiB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "summary": summary, "counters": counters, "error_rate": failed / attempted}


def write_trace(workload: str, seed: int, traced: list) -> None:
    spans = []
    for k, rep in enumerate(traced):
        wid = f"{workload}/{seed}/{k}"
        for name, start, end, parent in rep["report"]["spans"]:
            spans.append({"name": name, "start": start, "end": end, "parent": parent, "workload_id": wid})
    (WORKDIR / f"trace-{workload}-{seed}.json").write_text(json.dumps({"spans": spans}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
