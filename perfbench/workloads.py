"""One cold repetition of a benchmark workload, run in a fresh interpreter.

run.py starts this file once per repetition with ``src`` on PYTHONPATH, so
every repetition pays interpreter start, ``import johnson_eigen`` and the
empty ``spectral`` basis cache, as a command-line user does. The last line
of stdout is one JSON object: the verdict checks made, the deterministic
counters, a digest of the verdicts and, in traced mode, the spans.

Modes:
  setup   import the package and build the workload's inputs, then exit
  run     the workload as a user runs it (the CLI for the searches)
  trace   the same work decomposed into public calls, each inside a span

Only public names of johnson_eigen are used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import time
from pathlib import Path

import johnson_eigen
from johnson_eigen import (
    JohnsonParams,
    adjacency_matrix,
    apply_adjacency,
    binomial,
    build_canonical,
    coordinate_partition,
    default_pairing,
    eigenspace_basis,
    eigenvalue,
    induce,
    induce_down_one,
    is_eigenfunction,
    match_canonical,
    min_support_bnb,
    min_support_hyperplane,
    nullspace,
    rank_subset,
    read_function,
    reduce,
    write_function,
)
from johnson_eigen.canonical import PairingConfig
from johnson_eigen.cli import run as cli_run
from johnson_eigen.fileformat import dumps_document, rational_to_string
from johnson_eigen.minsupport import DEFAULT_NODE_BUDGET, DEFAULT_SUBSET_BUDGET, DEFAULT_WITNESS_CAP
from johnson_eigen.spectral import EigenspaceBasis

WORKLOADS = ("search", "algebra")

# (n, w, i) instances of the searches; the graph of the bases and the
# (n, w, i) of the operator chain, which together make up "algebra". The
# smoke sizes keep the test suite fast.
SIZES = {
    False: {
        "search": [(8, 2, 2), (5, 2, 1), (6, 2, 1), (6, 3, 1)],
        "eigenbasis": (9, 4),
        "sparse_ops": (16, 6, 3),
    },
    True: {
        "search": [(5, 2, 1)],
        "eigenbasis": (8, 3),
        "sparse_ops": (10, 4, 2),
    },
}

# Workers for the hyperplane scan, never more than the machine has.
SEARCH_THREADS = min(2, os.cpu_count() or 1)


class Tracer:
    """Spans and counters kept in memory for one repetition."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, k: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + k


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    counters: dict[str, int] = {}
    spans: list = []

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, k: int) -> None:
        pass


class Checks:
    """Verdict checks of one repetition; a failed check is recorded, never raised."""

    def __init__(self):
        self.items: list[tuple[str, bool]] = []

    def check(self, label: str, ok: bool) -> None:
        self.items.append((label, bool(ok)))


def build_inputs(workload: str, seed: int, smoke: bool):
    """The workload's inputs; only the operator chain draws from the seed."""
    sizes = SIZES[smoke]
    if workload == "search":
        return [
            ((n, w, i), ["minsupport", "--n", str(n), "--w", str(w), "--i", str(i),
                         "--algo", "both", "--threads", str(SEARCH_THREADS), "--json"])
            for n, w, i in sizes["search"]
        ]
    n, w, i = sizes["sparse_ops"]
    coords = random.Random(seed).sample(range(n), 2 * i)
    pairing = PairingConfig(tuple((coords[2 * k], coords[2 * k + 1]) for k in range(i)))
    ops = (JohnsonParams(n, w), i, pairing, random.Random(seed + 1).randrange(i))
    return JohnsonParams(*sizes["eigenbasis"]), ops


def instance_key(n: int, w: int, i: int) -> str:
    return f"J({n},{w}) i={i}"


def basis_digest(matrix) -> str:
    text = f"{matrix.rows}x{matrix.cols};" + ";".join(str(x) for x in matrix.data)
    return hashlib.sha256(text.encode()).hexdigest()


# -- searches -----------------------------------------------------------------


def search_run(inputs, expected, checks: Checks, counters: dict) -> list[str]:
    """Each instance through the CLI, as `johnson-eigen minsupport ... --json`."""
    outputs = []
    for (n, w, i), argv in inputs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_run(argv)
        text = buf.getvalue()
        key = instance_key(n, w, i)
        checks.check(f"{key} exit 0 and stdout as expected", code == 0 and text == expected.get(key))
        if code == 0:
            stats = json.loads(text)["stats"]
            counters[f"{key} nodes"] = stats["nodes"]
            counters[f"{key} subsets"] = stats["subsets"]
        counters[f"{key} stdout_bytes"] = len(text.encode())
        outputs.append(text)
    return outputs


def traced_eigenspace(tr, params: JohnsonParams, i: int) -> EigenspaceBasis:
    """eigenspace_basis decomposed: dense adjacency, then the nullspace of A - lambda I."""
    lam = eigenvalue(params, i)
    with tr.span("spectral.eigenspace_basis"):
        with tr.span("spectral.adjacency_matrix"):
            shifted = adjacency_matrix(params)
        nverts = shifted.rows
        for r in range(nverts):
            shifted.data[r * nverts + r] -= lam
        with tr.span("exact_linalg.nullspace"):
            basis = nullspace(shifted)
    tr.count("exact_linalg.cells", nverts * nverts)
    return EigenspaceBasis(params, i, lam, basis)


def traced_is_eigenfunction(tr, f, lam):
    with tr.span("spectral.is_eigenfunction"):
        verdict = is_eigenfunction(f, lam)
    tr.count("spectral.is_eigenfunction_calls", 1)
    return verdict


def traced_search(tr, n: int, w: int, i: int, threads: int) -> dict:
    """verify_bound and the CLI's --json payload, one public call per span."""
    params = JohnsonParams(n, w)
    with tr.span("minsupport.verify_bound"):
        space = traced_eigenspace(tr, params, i)
        hint = None
        if w - i <= n - 2 * i:
            with tr.span("canonical.build"):
                f_can = build_canonical(params, default_pairing(i))
            verdict = traced_is_eigenfunction(tr, f_can, space.lam)
            if not verdict.holds or verdict.is_zero:
                raise RuntimeError("canonical function failed eigenfunction verification")
            hint = f_can.support_size
        with tr.span("minsupport.bnb"):
            report = min_support_bnb(space, DEFAULT_NODE_BUDGET, DEFAULT_WITNESS_CAP, upper_bound_hint=hint)
        tr.count("minsupport.bnb_nodes", report.stats.nodes)
        if not report.proven_optimal:
            raise RuntimeError("node budget exhausted")
        algorithms = ["bnb"]
        hyper = None
        d = space.dimension
        if d >= 2 and math.comb(space.basis.rows, d - 1) <= DEFAULT_SUBSET_BUDGET:
            with tr.span("minsupport.hyperplane"):
                hyper = min_support_hyperplane(space, DEFAULT_SUBSET_BUDGET, DEFAULT_WITNESS_CAP, threads)
            tr.count("minsupport.hyperplane_subsets", hyper.stats.subsets)
            algorithms.append("hyperplane")
            if hyper.min_support != report.min_support:
                raise RuntimeError("the two oracles disagree")
        witnesses = list(report.witnesses)
        if hyper is not None:
            seen = {tuple(sorted(f.entries.items())) for f in witnesses}
            for f in hyper.witnesses:
                key = tuple(sorted(f.entries.items()))
                if key not in seen:
                    witnesses.append(f)
                    seen.add(key)
            witnesses = witnesses[:DEFAULT_WITNESS_CAP]
        for f in witnesses:
            verdict = traced_is_eigenfunction(tr, f, space.lam)
            if not verdict.holds or verdict.is_zero or f.support_size != report.min_support:
                raise RuntimeError("unsound witness")
        tr.count("minsupport.witnesses", len(witnesses))
        matches = []
        for f in witnesses:
            with tr.span("canonical.match"):
                matches.append(match_canonical(f, i) is not None)
            tr.count("canonical.match_calls", 1)
        hit_bound = report.min_support == report.bound and report.bound > 0
    return {
        "n": n,
        "w": w,
        "i": i,
        "lambda": space.lam,
        "dim": d,
        "algorithm": "+".join(algorithms),
        "min_support": report.min_support,
        "bound": report.bound,
        "attained_by_canonical": hit_bound and any(matches),
        "all_witnesses_canonical": hit_bound and bool(matches) and all(matches),
        "proven_optimal": report.proven_optimal,
        "stats": {"nodes": report.stats.nodes, "subsets": hyper.stats.subsets if hyper else 0},
        "witnesses": [
            [[rank_subset(x), rational_to_string(f.entries[x])] for x in f.support]
            for f in witnesses
        ],
    }


def search_trace(tr, inputs, expected, checks: Checks, threads: int) -> list[str]:
    outputs = []
    for (n, w, i), _argv in inputs:
        text = dumps_document(traced_search(tr, n, w, i, threads))
        tr.count("cli.stdout_bytes", len(text.encode()))
        key = instance_key(n, w, i)
        checks.check(f"{key} decomposed payload as expected", text == expected.get(key))
        outputs.append(text)
    return outputs


# -- eigenspace bases ------------------------------------------------------------


def eigenbasis_work(tr, params: JohnsonParams, traced: bool, expected, checks: Checks, counters: dict):
    digests = []
    for i in range(params.w + 1):
        if traced:
            space = traced_eigenspace(tr, params, i)
        else:
            space = eigenspace_basis(params, i)
        digest = basis_digest(space.basis)
        dim = binomial(params.n, i) - binomial(params.n, i - 1)
        key = instance_key(params.n, params.w, i)
        checks.check(f"{key} dim {dim} and basis as expected",
                     space.dimension == dim and digest == expected.get(key))
        counters[f"{key} dim"] = space.dimension
        digests.append(digest)
    return digests


# -- matrix-free operator chain ---------------------------------------------------


def sparse_ops_work(tr, inputs, tmp: Path, checks: Checks, counters: dict):
    """canonical -> eigen check -> A f -> induce up and down -> reduce -> partition
    -> match -> file round trip, each result checked against the theory."""
    params, i, pairing, reduce_pair = inputs
    n, w = params.n, params.w
    lam = eigenvalue(params, i)
    with tr.span("canonical.build"):
        f = build_canonical(params, pairing)
    verdict = traced_is_eigenfunction(tr, f, lam)
    checks.check("canonical is an eigenfunction", verdict.holds and not verdict.is_zero)

    with tr.span("johnson.apply_adjacency"):
        af = apply_adjacency(f)
    tr.count("johnson.scatter_terms", f.support_size * params.degree)
    checks.check("A f == lambda f", af == f.scale(lam))

    up_params = JohnsonParams(n, w + 1)
    with tr.span("operators.induce"):
        up = induce(f, w + 1)
    with tr.span("canonical.build"):
        up_ref = build_canonical(up_params, pairing)
    verdict = traced_is_eigenfunction(tr, up, eigenvalue(up_params, i))
    checks.check("induce(f) == (w+1-i) * canonical on J(n,w+1), an eigenfunction",
                 up == up_ref.scale(w + 1 - i) and verdict.holds and not verdict.is_zero)

    with tr.span("operators.induce_down_one"):
        down = induce_down_one(f)
    checks.check("induce_down_one(f) is nonzero", not down.is_zero())

    j1, j2 = pairing.pairs[reduce_pair]
    with tr.span("operators.reduce"):
        red = reduce(f, j1, j2)
    verdict = traced_is_eigenfunction(tr, red, eigenvalue(JohnsonParams(n - 2, w - 1), i - 1))
    checks.check("reduce(f) is an eigenfunction one index lower",
                 verdict.holds and not verdict.is_zero)
    tr.count("operators.support_out", up.support_size + down.support_size + red.support_size)

    with tr.span("operators.partition"):
        part = coordinate_partition(f)
    singles = set(part.singletons())
    checks.check("paired coordinates are singleton blocks", pairing.coordinates() <= singles)

    with tr.span("canonical.match"):
        match = match_canonical(f, i)
    tr.count("canonical.match_calls", 1)
    checks.check(
        "match recovers the pairing",
        match is not None
        and {frozenset(p) for p in match.pairing.pairs} == {frozenset(p) for p in pairing.pairs}
        and build_canonical(params, match.pairing).scale(match.scalar) == f,
    )

    path = tmp / f"sparse_ops-{os.getpid()}.json"
    with tr.span("fileformat.write"):
        write_function(str(path), f, i)
    written = path.read_bytes()
    with tr.span("fileformat.read"):
        back, back_index = read_function(str(path))
    write_function(str(path), back, back_index)
    checks.check("file round trip is byte-identical",
                 back == f and back_index == i and path.read_bytes() == written)
    path.unlink()
    tr.count("fileformat.bytes", len(written))

    counters.update({
        "support f": f.support_size, "support induce": up.support_size,
        "support induce_down_one": down.support_size, "support reduce": red.support_size,
        "partition blocks": part.t, "file bytes": len(written),
    })
    return [written.decode(), repr(part.blocks), repr(match), repr(sorted(red.entries.items()))]


# -- one repetition ------------------------------------------------------------------


def repetition(workload: str, seed: int, mode: str, smoke: bool, expected: dict, tmp: Path) -> dict:
    inputs = build_inputs(workload, seed, smoke)
    if mode == "setup":
        return {}
    traced = mode == "trace"
    tr = Tracer() if traced else NullTracer()
    checks = Checks()
    counters: dict = {}
    with tr.span(workload):
        if workload == "search":
            if traced:
                outputs = search_trace(tr, inputs, expected["search"], checks, SEARCH_THREADS)
            else:
                outputs = search_run(inputs, expected["search"], checks, counters)
        else:
            params, ops = inputs
            outputs = eigenbasis_work(tr, params, traced, expected["eigenbasis"], checks, counters)
            outputs += sparse_ops_work(tr, ops, tmp, checks, counters)
    return {
        "checks": checks.items,
        "counters": counters,
        "layer_counters": tr.counters,
        "digest": hashlib.sha256("\n".join(outputs).encode()).hexdigest(),
        "spans": tr.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--expected", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if src not in Path(johnson_eigen.__file__).resolve().parents:
        print(f"johnson_eigen imported from {johnson_eigen.__file__}, not from {src}", file=sys.stderr)
        return 2
    expected = {} if args.mode == "setup" else json.loads(args.expected.read_text())
    result = repetition(args.workload, args.seed, args.mode, args.smoke, expected, args.tmp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
