"""Command-line front end.

Exit codes: 0 success, 1 verification or assertion failure, 2 usage error,
3 budget exhausted. Diagnostics go to stderr as `error[REASON] message`.
JSON payloads are byte-stable for identical inputs: keys sorted, compact
separators, and no wall-clock fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from .canonical import PairingConfig, build_canonical, default_pairing, support_size_bound
from .combinatorics import MAX_COORDS, rank_subset, vertex_elements
from .errors import (
    FunctionFileError,
    OracleDisagreementError,
    ParameterError,
    SizeBudgetError,
)
from .fileformat import (
    check_writable,
    dumps_document,
    function_to_document,
    read_function,
    write_function,
    write_text,
)
from .johnson import JohnsonParams
from .minsupport import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_SUBSET_BUDGET,
    DEFAULT_WITNESS_CAP,
    SearchReport,
    min_support_bnb,
    min_support_hyperplane,
    verify_bound,
)
from .operators import coordinate_partition, induce, induce_down_one, reduce
from .spectral import (
    DEFAULT_DENSE_BUDGET,
    eigenvalue,
    eigenspace_basis,
    eigenspace_dimension,
    is_eigenfunction,
    spectrum,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _error(code: str, message: str) -> None:
    print(f"error[{code}] {message}", file=sys.stderr)


def _parse_pairs(text: str) -> PairingConfig:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ParameterError(f"bad pair {chunk!r}; expected a:b")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParameterError(f"bad pair {chunk!r}: {exc}") from exc
    return PairingConfig(tuple(pairs))


def _int_in(low: int, high: int | None = None):
    """argparse type for an integer of at least low and, unless high is None, at most high."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


_positive_int = _int_in(1)


def _vertex_label(x: int) -> str:
    return "{" + ",".join(str(c) for c in vertex_elements(x)) + "}"


def _write_function_output(f, lambda_index, out_path) -> None:
    if out_path is not None:
        write_function(out_path, f, lambda_index)
    else:
        sys.stdout.write(dumps_document(function_to_document(f, lambda_index)))


def _report_payload(report: SearchReport, dim: int) -> dict:
    return {
        "n": report.params.n,
        "w": report.params.w,
        "i": report.i,
        "lambda": report.lam,
        "dim": dim,
        "algorithm": report.algorithm,
        "min_support": report.min_support,
        "bound": report.bound,
        "attained_by_canonical": report.attained_by_canonical,
        "all_witnesses_canonical": report.all_witnesses_canonical,
        "proven_optimal": report.proven_optimal,
        "stats": {"nodes": report.stats.nodes, "subsets": report.stats.subsets},
        "witnesses": [function_to_document(w)["entries"] for w in report.witnesses],
    }


def _print_report_human(report: SearchReport, dim: int) -> None:
    p = report.params
    print(f"J({p.n},{p.w})  i={report.i}  lambda={report.lam}  dim={dim}")
    print(f"algorithm: {report.algorithm}")
    ms = report.min_support if report.min_support is not None else "unknown"
    flag = "" if report.proven_optimal else "  (budget exhausted, not proven optimal)"
    print(f"min_support: {ms}{flag}")
    print(f"bound 2^i*C(n-2i,w-i): {report.bound}")
    print(f"attained_by_canonical: {report.attained_by_canonical}")
    print(f"all_witnesses_canonical: {report.all_witnesses_canonical}")
    print(f"stats: nodes={report.stats.nodes} subsets={report.stats.subsets} "
          f"elapsed={report.stats.elapsed:.3f}s")
    for k, w in enumerate(report.witnesses):
        vals = " ".join(f"{_vertex_label(x)}:{w(x)}" for x in w.support)
        print(f"witness[{k}]: {vals}")


def cmd_spectrum(args) -> int:
    params = JohnsonParams(args.n, args.w)
    infos = spectrum(params)
    if args.json:
        payload = {
            "n": params.n,
            "w": params.w,
            "spectrum": [
                {"i": e.i, "lambda": e.lam, "multiplicity": e.multiplicity} for e in infos
            ],
        }
        sys.stdout.write(dumps_document(payload))
    else:
        print(f"spectrum of J({params.n},{params.w}):")
        print("  i  lambda  multiplicity")
        for e in infos:
            print(f"{e.i:>3}  {e.lam:>6}  {e.multiplicity:>12}")
    return EXIT_OK


def cmd_canonical(args) -> int:
    params = JohnsonParams(args.n, args.w)
    if args.i > params.w:  # before default_pairing builds args.i pairs
        raise ParameterError(f"pairing size {args.i} exceeds weight {params.w}")
    pairing = _parse_pairs(args.pairs) if args.pairs is not None else default_pairing(args.i)
    if pairing.size != args.i:
        raise ParameterError(f"--pairs gives {pairing.size} pairs but --i is {args.i}")
    if args.out is not None:
        check_writable(args.out)  # an unwritable path fails before the build
    f = build_canonical(params, pairing)
    _write_function_output(f, args.i, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    f, stored_index = read_function(args.func_path)
    index = args.i if args.i is not None else stored_index
    if index is None:
        raise ParameterError("no eigenvalue index: pass --i or store lambda_index in the file")
    lam = eigenvalue(f.params, index)
    verdict = is_eigenfunction(f, lam)
    if verdict.holds:
        zero = " (zero function)" if verdict.is_zero else ""
        print(f"holds: eigenfunction at lambda_{index}={lam}{zero}")
        return EXIT_OK
    cert = verdict.certificate
    print(f"fails at vertex {_vertex_label(cert)} (rank {rank_subset(cert)})")
    _error("VERIFY_FAILED", f"eigenfunction equation fails at rank {rank_subset(cert)}")
    return EXIT_FAIL


def cmd_induce(args) -> int:
    f, stored_index = read_function(args.func_path)
    w = f.params.w
    if args.target_w < w - 1:
        raise ParameterError(
            f"target weight {args.target_w} unsupported: upward needs >= {w}, downward only {w - 1}"
        )
    if args.out is not None:
        check_writable(args.out)  # an unwritable path fails before the build
    if args.target_w >= w:
        g = induce(f, args.target_w)
        out_index = stored_index
    else:
        g = induce_down_one(f)
        out_index = None
    _write_function_output(g, out_index, args.out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    f, stored_index = read_function(args.func_path)
    if args.out is not None:
        check_writable(args.out)  # an unwritable path fails before the build
    g = reduce(f, args.j1, args.j2)
    out_index = stored_index - 1 if stored_index is not None and stored_index >= 1 else None
    _write_function_output(g, out_index, args.out)
    return EXIT_OK


def cmd_partition(args) -> int:
    f, _ = read_function(args.func_path)
    part = coordinate_partition(f)
    blocks = " ".join("{" + ",".join(map(str, b)) + "}" for b in part.blocks)
    print(f"t={part.t} blocks: {blocks}")
    return EXIT_OK


def cmd_minsupport(args) -> int:
    params = JohnsonParams(args.n, args.w)
    dim = eigenspace_dimension(params, args.i)
    node_budget = args.budget or DEFAULT_NODE_BUDGET
    subset_budget = args.budget or DEFAULT_SUBSET_BUDGET
    if args.algo == "both":
        report = verify_bound(params, args.i, node_budget, subset_budget, args.witness_cap)
    else:
        space = eigenspace_basis(params, args.i)
        if args.algo == "bnb":
            report = min_support_bnb(space, node_budget, args.witness_cap)
        else:
            report = min_support_hyperplane(space, subset_budget, args.witness_cap)
    if args.json:
        sys.stdout.write(dumps_document(_report_payload(report, dim)))
    else:
        _print_report_human(report, dim)
    if not report.proven_optimal:
        _error("BUDGET_EXHAUSTED", "search budget exhausted; result not proven optimal")
        return EXIT_BUDGET
    return EXIT_OK


def cmd_table(args) -> int:
    if args.csv is not None:
        check_writable(args.csv)  # an unwritable path fails before the sweep
    max_w = args.max_w if args.max_w is not None else args.max_n
    rows = []
    for n in range(1, args.max_n + 1):
        for w in range(0, min(n, max_w) + 1):
            params = JohnsonParams(n, w)
            for i in range(w + 1):
                lam = eigenvalue(params, i)
                bound = support_size_bound(n, w, i)
                if params.num_vertices > DEFAULT_DENSE_BUDGET:
                    rows.append([n, w, i, lam, "", bound, "", "", "skipped:size"])
                    continue
                dim = eigenspace_dimension(params, i)
                if dim == 0:
                    rows.append([n, w, i, lam, 0, bound, "", "", "empty"])
                    continue
                report = verify_bound(
                    params, i,
                    node_budget=args.budget or DEFAULT_NODE_BUDGET,
                    subset_budget=args.budget or DEFAULT_SUBSET_BUDGET,
                )
                if report.proven_optimal:
                    rows.append([
                        n, w, i, lam, dim, bound, report.min_support,
                        report.attained_by_canonical, "ok",
                    ])
                else:
                    rows.append([n, w, i, lam, dim, bound, "budget", "", "budget"])
    header = ["n", "w", "i", "lambda", "dim", "bound", "min_support", "attained_canonical", "status"]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    if args.csv is not None:
        write_text(args.csv, out.getvalue())
        print(f"wrote {len(rows)} rows to {args.csv}")
    else:
        sys.stdout.write(out.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="johnson-eigen",
        description="Exact eigenfunctions and minimum supports on Johnson graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalue/multiplicity table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("canonical", help="build the canonical minimum-support eigenfunction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--pairs", help="comma-separated a:b pairs; default (0,1),(2,3),...")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(handler=cmd_canonical)

    p = sub.add_parser("verify", help="check the eigenfunction equation for a function file")
    p.add_argument("--func", required=True, dest="func_path")
    p.add_argument("--i", type=int, help="eigenvalue index (default: file's lambda_index)")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("induce", help="induce a function to another weight")
    p.add_argument("--func", required=True, dest="func_path")
    p.add_argument("--target-w", type=int, required=True, dest="target_w")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(handler=cmd_induce)

    p = sub.add_parser("reduce", help="reduce over an ordered coordinate pair")
    p.add_argument("--func", required=True, dest="func_path")
    p.add_argument("--j1", type=int, required=True)
    p.add_argument("--j2", type=int, required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("partition", help="zero-pair coordinate partition of a function")
    p.add_argument("--func", required=True, dest="func_path")
    p.set_defaults(handler=cmd_partition)

    p = sub.add_parser("minsupport", help="exact minimum support over an eigenspace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--algo", choices=["bnb", "hyperplane", "both"], default="both")
    p.add_argument("--budget", type=_positive_int,
                   help="node budget (bnb) / subset budget (hyperplane)")
    p.add_argument("--witness-cap", type=_positive_int, default=DEFAULT_WITNESS_CAP,
                   dest="witness_cap")
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_minsupport)

    p = sub.add_parser("table", help="bound vs found minimum support per (n,w,i)")
    p.add_argument("--max-n", type=_int_in(1, MAX_COORDS), required=True, dest="max_n")
    p.add_argument("--max-w", type=_int_in(0), dest="max_w")
    p.add_argument("--budget", type=_positive_int)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--csv", help="write CSV to this file instead of stdout")
    p.set_defaults(handler=cmd_table)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except FunctionFileError as exc:
        _error("BAD_FILE", str(exc))
        return EXIT_USAGE
    except SizeBudgetError as exc:
        _error("SIZE_LIMIT", str(exc))
        return EXIT_USAGE
    except OracleDisagreementError as exc:
        _error("ORACLE_DISAGREEMENT", str(exc))
        return EXIT_FAIL
    except ParameterError as exc:
        _error("USAGE", str(exc))
        return EXIT_USAGE


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
