"""Write perfbench/expected.json: the verdicts the benchmark checks against.

It records the `minsupport --json` stdout of every search instance and a
digest of every eigenspace basis, at both the full and the smoke sizes, as
the current program produces them. The index-1 searches are also checked
against their pinned rows of results/min_support_table.json.

Regenerate only when an output change is intended:

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from johnson_eigen import JohnsonParams, eigenspace_basis
from johnson_eigen.cli import run as cli_run
from johnson_eigen.fileformat import dumps_document

from workloads import SIZES, basis_digest, build_inputs, instance_key

HERE = Path(__file__).resolve().parent


def main() -> None:
    search, bases = {}, {}
    for smoke in (False, True):
        for (n, w, i), argv in build_inputs("search", 0, smoke):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if cli_run(argv) != 0:
                    raise SystemExit(f"minsupport failed on {instance_key(n, w, i)}")
            search[instance_key(n, w, i)] = buf.getvalue()
        params = JohnsonParams(*SIZES[smoke]["eigenbasis"])
        for i in range(params.w + 1):
            bases[instance_key(params.n, params.w, i)] = basis_digest(eigenspace_basis(params, i).basis)
    pinned = json.loads((HERE.parent / "results" / "min_support_table.json").read_text())
    for row in pinned["instances"]:
        key = instance_key(row["n"], row["w"], row["i"])
        if key in search and search[key] != dumps_document(row):
            raise SystemExit(f"{key} differs from results/min_support_table.json")
    doc = {"search": dict(sorted(search.items())), "eigenbasis": dict(sorted(bases.items()))}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
