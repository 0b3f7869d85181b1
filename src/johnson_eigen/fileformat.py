"""Sparse-function files: JSON documents keyed by combinadic vertex rank.

A function file records n, w, an optional eigenvalue index, and the nonzero
entries as (rank, value) pairs with strictly increasing ranks. Values are
canonical rational strings, "p/q" in lowest terms with "/q" omitted when the
denominator is 1. Writing is byte-stable: keys sorted, compact separators,
one trailing newline.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .combinatorics import rank_subset, unrank_subset
from .errors import FunctionFileError
from .johnson import JohnsonParams, SparseFunction


def rational_to_string(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def function_to_document(f: SparseFunction, lambda_index: int | None = None) -> dict:
    entries = [
        [rank_subset(x), rational_to_string(f.entries[x])]
        for x in f.support
    ]
    return {
        "n": f.params.n,
        "w": f.params.w,
        "lambda_index": lambda_index,
        "entries": entries,
    }


def _is_int(x) -> bool:
    """A JSON integer; true and false are not integers here, although bool subclasses int."""
    return isinstance(x, int) and not isinstance(x, bool)


def document_to_function(doc) -> tuple[SparseFunction, int | None]:
    if not isinstance(doc, dict):
        raise FunctionFileError("function file must be a JSON object")
    for key in ("n", "w", "entries"):
        if key not in doc:
            raise FunctionFileError(f"missing field {key!r}")
    unknown = set(doc) - {"n", "w", "lambda_index", "entries"}
    if unknown:
        raise FunctionFileError(f"unknown fields {sorted(unknown)}")
    n, w = doc["n"], doc["w"]
    if not (_is_int(n) and _is_int(w)):
        raise FunctionFileError("n and w must be integers")
    try:
        params = JohnsonParams(n, w)
    except Exception as exc:
        raise FunctionFileError(f"bad parameters: {exc}") from exc
    lam_index = doc.get("lambda_index")
    if lam_index is not None and not _is_int(lam_index):
        raise FunctionFileError("lambda_index must be an integer or null")
    if lam_index is not None and not 0 <= lam_index <= w:
        raise FunctionFileError(f"lambda_index {lam_index} out of range 0..{w}")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise FunctionFileError("entries must be a list")
    nverts = params.num_vertices
    table = {}
    prev_rank = -1
    for item in entries:
        if not (isinstance(item, list) and len(item) == 2):
            raise FunctionFileError(f"bad entry {item!r}")
        r, s = item
        if not _is_int(r) or not 0 <= r < nverts:
            raise FunctionFileError(f"rank {r!r} out of range 0..{nverts - 1}")
        if r <= prev_rank:
            raise FunctionFileError("ranks must be strictly increasing")
        prev_rank = r
        if not isinstance(s, str):
            raise FunctionFileError(f"value {s!r} must be a rational string")
        try:
            v = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise FunctionFileError(f"bad rational {s!r}") from exc
        if v == 0:
            raise FunctionFileError("zero values must not be stored")
        if rational_to_string(v) != s:
            raise FunctionFileError(f"rational {s!r} is not in canonical lowest terms")
        table[unrank_subset(r, n, w)] = v
    return SparseFunction._trusted(params, table), lam_index


def dumps_document(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_function(path: str, f: SparseFunction, lambda_index: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(function_to_document(f, lambda_index)))


def read_function(path: str) -> tuple[SparseFunction, int | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FunctionFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FunctionFileError(f"{path} is not valid JSON: {exc}") from exc
    return document_to_function(doc)
