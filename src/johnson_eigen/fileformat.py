"""Sparse-function files: JSON documents keyed by combinadic vertex rank.

A function file records n, w, an optional eigenvalue index, and the nonzero
entries as (rank, value) pairs with strictly increasing ranks. Values are
canonical rational strings, "p/q" in lowest terms with "/q" omitted when the
denominator is 1. Writing is byte-stable: keys sorted, compact separators,
one trailing newline.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

from .combinatorics import rank_subset, unrank_subset
from .errors import FunctionFileError, ParameterError, SizeBudgetError, brief, is_int
from .johnson import JohnsonParams, SparseFunction


def _ratio_string(p: int, q: int) -> str:
    """p/q, for q > 0, in lowest terms as "p/q", or "p" when that q is 1;
    SizeBudgetError if p or q has more digits than the interpreter converts
    to a string, as induce and reduce can make from values the reader accepts."""
    g = math.gcd(p, q)
    try:
        return str(p // g) if q == g else f"{p // g}/{q // g}"
    except ValueError as exc:
        raise SizeBudgetError("a value has too many digits to write as a string") from exc


def rational_to_string(v: Fraction) -> str:
    """v as "p/q", or "p" when q is 1 (_ratio_string)."""
    return _ratio_string(v.numerator, v.denominator)


def _check_lambda_index(index, w: int, error=ParameterError):
    """index; error unless None or an int in 0..w, so the reader takes what the writer writes."""
    if not (index is None or is_int(index) and 0 <= index <= w):
        raise error(f"lambda_index {brief(index)} is not null or an int in 0..{w}")
    return index


def function_to_document(f: SparseFunction, lambda_index: int | None = None) -> dict:
    _check_lambda_index(lambda_index, f.params.w)
    nums, den = f.nums, f.den
    entries = [[rank_subset(x), _ratio_string(nums[x], den)] for x in f.support]
    return {
        "n": f.params.n,
        "w": f.params.w,
        "lambda_index": lambda_index,
        "entries": entries,
    }


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
    try:
        params = JohnsonParams(n, w)
    except ParameterError as exc:
        raise FunctionFileError(f"bad parameters: {exc}") from exc
    lam_index = _check_lambda_index(doc.get("lambda_index"), w, FunctionFileError)
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise FunctionFileError("entries must be a list")
    nverts = params.num_vertices
    nums: dict[int, int] = {}
    dens: dict[int, int] = {}  # the denominators above 1
    prev_rank = -1
    for item in entries:
        if not (isinstance(item, list) and len(item) == 2):
            raise FunctionFileError(f"bad entry {brief(item)}")
        r, s = item
        if not is_int(r) or not 0 <= r < nverts:
            raise FunctionFileError(f"rank {brief(r)} out of range 0..{nverts - 1}")
        if r <= prev_rank:
            raise FunctionFileError("ranks must be strictly increasing")
        prev_rank = r
        if not isinstance(s, str):
            raise FunctionFileError(f"value {brief(s)} must be a rational string")
        # only digits, "-" and "/" can be canonical; a parser that took more would
        # also expand an exponent, which for "1e999999999" takes minutes and gigabytes
        if s.strip("-/0123456789"):
            raise FunctionFileError(f"bad rational {brief(s)}")
        top, slash, bottom = s.partition("/")
        try:  # int refuses "", a second "/" and more digits than it converts
            p, q = int(top), int(bottom) if slash else 1
        except ValueError as exc:
            raise FunctionFileError(f"bad rational {brief(s)}") from exc
        if q <= 0:
            raise FunctionFileError(f"bad rational {brief(s)}")
        if p == 0:
            raise FunctionFileError("zero values must not be stored")
        if _ratio_string(p, q) != s:
            raise FunctionFileError(f"rational {brief(s)} is not in canonical lowest terms")
        x = unrank_subset(r, n, w)
        nums[x] = p
        if q > 1:
            dens[x] = q
    return SparseFunction._from_ratios(params, nums, dens), lam_index


def dumps_document(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_text(path: str, text: str) -> None:
    """Write text to path byte for byte; FunctionFileError if that fails."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FunctionFileError(f"cannot write {path}: {exc}") from exc


def check_writable(path: str) -> None:
    """FunctionFileError unless path opens for writing; an existing file keeps
    its bytes, and a file the check creates is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)
    except OSError as exc:
        raise FunctionFileError(f"cannot write {path}: {exc}") from exc


def write_function(path: str, f: SparseFunction, lambda_index: int | None = None) -> None:
    write_text(path, dumps_document(function_to_document(f, lambda_index)))


def read_function(path: str) -> tuple[SparseFunction, int | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FunctionFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FunctionFileError(f"{path} is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FunctionFileError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an int with more digits than the interpreter converts
        raise FunctionFileError(f"{path} holds a number with too many digits") from exc
    except RecursionError as exc:
        raise FunctionFileError(f"{path} nests too deeply to parse") from exc
    return document_to_function(doc)
