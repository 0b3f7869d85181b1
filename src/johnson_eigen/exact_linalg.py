"""Exact dense linear algebra over rationals: integer echelon and canonical nullspace.

combine is the package's one elimination step, the cross-multiplication of
two integer vectors that clears one entry; the minimum-support searches use
it on their kernel columns. reduced_echelon is its one elimination: a single
fraction-free Gauss-Jordan pass over integer rows built from combine, which
divides each new row by its content; unlike Bareiss's method it never
divides by the previous pivot. Its result is the canonical reduced form. A
rational matrix enters it through integer_rows, which scales every row by
the lcm of all its denominators; scaling a row leaves its row space alone,
so rank and kernel are those of the rational matrix. Kernel bases are
canonical and reproducible bit for bit: the vector for free column c is zero
at every other free column, and nullspace scales it to 1 at c. span_basis
puts a subspace given by spanning rows into the same form, without the
matrix whose kernel it is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections.abc import Sequence
from functools import cache
from operator import add, neg, sub

from .errors import BasisCheckError, ParameterError, check_rational, is_int

Rational = Fraction | int


class ExactMatrix:
    """Dense row-major matrix of Fractions in canonical lowest terms, built
    from int or Fraction entries (bool is neither); others raise ParameterError."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Rational]):
        if not (is_int(rows) and is_int(cols) and rows >= 0 and cols >= 0):
            raise ParameterError(f"shape {rows!r}x{cols!r} is not two nonnegative ints")
        if len(data) != rows * cols:
            raise ParameterError(f"data length {len(data)} does not match {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        # Fractions are immutable, so existing ones are shared, not rebuilt.
        self.data = [x if type(x) is Fraction else Fraction(check_rational(x)) for x in data]

    def row(self, r: int) -> list[Fraction]:
        return self.data[r * self.cols : (r + 1) * self.cols]

    def integer_rows(self) -> list[tuple[int, ...]]:
        """Every row times the lcm of all the matrix's denominators."""
        den = math.lcm(*(x.denominator for x in self.data))
        return [
            tuple(x.numerator * (den // x.denominator) for x in self.row(r))
            for r in range(self.rows)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def combine(col: Sequence[int], pivot: Sequence[int], r: int) -> list[int]:
    """col combined with pivot so that it vanishes at row r, divided by its gcd.

    With a0 = pivot[r] != 0, a = col[r] != 0 and g = gcd(a0, a) this is
    (a0/g) col - (a/g) pivot, which is zero exactly when col and pivot are
    dependent. When |a| = |a0| both multipliers are 1 or -1, and the
    combination is a sum or a difference, made without a multiply.
    """
    a0, a = pivot[r], col[r]
    if a == a0:
        new = list(map(sub, col, pivot) if a0 > 0 else map(sub, pivot, col))
    elif a == -a0:
        new = list(map(add, col, pivot) if a0 > 0 else map(neg, map(add, col, pivot)))
    else:
        g = math.gcd(a0, a)
        p, q = a0 // g, a // g
        new = [p * x - q * y for x, y in zip(col, pivot)]
    g = math.gcd(*new)
    return [x // g for x in new] if g > 1 else new


def reduced_echelon(rows) -> list[tuple[int, list[int]]]:
    """The reduced echelon form of integer rows: (pivot, row) pairs sorted by
    pivot, each row content-reduced, led by its pivot and zero at every other
    pivot; its length is the rank.

    One fraction-free Gauss-Jordan pass: each row is divided by its content
    and combined at every kept pivot where it is nonzero. What is left, if
    anything, is zero at every kept pivot, so clearing its leading column p
    from each kept row that is nonzero there keeps that row's pivot (left of
    p) and its zeros at the other pivots; then the row is kept. Pivot signs
    are left as they fall.
    """
    kept = []
    for row in rows:
        g = math.gcd(*row)
        if not g:
            continue
        cur = [x // g for x in row]
        for p, stored in kept:
            if cur[p]:
                cur = combine(cur, stored, p)
        p = next((j for j, x in enumerate(cur) if x), None)
        if p is not None:
            kept = [(q, combine(stored, cur, p) if stored[p] else stored) for q, stored in kept]
            kept.append((p, cur))
    return sorted(kept)


def nullspace(m: ExactMatrix) -> ExactMatrix:
    """Canonical exact basis of {v : m @ v = 0}, one column per free column fc of the
    RREF: 1 at fc, 0 at every other free column and -row[fc] / row[p] at each pivot p.
    The entries repeat, so each distinct one is built once and shared."""
    nc = m.cols
    reduced = reduced_echelon(m.integer_rows())
    piv_set = {p for p, _ in reduced}
    free = [c for c in range(nc) if c not in piv_set]
    d = len(free)
    frac = cache(Fraction)
    flat = [frac(0)] * (nc * d)
    for j, fc in enumerate(free):
        flat[fc * d + j] = frac(1)
        for p, row in reduced:
            if row[fc]:
                flat[p * d + j] = frac(-row[fc], row[p])
    return ExactMatrix(nc, d, flat)


def span_basis(rows: Sequence[Sequence[int]], width: int, rank: int) -> ExactMatrix:
    """Canonical basis of the span E of integer rows of length width: the matrix
    nullspace returns for every matrix whose kernel is E.

    Raises BasisCheckError unless E has dimension rank. nullspace gives the
    kernel vector of each free column c of the RREF, 1 at c and 0 at every
    other free column. Column c is free exactly when some v in E has its
    last nonzero entry at c, so the free columns are the pivots of E's rows
    with the coordinate order reversed. In the reduced form of the reversed
    rows each row is zero at every other pivot; divided by its pivot entry
    it is the vector of that free column. As in nullspace, each distinct
    entry is built once and shared.
    """
    reduced = reduced_echelon(row[::-1] for row in rows)
    if len(reduced) != rank:
        raise BasisCheckError(f"rows span a space of dimension {len(reduced)}, expected {rank}")
    frac = cache(Fraction)
    flat = [frac(0)] * (width * rank)
    for c, (p, row) in enumerate(reversed(reduced)):
        piv = row[p]
        for q, x in enumerate(row):
            if x:
                flat[(width - 1 - q) * rank + c] = frac(x, piv)
    return ExactMatrix(width, rank, flat)
