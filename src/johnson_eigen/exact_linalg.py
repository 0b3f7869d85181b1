"""Exact dense linear algebra over rationals: integer echelon and canonical nullspace.

combine is the package's one elimination step, the cross-multiplication of
two integer vectors that clears one entry; the minimum-support searches use
it on their kernel columns. IntEchelon is its one elimination engine: a
fraction-free row echelon over integer rows built from combine, which
divides each new row by its content; unlike Bareiss's method it never
divides by the previous pivot. Its reduced() is the canonical reduced form. A
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


class IntEchelon:
    """Incremental exact echelon over integer rows.

    Stored rows are content-reduced and zero at the leading column (pivot) of
    every row stored before them; pivot signs are left as they fall. The
    given rows are reduced in order and each independent one is pushed.
    """

    def __init__(self, rows=()):
        self.rows: list[tuple[int, ...]] = []
        self.pivots: list[int] = []
        for row in rows:
            reduced = self.reduce(row)
            if reduced:
                self.push(reduced)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> tuple[int, ...]:
        """Reduce a row against the stored rows: its content divided out, then one
        combine at each stored pivot where it is nonzero. () means dependent."""
        g = math.gcd(*row)
        if not g:
            return ()
        cur = [x // g for x in row] if g > 1 else row
        for stored, p in zip(self.rows, self.pivots):
            if cur[p]:
                cur = combine(cur, stored, p)
        return tuple(cur) if any(cur) else ()

    def push(self, reduced: tuple[int, ...]) -> None:
        p = next(j for j, x in enumerate(reduced) if x)
        self.rows.append(reduced)
        self.pivots.append(p)

    def reduced(self) -> list[tuple[int, tuple[int, ...]]]:
        """The reduced echelon form: (pivot, row) pairs sorted by pivot, each
        row zero at every other pivot.

        One fraction-free Gauss-Jordan pass: the stored rows are reduced
        again, last first, against those already cleared. A row stored later
        is zero at every earlier pivot and left of its own, so clearing it
        from an earlier row keeps that row's pivot.
        """
        jordan = IntEchelon(reversed(self.rows))
        return sorted(zip(jordan.pivots, jordan.rows))


def nullspace(m: ExactMatrix) -> ExactMatrix:
    """Canonical exact basis of {v : m @ v = 0}, one column per free column fc of the
    RREF: 1 at fc, 0 at every other free column and -row[fc] / row[p] at each pivot p."""
    nc = m.cols
    reduced = IntEchelon(m.integer_rows()).reduced()
    piv_set = {p for p, _ in reduced}
    free = [c for c in range(nc) if c not in piv_set]
    d = len(free)
    flat = [Fraction(0)] * (nc * d)
    for j, fc in enumerate(free):
        flat[fc * d + j] = Fraction(1)
        for p, row in reduced:
            if row[fc]:
                flat[p * d + j] = Fraction(-row[fc], row[p])
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
    it is the vector of that free column.
    """
    ech = IntEchelon(row[::-1] for row in rows)
    if ech.rank != rank:
        raise BasisCheckError(f"rows span a space of dimension {ech.rank}, expected {rank}")
    flat = [Fraction(0)] * (width * rank)
    for c, (p, row) in enumerate(reversed(ech.reduced())):
        piv = row[p]
        for q, x in enumerate(row):
            if x:
                flat[(width - 1 - q) * rank + c] = Fraction(x, piv)
    return ExactMatrix(width, rank, flat)
