"""Exact dense linear algebra over rationals: rank and canonical nullspace.

IntEchelon is the package's one elimination engine: a fraction-free
(Bareiss-style) row echelon over integer rows, which the minimum-support
witness pool also uses for its rank check. A rational matrix enters it
through integer_rows, which scales every row by the lcm of all its
denominators; scaling a row leaves its row space alone, so rank and kernel
are those of the rational matrix. Kernel bases are canonical and
reproducible bit for bit: the vector for free column c is zero at every
other free column, and nullspace scales it to 1 at c. span_basis puts a
subspace given by spanning rows into the same form, without the matrix
whose kernel it is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections.abc import Sequence

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


class IntEchelon:
    """Incremental exact echelon over integer rows.

    Stored rows are content-reduced and zero at the leading column (pivot) of
    every row stored before them; pivot signs are left as they fall. The
    given rows are reduced in order and each independent one is pushed.
    """

    def __init__(self, width: int, rows=()):
        self.width = width
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
        """Reduce a row against the stored rows; () means dependent.

        Each cross-multiplication first divides its two multipliers by their
        gcd, which slows entry growth on wide rows; that and the content
        division at the end are positive rescalings, so the reduced row is
        the same as with plain cross-multiplication.
        """
        cur = list(row)
        for stored, p in zip(self.rows, self.pivots):
            f = cur[p]
            if f:
                sp = stored[p]
                g = math.gcd(sp, f)
                sp //= g
                f //= g
                cur = [sp * a - f * b for a, b in zip(cur, stored)]
        g = 0
        for x in cur:
            if x:
                g = math.gcd(g, x)
                if g == 1:
                    break
        if g == 0:
            return ()
        if g > 1:
            cur = [x // g for x in cur]
        return tuple(cur)

    def push(self, reduced: tuple[int, ...]) -> None:
        p = next(j for j, x in enumerate(reduced) if x)
        self.rows.append(reduced)
        self.pivots.append(p)

    def kernel(self) -> list[tuple[int, ...]]:
        """Canonical kernel basis of the stored rows, one vector per free column.

        In increasing free-column order; each vector is coprime integers,
        positive at its own free column and zero at every other one.
        Sorted by pivot the stored rows are an echelon form, solved by
        fraction-free back-substitution: the vector for free column fc is
        zero at pivots beyond fc, and scaling it by the product of the
        pivots before fc makes every division exact (Cramer's rule on the
        triangular system).
        """
        order = sorted(range(len(self.rows)), key=self.pivots.__getitem__)
        rows = [self.rows[k] for k in order]
        piv_cols = [self.pivots[k] for k in order]
        piv_set = set(piv_cols)
        out = []
        for fc in range(self.width):
            if fc in piv_set:
                continue
            engaged = sum(1 for p in piv_cols if p < fc)
            scale = math.prod(rows[i][piv_cols[i]] for i in range(engaged))
            values = {fc: scale}
            for i in reversed(range(engaged)):
                row = rows[i]
                s = row[fc] * scale
                for j in range(i + 1, engaged):
                    x = row[piv_cols[j]]
                    if x:
                        s += x * values[piv_cols[j]]
                q, rem = divmod(-s, row[piv_cols[i]])
                if rem:
                    raise ArithmeticError("fraction-free back-substitution lost exactness")
                values[piv_cols[i]] = q
            g = math.gcd(*values.values())
            if scale < 0:
                g = -g
            vec = [0] * self.width
            for pos, val in values.items():
                vec[pos] = val // g
            out.append(tuple(vec))
        return out


def rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals."""
    return IntEchelon(m.cols, m.integer_rows()).rank


def nullspace(m: ExactMatrix) -> ExactMatrix:
    """Canonical exact basis of {v : m @ v = 0}, one column per free column of the RREF."""
    nc = m.cols
    ech = IntEchelon(nc, m.integer_rows())
    piv_set = set(ech.pivots)
    free = [c for c in range(nc) if c not in piv_set]
    columns = [[Fraction(x, vec[fc]) for x in vec] for fc, vec in zip(free, ech.kernel())]
    d = len(columns)
    flat = [columns[j][i] for i in range(nc) for j in range(d)]
    return ExactMatrix(nc, d, flat)


def span_basis(rows: Sequence[Sequence[int]], width: int, rank: int) -> ExactMatrix:
    """Canonical basis of the span E of integer rows of length width: the matrix
    nullspace returns for every matrix whose kernel is E.

    Raises BasisCheckError unless E has dimension rank. nullspace gives the
    kernel vector of each free column c of the RREF, 1 at c and 0 at every
    other free column. Column c is free exactly when some v in E has its
    last nonzero entry at c, so the free columns are the pivots of E's rows
    with the coordinate order reversed. One fraction-free Gauss-Jordan pass
    over the reversed rows (reduce them, then reduce the stored rows again,
    last first, against those already cleared) leaves each row zero at every
    other pivot; divided by its pivot entry it is the vector of that free
    column.
    """
    ech = IntEchelon(width, (row[::-1] for row in rows))
    if ech.rank != rank:
        raise BasisCheckError(f"rows span a space of dimension {ech.rank}, expected {rank}")
    # A row stored later is zero at every earlier pivot and left of its own,
    # so clearing it from an earlier row keeps that row's pivot.
    jordan = IntEchelon(width, reversed(ech.rows))
    order = sorted(range(rank), key=jordan.pivots.__getitem__, reverse=True)
    flat = [Fraction(0)] * (width * rank)
    for c, k in enumerate(order):
        row = jordan.rows[k]
        piv = row[jordan.pivots[k]]
        for q, x in enumerate(row):
            if x:
                flat[(width - 1 - q) * rank + c] = Fraction(x, piv)
    return ExactMatrix(width, rank, flat)
