"""Closed-form spectrum of J(n,w), exact eigenspace bases, and eigenfunction checks.

The eigenvalues are lambda_i = (w-i)(n-w-i) - i for i = 0..w with
multiplicity C(n,i) - C(n,i-1). Eigenspace bases are realized exactly as
nullspace(A - lambda_i I) over the vertices in combinadic rank order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import binomial, rank_subset
from .errors import AmbiguousEigenvalueError, ParameterError, SizeBudgetError
from .exact_linalg import ExactMatrix, nullspace
from .johnson import JohnsonParams, SparseFunction, apply_adjacency, neighbors

# Largest vertex count for which a dense adjacency matrix is materialized.
DEFAULT_DENSE_BUDGET = 300

# Bases kept by the (n, w, lambda) cache: one process rarely revisits more
# than the handful of eigenspaces of one graph, so the oldest are dropped.
BASIS_CACHE_SIZE = 16


@dataclass(frozen=True)
class EigenvalueInfo:
    i: int
    lam: int
    multiplicity: int


@dataclass(frozen=True)
class EigenVerdict:
    """Result of checking lambda * f(x) = sum of f over neighbors at every relevant vertex.

    certificate is the first vertex in rank order where the equation fails,
    or None when it holds everywhere. The all-zero function satisfies the
    equation for every lambda and is flagged by is_zero.
    """

    holds: bool
    is_zero: bool
    certificate: int | None = None


def eigenvalue(params: JohnsonParams, i: int) -> int:
    """lambda_i(n, w) = (w-i)(n-w-i) - i."""
    n, w = params.n, params.w
    if not 0 <= i <= w:
        raise ParameterError(f"eigenvalue index {i} out of range 0..{w}")
    return (w - i) * (n - w - i) - i


def spectrum(params: JohnsonParams) -> list[EigenvalueInfo]:
    """Eigenvalues and multiplicities of J(n,w), ordered by index i = 0..w."""
    n, w = params.n, params.w
    return [
        EigenvalueInfo(i, eigenvalue(params, i), binomial(n, i) - binomial(n, i - 1))
        for i in range(w + 1)
    ]


def eigenvalue_index(params: JohnsonParams, lam: int) -> int:
    """The index i with lambda_i = lam; raises if lam is ambiguous or absent.

    For n >= 2w the map i -> lambda_i is strictly decreasing, so the lookup
    is total on the spectrum; smaller n can collide and then the caller must
    supply the index explicitly.
    """
    hits = [info.i for info in spectrum(params) if info.lam == lam]
    if not hits:
        raise ParameterError(f"{lam} is not an eigenvalue of J({params.n},{params.w})")
    if len(hits) > 1:
        raise AmbiguousEigenvalueError(
            f"eigenvalue {lam} of J({params.n},{params.w}) occurs at indices {hits}; pass i explicitly"
        )
    return hits[0]


@dataclass(frozen=True)
class EigenspaceBasis:
    """Exact basis of one eigenspace; rows of `basis` follow vertex rank order."""

    params: JohnsonParams
    i: int
    lam: int
    basis: ExactMatrix

    @property
    def dimension(self) -> int:
        return self.basis.cols

    def member(self, coeffs) -> SparseFunction:
        """The sparse function whose value vector is basis @ coeffs."""
        if len(coeffs) != self.basis.cols:
            raise ParameterError(f"expected {self.basis.cols} coefficients, got {len(coeffs)}")
        entries = {}
        verts = list(self.params.vertices())
        for r, x in enumerate(verts):
            acc = Fraction(0)
            row = self.basis.row(r)
            for c, v in zip(row, coeffs):
                if c and v:
                    acc += c * Fraction(v)
            if acc:
                entries[x] = acc
        return SparseFunction(self.params, entries)

    def column_function(self, j: int) -> SparseFunction:
        coeffs = [0] * self.basis.cols
        coeffs[j] = 1
        return self.member(coeffs)


def adjacency_matrix(params: JohnsonParams, budget: int = DEFAULT_DENSE_BUDGET) -> ExactMatrix:
    """Dense adjacency matrix of J(n,w) over vertices in rank order."""
    nverts = params.num_vertices
    if nverts > budget:
        raise SizeBudgetError(f"J({params.n},{params.w}) has {nverts} vertices, over the dense budget {budget}")
    data = [0] * (nverts * nverts)
    for r, x in enumerate(params.vertices()):
        for y in neighbors(x, params):
            data[r * nverts + rank_subset(y)] = 1
    return ExactMatrix(nverts, nverts, data)


def eigenspace_basis(params: JohnsonParams, i: int, budget: int = DEFAULT_DENSE_BUDGET) -> EigenspaceBasis:
    """Exact basis of the lambda_i eigenspace via nullspace(A - lambda_i I).

    The BASIS_CACHE_SIZE most recently used bases are cached per (n, w,
    lambda); each call gets its own copy, so a caller that writes into the
    returned matrix cannot change later results.
    """
    lam = eigenvalue(params, i)
    cached = _eigenspace_matrix(params.n, params.w, lam, budget)
    return EigenspaceBasis(params, i, lam, ExactMatrix(cached.rows, cached.cols, cached.data))


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _eigenspace_matrix(n: int, w: int, lam: int, budget: int) -> ExactMatrix:
    params = JohnsonParams(n, w)
    shifted = adjacency_matrix(params, budget)
    nverts = shifted.rows
    for r in range(nverts):
        shifted.data[r * nverts + r] -= lam
    return nullspace(shifted)


def is_eigenfunction(f: SparseFunction, lam: int) -> EigenVerdict:
    """Check lam * f = A f, where A f is apply_adjacency(f) on integer numerators.

    The equation can only fail on supp(f) united with supp(A f): elsewhere it
    reads 0 = 0, which is what makes verification possible without
    enumerating all C(n,w) vertices. The certificate is the failing vertex
    of lowest rank.
    """
    if f.is_zero():
        return EigenVerdict(holds=True, is_zero=True)
    f_vals, g_vals = f.entries, apply_adjacency(f).entries
    failing = [
        x for x in f_vals.keys() | g_vals.keys()
        if g_vals.get(x, 0) != lam * f_vals.get(x, 0)
    ]
    if failing:
        return EigenVerdict(holds=False, is_zero=False, certificate=min(failing, key=rank_subset))
    return EigenVerdict(holds=True, is_zero=False)
