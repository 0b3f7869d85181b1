"""Closed-form spectrum of J(n,w), exact eigenspace bases, and eigenfunction checks.

The eigenvalues are lambda_i = (w-i)(n-w-i) - i for i = 0..w with
multiplicity C(n,i) - C(n,i-1). Eigenspace bases are exact and, over the
vertices in combinadic rank order, bit for bit the canonical
nullspace(A - lambda_i I); they are built from the checked canonical +-1
functions of standard tableaux, so no dense matrix is eliminated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .canonical import pairing_values
from .combinatorics import binomial, rank_subset
from .errors import AmbiguousEigenvalueError, BasisCheckError, ParameterError, SizeBudgetError
from .exact_linalg import ExactMatrix, span_basis
from .johnson import JohnsonParams, SparseFunction, adjacency_sums, as_fraction, neighbors, scaled_numerators

# Largest vertex count of adjacency_matrix and eigenspace_basis, whose
# results are dense matrices with one row per vertex.
DEFAULT_DENSE_BUDGET = 300


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

    def __post_init__(self):
        if self.basis.rows != self.params.num_vertices:
            raise ParameterError(f"basis has {self.basis.rows} rows for {self.params.num_vertices} vertices")

    @property
    def dimension(self) -> int:
        return self.basis.cols

    def member(self, coeffs) -> SparseFunction:
        """The sparse function whose value vector is basis @ coeffs."""
        if len(coeffs) != self.basis.cols:
            raise ParameterError(f"expected {self.basis.cols} coefficients, got {len(coeffs)}")
        coeffs = [as_fraction(v) for v in coeffs]
        entries = {}
        for r, x in enumerate(self.params.vertices()):
            acc = Fraction(0)
            row = self.basis.row(r)
            for c, v in zip(row, coeffs):
                if c and v:
                    acc += c * v
            if acc:
                entries[x] = acc
        return SparseFunction._trusted(self.params, entries)

    def column_function(self, j: int) -> SparseFunction:
        coeffs = [0] * self.basis.cols
        coeffs[j] = 1
        return self.member(coeffs)


def _check_budget(params: JohnsonParams) -> int:
    nverts, cap = params.num_vertices, DEFAULT_DENSE_BUDGET
    if nverts > cap:
        raise SizeBudgetError(f"J({params.n},{params.w}) has {nverts} vertices, over the dense budget {cap}")
    return nverts


def adjacency_matrix(params: JohnsonParams) -> ExactMatrix:
    """Dense adjacency matrix of J(n,w) over vertices in rank order."""
    nverts = _check_budget(params)
    data = [0] * (nverts * nverts)
    for r, x in enumerate(params.vertices()):
        for y in neighbors(x, params):
            data[r * nverts + rank_subset(y)] = 1
    return ExactMatrix(nverts, nverts, data)


def _shape(params: JohnsonParams, i: int) -> int | None:
    """The j <= m = min(w, n-w) with lambda_j = lambda_i, or None; lambda_0 > ... > lambda_m."""
    n, w = params.n, params.w
    lam = eigenvalue(params, i)
    return next((j for j in range(min(w, n - w) + 1) if eigenvalue(params, j) == lam), None)


def eigenspace_dimension(params: JohnsonParams, i: int) -> int:
    """Dimension of the lambda_i eigenspace, for any size: C(n,j) - C(n,j-1) for
    the shape (n-j, j) with lambda_j = lambda_i, or 0 if there is none."""
    j = _shape(params, i)
    return 0 if j is None else binomial(params.n, j) - binomial(params.n, j - 1)


def eigenspace_basis(params: JohnsonParams, i: int) -> EigenspaceBasis:
    """Exact basis of the lambda_i eigenspace, equal bit for bit to nullspace(A - lambda_i I).

    Each call builds a new basis; J(n,w) may have at most
    DEFAULT_DENSE_BUDGET vertices. The eigenspace is zero unless lambda_i =
    lambda_j for some j <= m = min(w, n-w). The generators come from the
    standard Young tableaux of shape (n-j, j) on the coordinates: the second
    row is b_0 < ... < b_{j-1} with b_k >= 2k+1, and a_k, the k-th smallest
    coordinate outside {b}, tops column k. The canonical +-1 function of the
    pairs (a_k, b_k) is the tableau's standard polytabloid (James 1978).

    Proof that they span the eigenspace: every generator passes the integer
    eigen-check, and span_basis checks that they span eigenspace_dimension
    = C(n,j) - C(n,j-1) dimensions, the number of these tableaux. The same
    construction gives every lambda_k, k <= m, a span of C(n,k) - C(n,k-1)
    dimensions (James's standard basis theorem, and checked the same way
    whenever that eigenspace is built); these sum to C(n,m) = C(n,w), and
    eigenspaces of distinct eigenvalues are independent, so none is larger
    than its generated span.
    """
    n, w = params.n, params.w
    lam = eigenvalue(params, i)
    nverts = _check_budget(params)
    j = _shape(params, i)
    if j is None:
        return EigenspaceBasis(params, i, lam, ExactMatrix(nverts, 0, []))
    index = {x: r for r, x in enumerate(params.vertices())}
    rows = []
    for second in itertools.combinations(range(n), j):
        if any(b < 2 * k + 1 for k, b in enumerate(second)):
            continue
        first = [c for c in range(n) if c not in second]
        values = pairing_values(n, w, list(zip(first, second)))
        if _failing_vertices(values, n, lam):
            raise BasisCheckError(f"tableau {second} of J({n},{w}) gives no {lam}-eigenfunction")
        row = [0] * nverts
        for x, v in values.items():
            row[index[x]] = v
        rows.append(row)
    return EigenspaceBasis(params, i, lam, span_basis(rows, nverts, eigenspace_dimension(params, i)))


def _failing_vertices(nums: dict[int, int], n: int, lam: int) -> list[int]:
    """Vertices x where lam * f(x) != (A f)(x), for f with integer values nums.

    It can only fail on supp(f) and supp(A f), and adjacency_sums keys every
    vertex where A f is nonzero: elsewhere the equation reads 0 = 0.
    """
    sums = adjacency_sums(nums, n)
    return [x for x in nums.keys() | sums.keys() if sums.get(x, 0) != lam * nums.get(x, 0)]


def is_eigenfunction(f: SparseFunction, lam: int) -> EigenVerdict:
    """Check lam * f = A f on the integer numerators of f.

    A f = U D f - w f (adjacency_sums) visits only supp(f), its (w-1)-subsets
    and the supersets of the nonzero down sums, and on an eigenfunction D
    cancels most sums. The certificate is the failing vertex of lowest rank.
    """
    if f.is_zero():
        return EigenVerdict(holds=True, is_zero=True)
    failing = _failing_vertices(scaled_numerators(f)[1], f.params.n, lam)
    if failing:
        return EigenVerdict(holds=False, is_zero=False, certificate=min(failing, key=rank_subset))
    return EigenVerdict(holds=True, is_zero=False)
