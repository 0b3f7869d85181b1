"""Closed-form spectrum of J(n,w), exact eigenspace bases, and eigenfunction checks.

The eigenvalues are lambda_i = (w-i)(n-w-i) - i for i = 0..min(w, n-w), with
multiplicity C(n,i) - C(n,i-1). Eigenspace bases are exact and, over the
vertices in combinadic rank order, bit for bit the canonical
nullspace(A - lambda_i I); they are built from the checked canonical +-1
functions of standard tableaux, so no dense matrix is eliminated.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .canonical import pairing_values
from .combinatorics import binomial, rank_subset
from .errors import BasisCheckError, ParameterError, SizeBudgetError, check_rational, checked_make, is_int
from .exact_linalg import ExactMatrix, span_basis
from .johnson import JohnsonParams, SparseFunction, adjacency_sums, neighbors

# Largest vertex count of adjacency_matrix and eigenspace_basis, whose
# results are dense matrices with one row per vertex.
DEFAULT_DENSE_BUDGET = 300


class EigenvalueInfo(namedtuple("EigenvalueInfo", "i lam multiplicity")):
    """The eigenvalue lam = lambda_i of index i and its multiplicity."""

    __slots__ = ()


class EigenVerdict(namedtuple("EigenVerdict", "holds is_zero certificate", defaults=(None,))):
    """Result of checking lambda * f(x) = sum of f over neighbors at every relevant vertex.

    certificate is the first vertex in rank order where the equation fails,
    or None when it holds everywhere. The all-zero function satisfies the
    equation for every lambda and is flagged by is_zero.
    """

    __slots__ = ()


def eigenvalue(params: JohnsonParams, i: int) -> int:
    """lambda_i(n, w) = (w-i)(n-w-i) - i."""
    n, w = params.n, params.w
    if not (is_int(i) and 0 <= i <= w):
        raise ParameterError(f"eigenvalue index {i!r} is not an int in 0..{w}")
    return (w - i) * (n - w - i) - i


def spectrum(params: JohnsonParams) -> list[EigenvalueInfo]:
    """The distinct eigenvalues of J(n,w) and their multiplicities, by index i = 0..min(w, n-w)."""
    n, w = params.n, params.w
    return [
        EigenvalueInfo(i, eigenvalue(params, i), eigenspace_dimension(params, i))
        for i in range(min(w, n - w) + 1)
    ]


class EigenspaceBasis(namedtuple("EigenspaceBasis", "params i lam basis")):
    """Exact basis of one eigenspace; rows of `basis` follow vertex rank order.
    ParameterError unless i is an int in 0..w and lam an int (bool is neither)."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, params: JohnsonParams, i: int, lam: int, basis: ExactMatrix):
        eigenvalue(params, i)  # checks i
        if not is_int(lam):
            raise ParameterError(f"eigenvalue {lam!r} is not an int")
        if basis.rows != params.num_vertices:
            raise ParameterError(f"basis has {basis.rows} rows for {params.num_vertices} vertices")
        return super().__new__(cls, params, i, lam, basis)

    @property
    def dimension(self) -> int:
        return self.basis.cols

    def member(self, coeffs) -> SparseFunction:
        """The sparse function whose value vector is basis @ coeffs."""
        if len(coeffs) != self.basis.cols:
            raise ParameterError(f"expected {self.basis.cols} coefficients, got {len(coeffs)}")
        coeffs = [check_rational(v) for v in coeffs]
        return SparseFunction(self.params, {
            x: sum((c * v for c, v in zip(self.basis.row(r), coeffs) if c and v), Fraction(0))
            for r, x in enumerate(self.params.vertices())
        })


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


def eigenspace_dimension(params: JohnsonParams, i: int) -> int:
    """Dimension of the lambda_i eigenspace, for any size: C(n,i) - C(n,i-1),
    the shape (n-i, i), when i <= m = min(w, n-w), and 0 otherwise.

    Proof. lambda_t = p(t) = (w-t)(n-w-t) - t, and p(i) - p(j) = (i-j)(i+j-n-1).
    For j <= m and i <= w, i + j <= w + (n-w) = n, so p(i) = p(j) only when
    i = j, and p(i) < p(j) when i > j: lambda_0 > ... > lambda_m, and no
    lambda_i with m < i <= w equals one of them. For each j <= m the standard
    tableaux of shape (n-j, j) span C(n,j) - C(n,j-1) dimensions of the
    lambda_j eigenspace (James's standard basis theorem; eigenspace_basis
    checks it when it builds one). Eigenspaces of distinct eigenvalues are
    independent, and these spans sum to C(n,m) = C(n,w), the whole space: so
    they are the eigenspaces, and lambda_i for i > m has none.
    """
    eigenvalue(params, i)  # checks i
    n, w = params.n, params.w
    return binomial(n, i) - binomial(n, i - 1) if i <= min(w, n - w) else 0


def eigenspace_basis(params: JohnsonParams, i: int) -> EigenspaceBasis:
    """Exact basis of the lambda_i eigenspace, equal bit for bit to nullspace(A - lambda_i I).

    Each call builds a new basis; J(n,w) may have at most
    DEFAULT_DENSE_BUDGET vertices. The eigenspace is zero unless i <= m =
    min(w, n-w) (eigenspace_dimension). The generators come from the
    standard Young tableaux of shape (n-i, i) on the coordinates: the second
    row is b_0 < ... < b_{i-1} with b_k >= 2k+1, and a_k, the k-th smallest
    coordinate outside {b}, tops column k. The canonical +-1 function of the
    pairs (a_k, b_k) is the tableau's standard polytabloid (James 1978).

    Proof that they span the eigenspace: every generator passes the integer
    eigen-check, and span_basis checks that they span C(n,i) - C(n,i-1)
    dimensions, the number of these tableaux and the eigenspace's dimension.
    """
    n, w = params.n, params.w
    lam = eigenvalue(params, i)
    nverts = _check_budget(params)
    dim = eigenspace_dimension(params, i)
    if not dim:
        return EigenspaceBasis(params, i, lam, ExactMatrix(nverts, 0, []))
    index = {x: r for r, x in enumerate(params.vertices())}
    rows = []
    for second in itertools.combinations(range(n), i):
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
    return EigenspaceBasis(params, i, lam, span_basis(rows, nverts, dim))


def _failing_vertices(nums: dict[int, int], n: int, lam: int) -> list[int]:
    """Vertices x where lam * f(x) != (A f)(x), for f with integer values nums.

    It can only fail on supp(f) and supp(A f), and adjacency_sums keys both:
    elsewhere the equation reads 0 = 0.
    """
    return [x for x, s in adjacency_sums(nums, n).items() if s != lam * nums.get(x, 0)]


def is_eigenfunction(f: SparseFunction, lam: int) -> EigenVerdict:
    """Check lam * f = A f on the integer numerators of f.

    A f = U D f - w f (adjacency_sums) visits only supp(f), its (w-1)-subsets
    and the supersets of the nonzero down sums, and on an eigenfunction D
    cancels most sums. The certificate is the failing vertex of lowest rank.
    """
    if not is_int(lam):
        raise ParameterError(f"eigenvalue {lam!r} is not an int")
    if f.is_zero():
        return EigenVerdict(holds=True, is_zero=True)
    failing = _failing_vertices(f.nums, f.params.n, lam)
    if failing:
        return EigenVerdict(holds=False, is_zero=False, certificate=min(failing))
    return EigenVerdict(holds=True, is_zero=False)
