"""Exact eigenfunctions of Johnson graphs J(n,w).

Constructs the canonical minimum-support eigenfunctions, implements the
induction and reduction operators relating eigenspaces of different Johnson
graphs, and verifies the minimum-support bound 2^i * C(n-2i, w-i) by
exhaustive exact search on desk-scale instances. All arithmetic is exact
(arbitrary-precision integers and rationals).
"""

from .canonical import (
    CanonicalMatch,
    PairingConfig,
    build_canonical,
    default_pairing,
    match_canonical,
    support_size_bound,
)
from .combinatorics import (
    binomial,
    rank_subset,
    unrank_subset,
    vertex_elements,
    vertices_in_rank_order,
)
from .errors import (
    BasisCheckError,
    FunctionFileError,
    JohnsonEigenError,
    OracleDisagreementError,
    ParameterError,
    ParamsMismatchError,
    SizeBudgetError,
)
from .exact_linalg import ExactMatrix, nullspace
from .fileformat import read_function, write_function
from .johnson import (
    JohnsonParams,
    SparseFunction,
    apply_adjacency,
    neighbors,
)
from .minsupport import (
    SearchReport,
    SearchStats,
    min_support_bnb,
    min_support_hyperplane,
    verify_bound,
)
from .operators import (
    PartitionResult,
    coordinate_partition,
    induce,
    induce_down_one,
    reduce,
)
from .spectral import (
    EigenspaceBasis,
    EigenvalueInfo,
    EigenVerdict,
    adjacency_matrix,
    eigenspace_basis,
    eigenspace_dimension,
    eigenvalue,
    is_eigenfunction,
    spectrum,
)

__version__ = "0.1.0"
