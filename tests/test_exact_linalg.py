"""Exact rank/nullspace against a textbook Fraction-elimination oracle."""

import math
from fractions import Fraction

import pytest

from johnson_eigen import (
    BasisCheckError,
    ExactMatrix,
    JohnsonParams,
    adjacency_matrix,
    nullspace,
    rank,
)
from johnson_eigen.exact_linalg import IntEchelon, span_basis

from conftest import make_rng, oracle_mat_vec, oracle_rank, random_rational


def shifted_adjacency(params, lam):
    m = adjacency_matrix(params)
    for r in range(m.rows):
        m.data[r * m.rows + r] -= lam
    return m


def random_matrix(rng, rows, cols, integer=True):
    if integer:
        data = [rng.randint(-6, 6) for _ in range(rows * cols)]
    else:
        data = [random_rational(rng) for _ in range(rows * cols)]
    return ExactMatrix(rows, cols, data)


def test_rank_examples():
    assert rank(ExactMatrix.identity(3)) == 3
    assert rank(ExactMatrix.zeros(4, 2)) == 0
    m = shifted_adjacency(JohnsonParams(5, 2), 1)
    assert rank(m) == 6  # 10 vertices minus multiplicity 4 of lambda_1


def test_nullspace_examples():
    assert nullspace(ExactMatrix.identity(3)).cols == 0
    assert nullspace(ExactMatrix.zeros(1, 3)).cols == 3
    m = shifted_adjacency(JohnsonParams(5, 2), -2)
    assert nullspace(m).cols == 5  # C(5,2) - C(5,1)


def test_nullspace_examples_are_annihilated():
    m = shifted_adjacency(JohnsonParams(5, 2), 1)
    ns = nullspace(m)
    assert ns.cols == 4
    for c in range(ns.cols):
        assert oracle_mat_vec(m, ns.column(c)) == [0] * m.rows


def test_rank_matches_oracle_on_random_matrices():
    rng = make_rng(11)
    for trial in range(60):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, integer=(trial % 2 == 0))
        assert rank(m) == oracle_rank(m.row_lists())


def test_nullspace_properties_random():
    rng = make_rng(12)
    for trial in range(40):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, integer=(trial % 2 == 0))
        ns = nullspace(m)
        assert ns.cols == cols - rank(m)
        for c in range(ns.cols):
            assert oracle_mat_vec(m, ns.column(c)) == [0] * rows
        if ns.cols:
            assert rank(ns) == ns.cols  # columns independent


def test_integer_and_rational_paths_agree():
    rng = make_rng(13)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m_int = random_matrix(rng, rows, cols, integer=True)
        # same matrix with one entry written as a fraction forces the rational path
        data = list(m_int.data)
        m_frac = ExactMatrix(rows, cols, [x * Fraction(1) for x in data])
        m_frac.data[0] = m_frac.data[0] + Fraction(1, 2)
        m_int2 = ExactMatrix(rows, cols, [x * 2 for x in data])
        m_int2.data[0] = m_int2.data[0] + 1
        # m_frac and m_int2 differ by a global factor of 2: same kernel
        assert nullspace(m_frac) == nullspace(m_int2)
        assert rank(m_frac) == rank(m_int2)


def test_nullspace_is_canonical_reduced_form():
    # the kernel column for free column c carries 1 at c and 0 at other free columns
    rng = make_rng(14)
    for _ in range(20):
        rows = rng.randint(1, 6)
        cols = rng.randint(2, 7)
        m = random_matrix(rng, rows, cols)
        ns = nullspace(m)
        free = []
        for c in range(ns.cols):
            col = ns.column(c)
            ones = [j for j, x in enumerate(col) if x == 1]
            assert ones, "free position must carry 1"
            free.append(col)
        for a in range(len(free)):
            pos = [j for j, x in enumerate(free[a]) if x == 1]
            self_pos = [j for j in pos if all(free[b][j] == 0 for b in range(len(free)) if b != a)]
            assert self_pos, "each kernel column has its own free position"


def test_rref_preserves_row_space_membership():
    # stacking a matrix with its nullspace-orthogonal complement keeps rank additive
    rng = make_rng(15)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = rank(m)
        ns = nullspace(m)
        stacked = ExactMatrix.from_rows(m.row_lists() + [ns.column(c) for c in range(ns.cols)])
        assert rank(stacked) == r + ns.cols  # kernel vectors extend the row space fully


def test_integer_rows_scale_by_the_lcm_of_all_denominators():
    m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 3)], [4, 0]])
    assert m.integer_rows() == [(3, -2), (24, 0)]
    assert ExactMatrix(0, 3, []).integer_rows() == []


def _assert_engine_matches_oracle(ech, pushed, width):
    assert ech.rank == oracle_rank(pushed) == len(pushed)
    # filling a fresh echelon with the pushed rows gives the same stored rows
    fresh = IntEchelon(width, pushed)
    assert (fresh.rows, fresh.pivots) == (ech.rows, ech.pivots)
    ns = nullspace(ExactMatrix(len(pushed), width, [x for row in pushed for x in row]))
    kern = ech.kernel()
    assert len(kern) == ns.cols
    free = [c for c in range(width) if c not in set(ech.pivots)]
    for k, fc in enumerate(free):
        col = ns.column(k)
        assert col[fc] == 1
        # proportional to the canonical column, with a positive free entry
        assert [Fraction(x, kern[k][fc]) for x in kern[k]] == col
        assert kern[k][fc] > 0


def test_echelon_pushes_match_oracle():
    # random push walks over low-rank integer rows, so dependent rows occur
    rng = make_rng(16)
    for _ in range(40):
        width = rng.randint(1, 6)
        gens = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(rng.randint(1, width))]
        ech = IntEchelon(width)
        pushed: list[list[int]] = []
        _assert_engine_matches_oracle(ech, pushed, width)
        for _ in range(25):
            row = [sum(rng.randint(-2, 2) * g[j] for g in gens) for j in range(width)]
            reduced = ech.reduce(row)
            assert bool(reduced) == (oracle_rank(pushed + [row]) > len(pushed))
            if reduced:
                ech.push(reduced)
                pushed.append(row)
            _assert_engine_matches_oracle(ech, pushed, width)


def test_empty_shapes():
    assert rank(ExactMatrix(0, 3, [])) == 0
    assert nullspace(ExactMatrix(0, 3, [])) == ExactMatrix.identity(3)
    assert nullspace(ExactMatrix(2, 0, [])) == ExactMatrix(0, 0, [])


def _kernel_rows(k):
    """The columns of k as integer rows, each scaled by a different nonzero factor."""
    return [[int(x * math.lcm(*(y.denominator for y in col))) * (-1) ** c * (c + 1) for x in col]
            for c, col in enumerate(k.column(c) for c in range(k.cols))]


def test_span_basis_equals_nullspace_of_any_matrix_with_that_kernel():
    rng = make_rng(41)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        k = nullspace(random_matrix(rng, rows, cols))
        gens = _kernel_rows(k)
        # mixing the generators changes the rows, not their span
        if len(gens) > 1:
            gens[0] = [a + 3 * b for a, b in zip(gens[0], gens[1])]
        assert span_basis(gens, cols, k.cols) == k


def test_span_basis_raises_when_the_rows_lose_rank():
    k = nullspace(shifted_adjacency(JohnsonParams(5, 2), -2))
    gens = _kernel_rows(k)
    assert span_basis(gens, 10, 5) == k
    gens[-1] = list(gens[0])
    with pytest.raises(BasisCheckError):
        span_basis(gens, 10, 5)
    with pytest.raises(BasisCheckError):
        span_basis(gens + [gens[0]], 10, 6)
