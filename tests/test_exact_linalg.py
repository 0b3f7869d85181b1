"""Exact rank/nullspace against a textbook Fraction-elimination oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from johnson_eigen import (
    BasisCheckError,
    ExactMatrix,
    JohnsonParams,
    ParameterError,
    adjacency_matrix,
    nullspace,
)
from johnson_eigen.exact_linalg import combine, reduced_echelon, span_basis

from conftest import (
    ReferenceEchelon,
    make_rng,
    oracle_mat_vec,
    oracle_rank,
    oracle_rref,
    random_rational,
    rank,
    reference_kernel,
)


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
    assert rank(ExactMatrix(3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1])) == 3
    assert rank(ExactMatrix(4, 2, [0] * 8)) == 0
    m = shifted_adjacency(JohnsonParams(5, 2), 1)
    assert rank(m) == 6  # 10 vertices minus multiplicity 4 of lambda_1


def test_nullspace_examples():
    assert nullspace(ExactMatrix(3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1])).cols == 0
    assert nullspace(ExactMatrix(1, 3, [0] * 3)).cols == 3
    m = shifted_adjacency(JohnsonParams(5, 2), -2)
    assert nullspace(m).cols == 5  # C(5,2) - C(5,1)


def test_nullspace_examples_are_annihilated():
    m = shifted_adjacency(JohnsonParams(5, 2), 1)
    ns = nullspace(m)
    assert ns.cols == 4
    for c in range(ns.cols):
        assert oracle_mat_vec(m, ns.data[c :: ns.cols]) == [0] * m.rows


def test_rank_matches_oracle_on_random_matrices():
    rng = make_rng(11)
    for trial in range(60):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, integer=(trial % 2 == 0))
        assert rank(m) == oracle_rank([m.row(r) for r in range(m.rows)])


def test_nullspace_properties_random():
    rng = make_rng(12)
    for trial in range(40):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, integer=(trial % 2 == 0))
        ns = nullspace(m)
        assert ns.cols == cols - rank(m)
        for c in range(ns.cols):
            assert oracle_mat_vec(m, ns.data[c :: ns.cols]) == [0] * rows
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
            col = ns.data[c :: ns.cols]
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
        kernel_rows = [x for c in range(ns.cols) for x in ns.data[c :: ns.cols]]
        stacked = ExactMatrix(m.rows + ns.cols, m.cols, m.data + kernel_rows)
        assert rank(stacked) == r + ns.cols  # kernel vectors extend the row space fully


def test_integer_rows_scale_by_the_lcm_of_all_denominators():
    m = ExactMatrix(2, 2, [Fraction(1, 2), Fraction(-1, 3), 4, 0])
    assert m.integer_rows() == [(3, -2), (24, 0)]
    assert ExactMatrix(0, 3, []).integer_rows() == []


def _assert_engine_matches_oracle(ech, pushed, width):
    assert ech.rank == oracle_rank(pushed) == len(pushed)
    # filling a fresh echelon with the pushed rows gives the same stored rows
    fresh = ReferenceEchelon(pushed)
    assert (fresh.rows, fresh.pivots) == (ech.rows, ech.pivots)
    # distinct leads make the stored rows an echelon form: same pivots as the reduced one
    assert [p for p, _ in reduced_echelon(pushed)] == sorted(ech.pivots)
    ns = nullspace(ExactMatrix(len(pushed), width, [x for row in pushed for x in row]))
    kern = reference_kernel(ech, width)
    assert len(kern) == ns.cols
    free = [c for c in range(width) if c not in set(ech.pivots)]
    for k, fc in enumerate(free):
        col = ns.data[k :: ns.cols]
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
        ech = ReferenceEchelon()
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


_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(10**20), 10**20))


@st.composite
def _column_pairs(draw):
    size = draw(st.integers(1, 12))
    col = draw(st.lists(_ENTRIES, min_size=size, max_size=size))
    pivot = draw(st.lists(_ENTRIES, min_size=size, max_size=size))
    if draw(st.booleans()):
        # equal or opposite entries at some rows: the unit-multiplier combines
        pivot = [draw(st.sampled_from([x, -x, y])) for x, y in zip(col, pivot)]
    return col, pivot


@settings(max_examples=400, deadline=None)
@given(_column_pairs())
def test_combine_is_the_cross_multiplication_divided_by_its_gcd(case):
    col, pivot = case
    for r in range(len(col)):
        if not (col[r] and pivot[r]):
            continue
        g0 = math.gcd(pivot[r], col[r])
        p, q = pivot[r] // g0, col[r] // g0
        new = [p * x - q * y for x, y in zip(col, pivot)]
        g = math.gcd(*new)
        expected = [x // g for x in new] if g > 1 else new
        assert combine(col, pivot, r) == expected


@pytest.mark.parametrize("scale", [1, -1, 3, -2])
def test_combine_and_reduce_of_a_dependent_row_give_zero(scale):
    base = [2, 0, -4, 6, 1]
    row = [scale * x for x in base]
    for r in (0, 2, 3, 4):
        assert combine(row, base, r) == [0] * len(base)
    other = [0, 1, 0, 0, 7]
    assert len(reduced_echelon([base, other, row])) == 2
    assert len(reduced_echelon([base, other, [a + 5 * b for a, b in zip(row, other)]])) == 2


@st.composite
def _low_rank_rows(draw):
    width = draw(st.integers(1, 7))
    gens = draw(st.lists(st.lists(st.integers(-5, 5), min_size=width, max_size=width),
                         min_size=1, max_size=width))
    nrows = draw(st.integers(1, 8))
    mix = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)),
                        min_size=nrows, max_size=nrows))
    rows = [[sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(width)] for coeffs in mix]
    return width, rows


@st.composite
def _rows_with_zeros_repeats_and_large_entries(draw):
    width = draw(st.integers(1, 6))
    gens = draw(st.lists(st.lists(_ENTRIES, min_size=width, max_size=width), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["mix", "zero", "repeat"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
            rows.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(width)])
    return width, rows


@settings(max_examples=500, deadline=None)
@given(st.one_of(_low_rank_rows(), _rows_with_zeros_repeats_and_large_entries()))
def test_reduced_is_the_reduced_echelon_form_of_the_rows(case):
    width, rows = case
    reduced = reduced_echelon(rows)
    pivots = [p for p, _ in reduced]
    assert pivots == sorted(set(pivots))
    for p, row in reduced:
        assert len(row) == width
        assert next(j for j, x in enumerate(row) if x) == p
        assert all(row[q] == 0 for q in pivots if q != p)
    # same span: the reduced rows have the rank of the rows and add nothing to them
    r = oracle_rank(rows)
    assert len(reduced) == r
    assert oracle_rank(rows + [list(row) for _, row in reduced]) == r
    # divided row by row by its pivot entries it is the textbook Fraction RREF
    assert [[Fraction(x, row[p]) for x in row] for p, row in reduced] == oracle_rref(rows)


def test_reduced_echelon_of_no_rows_or_zero_rows_is_empty():
    assert reduced_echelon([]) == []
    assert reduced_echelon([[0, 0, 0], [0, 0, 0]]) == []


def test_empty_shapes():
    assert rank(ExactMatrix(0, 3, [])) == 0
    assert nullspace(ExactMatrix(0, 3, [])) == ExactMatrix(3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1])
    assert nullspace(ExactMatrix(2, 0, [])) == ExactMatrix(0, 0, [])


def _kernel_rows(k):
    """The columns of k as integer rows, each scaled by a different nonzero factor."""
    return [[int(x * math.lcm(*(y.denominator for y in col))) * (-1) ** c * (c + 1) for x in col]
            for c, col in enumerate(k.data[c :: k.cols] for c in range(k.cols))]


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


@pytest.mark.parametrize("entry", [0.5, "1/3", True, None])
def test_matrix_rejects_an_entry_that_is_not_int_or_fraction(entry):
    # 0.5, "1/3" and True used to be stored quietly as 1/2, 1/3 and 1
    with pytest.raises(ParameterError, match="is not an int or Fraction"):
        ExactMatrix(1, 1, [entry])


@pytest.mark.parametrize("rows, cols", [(2.0, 2), (2, 2.0), (True, 1), ("2", 2), (-1, 0)])
def test_matrix_rejects_a_shape_that_is_not_two_ints(rows, cols):
    # ExactMatrix(2.0, 2, ...) used to be accepted, with rows == 2.0
    with pytest.raises(ParameterError, match="is not two nonnegative ints"):
        ExactMatrix(rows, cols, [1] * 4)


def test_matrix_rejects_data_of_the_wrong_length():
    with pytest.raises(ParameterError, match="^data length 5 does not match 2x3$"):
        ExactMatrix(2, 3, [1, 2, 3, 4, 5])


def test_matrix_shares_fraction_entries_and_converts_ints():
    half = Fraction(1, 2)
    m = ExactMatrix(1, 2, [half, 3])
    assert m.data[0] is half
    assert type(m.data[1]) is Fraction and m.data[1] == 3
