"""Spectrum formulas, eigenspace bases, eigenfunction verdicts."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from johnson_eigen import (
    BasisCheckError,
    EigenspaceBasis,
    ExactMatrix,
    JohnsonParams,
    PairingConfig,
    ParameterError,
    SizeBudgetError,
    SparseFunction,
    adjacency_matrix,
    binomial,
    build_canonical,
    default_pairing,
    eigenspace_basis,
    eigenspace_dimension,
    eigenvalue,
    is_eigenfunction,
    nullspace,
    spectrum,
    support_size_bound,
    exact_linalg,
    spectral,
)

from johnson_eigen.johnson import adjacency_sums

from conftest import V, make_rng, oracle_mat_vec, reference_is_eigenfunction


def test_spectrum_examples():
    assert [(e.i, e.lam, e.multiplicity) for e in spectrum(JohnsonParams(5, 2))] == [
        (0, 6, 1), (1, 1, 4), (2, -2, 5),
    ]
    assert [(e.i, e.lam, e.multiplicity) for e in spectrum(JohnsonParams(6, 3))] == [
        (0, 9, 1), (1, 3, 5), (2, -1, 9), (3, -3, 5),
    ]
    assert [(e.i, e.lam, e.multiplicity) for e in spectrum(JohnsonParams(7, 0))] == [(0, 0, 1)]
    # for 2w > n the spectrum ends at n-w: the rows (2, -3, 2) and (3, -3, -2) of
    # J(4,3), and (2, -4, 5), (3, -5, 0), (4, -4, -5) of J(5,4), were not eigenvalues
    assert [(e.i, e.lam, e.multiplicity) for e in spectrum(JohnsonParams(4, 3))] == [(0, 3, 1), (1, -1, 3)]
    assert [(e.i, e.lam, e.multiplicity) for e in spectrum(JohnsonParams(5, 4))] == [(0, 4, 1), (1, -1, 4)]


def test_the_spectrum_is_lambda_0_to_lambda_min_w_n_minus_w():
    # eigenspace_dimension proves it; checked here on every graph the package takes
    for n in range(65):
        for w in range(n + 1):
            p, m = JohnsonParams(n, w), min(w, n - w)
            for i in range(w + 1):
                assert (eigenspace_dimension(p, i) > 0) == (i <= m) == (support_size_bound(n, w, i) > 0), (n, w, i)
            infos = spectrum(p)
            assert [e.i for e in infos] == list(range(m + 1))
            assert all(a.lam > b.lam for a, b in zip(infos, infos[1:])), (n, w)
            assert all(e.multiplicity > 0 for e in infos), (n, w)
            assert sum(e.multiplicity for e in infos) == binomial(n, w), (n, w)


def test_formula_multiplicities_telescope():
    for n in range(1, 11):
        for w in range(n + 1):
            infos = spectrum(JohnsonParams(n, w))
            assert sum(e.multiplicity for e in infos) == binomial(n, w)
            assert infos[0].lam == w * (n - w)  # degree eigenvalue first


def test_eigenspace_basis_examples():
    assert eigenspace_basis(JohnsonParams(5, 2), 2).dimension == 5
    b = eigenspace_basis(JohnsonParams(4, 2), 0)
    assert b.dimension == 1
    col = b.member([1])
    vals = set(col.entries.values())
    assert col.support_size == 6 and len(vals) == 1  # proportional to all-ones
    assert eigenspace_basis(JohnsonParams(6, 3), 1).dimension == 5


def test_eigenspace_basis_columns_are_eigenfunctions():
    for n in range(2, 8):
        for w in range(n + 1):
            p = JohnsonParams(n, w)
            for e in spectrum(p):
                basis = eigenspace_basis(p, e.i)
                for j in range(basis.dimension):
                    f = basis.member([int(k == j) for k in range(basis.dimension)])
                    verdict = is_eigenfunction(f, e.lam)
                    assert verdict.holds and not verdict.is_zero


def test_eigenspace_dims_match_delsarte_in_valid_range():
    for n in range(1, 9):
        for w in range(n + 1):
            p = JohnsonParams(n, w)
            for i in range(min(w, n - w) + 1):
                assert eigenspace_basis(p, i).dimension == binomial(n, i) - binomial(n, i - 1)


def test_eigenvalues_strictly_decreasing_when_n_ge_2w():
    for n in range(1, 15):
        for w in range(n // 2 + 1):
            lams = [e.lam for e in spectrum(JohnsonParams(n, w))]
            assert all(a > b for a, b in zip(lams, lams[1:]))


@pytest.mark.parametrize("i", [1.0, True, "1"])
def test_eigenvalue_index_must_be_an_int(i):
    # eigenspace_basis(p, 1.0) and (p, True) used to run as index 1
    p = JohnsonParams(5, 2)
    for call in (eigenvalue, eigenspace_dimension, eigenspace_basis):
        with pytest.raises(ParameterError, match=r"is not an int in 0\.\.2"):
            call(p, i)


@pytest.mark.parametrize("lam", ["1", 1.0, True, Fraction(1), None])
def test_eigenvalue_must_be_an_int(lam):
    # is_eigenfunction(f, "1") used to give a verdict with a certificate ("1" * k is
    # string repetition), 1.0 to decide in floats and True to run as 1
    p = JohnsonParams(5, 2)
    message = f"^eigenvalue {re.escape(repr(lam))} is not an int$"
    for f in (build_canonical(p, default_pairing(1)), SparseFunction.zero(p)):
        with pytest.raises(ParameterError, match=message):
            is_eigenfunction(f, lam)


def test_member_needs_one_coefficient_per_basis_column():
    space = eigenspace_basis(JohnsonParams(5, 2), 1)
    with pytest.raises(ParameterError, match="^expected 4 coefficients, got 3$"):
        space.member([1, 2, 3])


def test_size_budget_enforced():
    # the fixed cap of 300 vertices at its edge: J(10,5) has 252, J(11,4) 330
    assert eigenspace_basis(JohnsonParams(10, 5), 1).basis.rows == 252
    for n, w in [(11, 4), (12, 6)]:
        with pytest.raises(SizeBudgetError):
            eigenspace_basis(JohnsonParams(n, w), 1)
        with pytest.raises(SizeBudgetError):
            adjacency_matrix(JohnsonParams(n, w))


def test_eigenspace_dimension_matches_the_built_basis():
    for n in range(11):
        for w in range(n + 1):
            p = JohnsonParams(n, w)
            if p.num_vertices <= spectral.DEFAULT_DENSE_BUDGET:
                for i in range(w + 1):
                    assert eigenspace_dimension(p, i) == eigenspace_basis(p, i).dimension, (n, w, i)
    # no size cap: J(12,8) i=7 is empty, J(20,10) i=3 has C(20,3) - C(20,2)
    assert eigenspace_dimension(JohnsonParams(12, 8), 7) == 0
    assert eigenspace_dimension(JohnsonParams(20, 10), 3) == 1140 - 190


def test_eigenspace_basis_needs_one_row_per_vertex():
    p = JohnsonParams(4, 2)
    EigenspaceBasis(p, 1, 0, ExactMatrix(6, 1, [1] * 6))
    for nrows in (5, 8):
        with pytest.raises(ParameterError, match=f"basis has {nrows} rows for 6 vertices"):
            EigenspaceBasis(p, 1, 0, ExactMatrix(nrows, 1, [1] * nrows))


@pytest.mark.parametrize("field,value,message", [
    ("i", 7, "eigenvalue index 7 is not an int in 0..2"),
    ("i", -1, "eigenvalue index -1 is not an int in 0..2"),
    ("i", 1.0, "eigenvalue index 1.0 is not an int in 0..2"),
    ("i", True, "eigenvalue index True is not an int in 0..2"),
    ("lam", 2.5, "eigenvalue 2.5 is not an int"),
    ("lam", "x", "eigenvalue 'x' is not an int"),
    ("lam", False, "eigenvalue False is not an int"),
    ("lam", Fraction(1), "eigenvalue Fraction\\(1, 1\\) is not an int"),
])
def test_eigenspace_basis_rejects_a_bad_index_or_eigenvalue(field, value, message):
    # i=7 used to run the whole bnb and fail only in its report; lam=2.5 reached the report
    space = eigenspace_basis(JohnsonParams(5, 2), 1)
    fields = space._asdict() | {field: value}
    with pytest.raises(ParameterError, match=f"^{message}$"):
        EigenspaceBasis(**fields)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        space._replace(**{field: value})


def test_is_eigenfunction_examples():
    p = JohnsonParams(5, 2)
    ones = SparseFunction.constant(p, 1)
    assert is_eigenfunction(ones, 6).holds
    f = build_canonical(p, default_pairing(1))
    assert is_eigenfunction(f, 1).holds
    v = is_eigenfunction(f, 2)
    assert not v.holds
    assert v.certificate == V([0, 2])


def test_is_eigenfunction_zero_flag():
    p = JohnsonParams(5, 2)
    z = SparseFunction.zero(p)
    for lam in (-3, 0, 6):
        v = is_eigenfunction(z, lam)
        assert v.holds and v.is_zero and v.certificate is None


def test_certificate_is_first_violation_in_rank_order():
    p = JohnsonParams(4, 2)
    f = SparseFunction(p, {V([0, 1]): 1})  # not an eigenfunction for lam=1
    v = is_eigenfunction(f, 1)
    assert not v.holds
    # the equation already fails at rank 0
    assert v.certificate == V([0, 1])


def test_a_support_vertex_where_a_f_vanishes_fails_for_a_nonzero_lambda():
    # (A f)({0,1}) = f({0,2}) + f({1,2}) = 0, so {0,1} is a key of A f only
    # because it is in supp(f); the equation lam * 1 = 0 fails there first
    p = JohnsonParams(4, 2)
    f = SparseFunction(p, {V([0, 1]): 1, V([0, 2]): 1, V([1, 2]): -1})
    assert adjacency_sums(f.nums, 4)[V([0, 1])] == 0
    for lam in (-2, -1, 1, 2, 4, 7):
        verdict = is_eigenfunction(f, lam)
        assert verdict == reference_is_eigenfunction(f, lam)
        assert verdict.certificate == V([0, 1])


@st.composite
def _eigen_cases(draw):
    n = draw(st.integers(1, 7))
    w = draw(st.integers(0, n))
    params = JohnsonParams(n, w)
    verts = list(params.vertices())
    value = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "member", "perturbed", "zero"]))
    if kind == "zero":
        f = SparseFunction.zero(params)
    elif kind == "random":
        support = draw(st.lists(st.sampled_from(verts), unique=True))
        f = SparseFunction(params, {x: draw(value) for x in support})
    else:
        space = eigenspace_basis(params, draw(st.integers(0, w)))
        f = space.member(draw(st.lists(value, min_size=space.dimension, max_size=space.dimension)))
        if kind == "perturbed":
            f = f + SparseFunction(params, {draw(st.sampled_from(verts)): draw(value)})
    lams = sorted({info.lam for info in spectrum(params)})
    gap = draw(st.integers(1, 20))
    return f, lams + [draw(st.sampled_from([lams[0] - gap, lams[-1] + gap]))]


@settings(max_examples=300, deadline=None)
@given(_eigen_cases())
def test_is_eigenfunction_matches_gather_reference(case):
    f, lams = case
    for lam in lams:
        assert is_eigenfunction(f, lam) == reference_is_eigenfunction(f, lam)


def _canonical_functions(params, rng):
    """The tableau generators of every eigenspace, and one canonical function of
    random pairs for each index i."""
    n, w = params.n, params.w
    for j in range(min(w, n - w) + 1):
        for second in itertools.combinations(range(n), j):
            if all(b >= 2 * k + 1 for k, b in enumerate(second)):
                first = [c for c in range(n) if c not in second]
                yield build_canonical(params, PairingConfig(tuple(zip(first, second))))
    for i in range(w + 1):
        if w - i <= n - 2 * i:
            coords = rng.sample(range(n), 2 * i)
            yield build_canonical(params, PairingConfig(tuple(zip(coords[::2], coords[1::2]))))


def test_is_eigenfunction_matches_gather_reference_on_perturbed_eigenfunctions():
    rng = make_rng(505)
    for n, w in [(4, 2), (5, 2), (6, 3), (7, 2), (7, 3), (8, 3), (8, 4)]:
        params = JohnsonParams(n, w)
        lams = sorted({info.lam for info in spectrum(params)})
        verts = list(params.vertices())
        for f in _canonical_functions(params, rng):
            assert any(is_eigenfunction(f, lam).holds for lam in lams)
            x = rng.choice(sorted(f.entries))
            outside = [y for y in verts if y not in f.entries]
            cases = [f, f + SparseFunction(params, {x: rng.choice([2, -3, Fraction(1, 2)])})]
            if outside:
                cases.append(f + SparseFunction(params, {rng.choice(outside): Fraction(-2, 3)}))
            for g in cases:
                for lam in lams:
                    assert is_eigenfunction(g, lam) == reference_is_eigenfunction(g, lam)


def test_basis_columns_satisfy_matrix_equation():
    p = JohnsonParams(5, 2)
    a = adjacency_matrix(p)
    for e in spectrum(p):
        basis = eigenspace_basis(p, e.i)
        for c in range(basis.dimension):
            col = basis.basis.data[c :: basis.dimension]
            av = oracle_mat_vec(a, col)
            assert av == [e.lam * x for x in col]


def test_eigenspace_basis_copies_are_private():
    p = JohnsonParams(5, 2)
    first = eigenspace_basis(p, 1)
    original = list(first.basis.data)
    first.basis.data[0] = 99
    again = eigenspace_basis(p, 1)
    assert again.basis.data == original
    assert again.basis.data[0] != 99
    assert again.basis is not first.basis


def _dense_eigenspace(params, lam):
    shifted = adjacency_matrix(params)
    for r in range(shifted.rows):
        shifted.data[r * shifted.rows + r] -= lam
    return nullspace(shifted)


@pytest.mark.parametrize("n,w", [(n, w) for n in range(10) for w in range(n + 1)] + [(10, 4)])
def test_eigenspace_basis_equals_dense_nullspace(n, w):
    # every index, including i > n-w on w > n/2 where the eigenspace is empty
    p = JohnsonParams(n, w)
    dense = {}
    for i in range(w + 1):
        lam = eigenvalue(p, i)
        if lam not in dense:
            dense[lam] = _dense_eigenspace(p, lam)
        assert eigenspace_basis(p, i).basis == dense[lam], (n, w, i)


def test_shared_eigenvalue_gives_the_same_basis():
    # J(4,3): lambda_2 = lambda_3 = -3 is no eigenvalue, so both bases are empty
    p = JohnsonParams(4, 3)
    second, third = eigenspace_basis(p, 2).basis, eigenspace_basis(p, 3).basis
    assert second == third == _dense_eigenspace(p, -3)
    assert (second.rows, second.cols) == (4, 0)


def _all_bases(params):
    return [eigenspace_basis(params, i) for i in range(params.w + 1)]


def test_eigenspace_basis_never_calls_nullspace(monkeypatch):
    def forbidden(m):
        raise AssertionError("eigenspace_basis called nullspace")

    monkeypatch.setattr(exact_linalg, "nullspace", forbidden)
    monkeypatch.setattr(spectral, "nullspace", forbidden, raising=False)
    for n, w in [(4, 3), (5, 2), (6, 3), (7, 4), (9, 4)]:
        _all_bases(JohnsonParams(n, w))


def test_every_generator_is_checked(monkeypatch):
    calls = []
    check = spectral._failing_vertices

    def counting(nums, n, lam):
        calls.append(lam)
        return check(nums, n, lam)

    monkeypatch.setattr(spectral, "_failing_vertices", counting)
    bases = _all_bases(JohnsonParams(9, 4))
    assert len(calls) == sum(b.dimension for b in bases) == binomial(9, 4) == 126


def test_generator_failing_its_eigen_check_raises(monkeypatch):
    values = spectral.pairing_values

    def broken(n, w, pairs):
        out = values(n, w, pairs)
        x = min(out)
        out[x] = -out[x]
        return out

    monkeypatch.setattr(spectral, "pairing_values", broken)
    with pytest.raises(BasisCheckError):
        eigenspace_basis(JohnsonParams(6, 3), 1)


def test_generators_losing_rank_raise(monkeypatch):
    values = spectral.pairing_values
    first = {}

    def repeated(n, w, pairs):
        return first.setdefault((n, w), values(n, w, pairs))

    monkeypatch.setattr(spectral, "pairing_values", repeated)
    with pytest.raises(BasisCheckError):
        eigenspace_basis(JohnsonParams(6, 3), 2)
