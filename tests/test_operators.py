"""Induction, reduction, zero pairs, and the coordinate partition."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from johnson_eigen import (
    JohnsonParams,
    PairingConfig,
    ParameterError,
    SparseFunction,
    build_canonical,
    coordinate_partition,
    default_pairing,
    eigenspace_basis,
    eigenvalue,
    induce,
    induce_down_one,
    is_eigenfunction,
    iterated_reduce,
    reduce,
    spectrum,
    survivor_coordinates,
    vertex_from_elements,
    zero_pair,
)
from johnson_eigen.operators import swap_maps_to

from conftest import (
    block_symmetrized_function,
    make_rng,
    random_member,
    random_sparse_function,
    reference_induce,
    reference_induce_down_one,
    reference_reduce,
)

V = vertex_from_elements


def canonical(n, w, i, pairs=None):
    pairing = PairingConfig(tuple(pairs)) if pairs is not None else default_pairing(i)
    return build_canonical(JohnsonParams(n, w), pairing)


def test_induce_examples():
    assert induce(canonical(5, 1, 1), 2) == canonical(5, 2, 1)
    z = induce(SparseFunction.zero(JohnsonParams(6, 2)), 3)
    assert z.is_zero() and z.params == JohnsonParams(6, 3)
    twos = induce(SparseFunction.constant(JohnsonParams(5, 1), 1), 2)
    assert twos == SparseFunction.constant(JohnsonParams(5, 2), 2)


def test_induce_at_same_weight_is_identity():
    f = canonical(6, 2, 1)
    assert induce(f, 2) == f


def test_induce_validation():
    f = canonical(5, 2, 1)
    with pytest.raises(ParameterError):
        induce(f, 1)
    with pytest.raises(ParameterError):
        induce(f, 6)


def test_induce_down_one_examples():
    assert induce_down_one(canonical(6, 2, 2)).is_zero()
    fours = induce_down_one(SparseFunction.constant(JohnsonParams(5, 2), 1))
    assert fours == SparseFunction.constant(JohnsonParams(5, 1), 4)
    d = induce_down_one(canonical(5, 2, 1))
    assert not d.is_zero()
    assert d(V([0])) == -3
    with pytest.raises(ParameterError):
        induce_down_one(SparseFunction.zero(JohnsonParams(4, 0)))


def test_reduce_examples():
    r = reduce(canonical(5, 2, 1), 0, 1)
    assert r == SparseFunction.constant(JohnsonParams(3, 1), -2)
    assert is_eigenfunction(r, 2).holds  # lambda_0(3,1) = 2

    f = canonical(8, 3, 1)
    assert reduce(f, 5, 6).is_zero()  # both coordinates outside the pairing

    rr = iterated_reduce(canonical(5, 2, 1), [(0, 1), (0, 1)])
    assert rr.is_zero() and rr.params == JohnsonParams(1, 0)


def test_reduce_validation():
    f = canonical(5, 2, 1)
    for j1, j2 in [(0, 0), (0, 5), (-1, 2)]:
        with pytest.raises(ParameterError):
            reduce(f, j1, j2)
    with pytest.raises(ParameterError):
        reduce(SparseFunction.constant(JohnsonParams(3, 3), 1), 0, 1)


def test_reduce_antisymmetric_in_coordinate_order():
    rng = make_rng(31)
    f = random_sparse_function(JohnsonParams(6, 3), rng)
    assert reduce(f, 1, 4) == -reduce(f, 4, 1)


def test_iterated_reduce_identity_and_survivors():
    f = canonical(6, 3, 1)
    assert iterated_reduce(f, []) == f
    assert survivor_coordinates(6, []) == [0, 1, 2, 3, 4, 5]
    assert survivor_coordinates(6, [(0, 1)]) == [2, 3, 4, 5]
    assert survivor_coordinates(6, [(0, 1), (1, 3)]) == [2, 4]
    with pytest.raises(ParameterError):
        survivor_coordinates(6, [(0, 0)])


def test_survivor_coordinates_match_reduction_semantics():
    # reducing on original coordinates (a,b) then on the renumbered pair equals
    # composing deletions tracked by survivor_coordinates
    f = canonical(8, 3, 1, pairs=[(2, 5)])
    pairs = [(1, 6), (0, 3)]
    g = iterated_reduce(f, pairs)
    survivors = survivor_coordinates(8, pairs)
    assert g.params.n == len(survivors) == 4
    # original pairing coordinates 2 and 5 survive and map order-preservingly
    assert survivors.index(2) == 0 and survivors.index(5) == 2


def test_lambda_shift_identity():
    # reduction shifts the eigenvalue up by one, landing at the smaller graph's
    # index i-1: lambda_{i-1}(n-2, w-1) = lambda_i(n, w) + 1
    for n in range(2, 15):
        for w in range(1, n):
            for i in range(1, w + 1):
                lam = eigenvalue(JohnsonParams(n, w), i)
                lam_red = eigenvalue(JohnsonParams(n - 2, w - 1), i - 1)
                assert lam_red == lam + 1


def test_reduce_maps_eigenfunctions_down_one_index():
    rng = make_rng(32)
    for _ in range(25):
        n = rng.randint(4, 8)
        w = rng.randint(1, n - 1)
        p = JohnsonParams(n, w)
        choices = [e.i for e in spectrum(p) if e.i >= 1 and eigenspace_basis(p, e.i).dimension >= 1]
        if not choices:
            continue
        i = rng.choice(choices)
        f = random_member(eigenspace_basis(p, i), rng)
        j1, j2 = rng.sample(range(n), 2)
        g = reduce(f, j1, j2)
        lam_red = eigenvalue(JohnsonParams(n - 2, w - 1), i - 1)
        assert is_eigenfunction(g, lam_red).holds


def test_zero_pair_examples():
    f = canonical(5, 2, 1)
    assert zero_pair(f, 2, 3)
    assert not zero_pair(f, 0, 2)
    ones = SparseFunction.constant(JohnsonParams(5, 2), 1)
    for j1 in range(5):
        for j2 in range(j1 + 1, 5):
            assert zero_pair(ones, j1, j2)


@st.composite
def _pair_cases(draw):
    n = draw(st.integers(2, 7))
    w = draw(st.integers(1, n - 1))
    p = JohnsonParams(n, w)
    rng = make_rng(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from([random_sparse_function, block_symmetrized_function]))
    f = kind(p, rng).scale(Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 7))))
    j1, j2 = draw(st.permutations(range(n)))[:2]
    return f, j1, j2


@settings(max_examples=300, deadline=None)
@given(_pair_cases())
def test_zero_pair_matches_reduction(case):
    f, j1, j2 = case
    assert zero_pair(f, j1, j2) == reduce(f, j1, j2).is_zero()


@settings(max_examples=300, deadline=None)
@given(_pair_cases(), st.sampled_from([1, -1]))
def test_swap_maps_to_matches_definition(case, sign):
    f, a, b = case
    mask = (1 << a) | (1 << b)
    swapped = SparseFunction(f.params, {
        x ^ mask if (x & mask) not in (0, mask) else x: v for x, v in f.entries.items()
    })
    assert swap_maps_to(f, a, b, sign) == (swapped == f.scale(sign))
    canon = canonical(f.params.n, f.params.w, 1, pairs=[(a, b)])
    assert swap_maps_to(canon, a, b, -1) and not swap_maps_to(canon, a, b, 1)


def test_zero_pair_validation():
    f = canonical(5, 2, 1)
    for j1, j2 in [(1, 1), (0, 5), (5, 0), (-1, 2), (2, -1)]:
        with pytest.raises(ParameterError):
            zero_pair(f, j1, j2)
    for n in (2, 5):
        for w in (0, n):
            with pytest.raises(ParameterError):
                zero_pair(SparseFunction.constant(JohnsonParams(n, w), 1), 0, 1)


def test_zero_pair_transitivity():
    rng = make_rng(33)
    for trial in range(60):
        n = rng.randint(3, 6)
        w = rng.randint(1, n - 1)
        p = JohnsonParams(n, w)
        f = block_symmetrized_function(p, rng) if trial % 2 else random_sparse_function(p, rng)
        for j1 in range(n):
            for j2 in range(j1 + 1, n):
                for j3 in range(j2 + 1, n):
                    if zero_pair(f, j1, j2) and zero_pair(f, j1, j3):
                        assert zero_pair(f, j2, j3)


def test_partition_examples():
    assert coordinate_partition(canonical(5, 2, 1)).blocks == ((0,), (1,), (2, 3, 4))
    ones = SparseFunction.constant(JohnsonParams(6, 3), 1)
    assert coordinate_partition(ones).blocks == ((0, 1, 2, 3, 4, 5),)
    f = canonical(6, 2, 2, pairs=[(0, 1), (2, 3)])
    part = coordinate_partition(f)
    assert part.blocks == ((0,), (1,), (2,), (3,), (4, 5))
    assert part.t == 5


def test_partition_zero_function_single_block():
    part = coordinate_partition(SparseFunction.zero(JohnsonParams(5, 2)))
    assert part.blocks == ((0, 1, 2, 3, 4),)
    assert part.t == 1


def test_partition_agrees_with_pairwise_zero_pair_oracle():
    rng = make_rng(34)
    for trial in range(20):
        n = rng.randint(2, 6)
        w = rng.randint(1, n - 1)
        p = JohnsonParams(n, w)
        f = block_symmetrized_function(p, rng) if trial % 2 else random_sparse_function(p, rng)
        part = coordinate_partition(f)
        cls = {}
        for b, block in enumerate(part.blocks):
            for c in block:
                cls[c] = b
        for j1 in range(n):
            for j2 in range(j1 + 1, n):
                assert zero_pair(f, j1, j2) == (cls[j1] == cls[j2])


def test_partition_of_canonical_functions():
    for n in range(2, 13):
        for i in range(0, 4):
            if n <= 2 * i:
                continue
            for w in range(i, min(n, i + (n - 2 * i)) + 1):
                f = build_canonical(JohnsonParams(n, w), default_pairing(i))
                part = coordinate_partition(f)
                singles = part.singletons()
                assert len(singles) == 2 * i + (1 if n - 2 * i == 1 else 0)
                sizes = sorted(len(b) for b in part.blocks)
                if n - 2 * i >= 2:
                    assert sizes == [1] * (2 * i) + [n - 2 * i]


def test_induced_eigenvalue_shift_theorem():
    # induced eigenfunctions shift lambda by (w-i)(n-i-w), including zero results
    for n in range(2, 7):
        for i in range(0, n + 1):
            p = JohnsonParams(n, i)
            for e in spectrum(p):
                basis = eigenspace_basis(p, e.i)
                for c in range(basis.dimension):
                    f = basis.column_function(c)
                    for w in range(i, n + 1):
                        g = induce(f, w)
                        assert is_eigenfunction(g, e.lam + (w - i) * (n - i - w)).holds


def test_down_induction_kernel_is_minus_w_eigenspace():
    rng = make_rng(35)
    for n in range(2, 7):
        for w in range(1, n + 1):
            p = JohnsonParams(n, w)
            for e in spectrum(p):
                basis = eigenspace_basis(p, e.i)
                if basis.dimension == 0:
                    continue
                f = random_member(basis, rng)
                assert induce_down_one(f).is_zero() == (e.lam == -w)


def test_down_induction_nonzero_for_random_non_eigenfunctions():
    rng = make_rng(36)
    checked = 0
    while checked < 20:
        n = rng.randint(3, 7)
        w = rng.randint(1, n - 1)
        p = JohnsonParams(n, w)
        f = random_sparse_function(p, rng)
        if f.is_zero() or is_eigenfunction(f, -w).holds:
            continue
        assert not induce_down_one(f).is_zero()
        checked += 1


def test_factorial_chain_identity():
    # (w-i)! * induce(f, w) equals the chain of one-step inductions, any f
    rng = make_rng(37)
    for n, i, w in [(6, 1, 3), (7, 2, 4), (5, 0, 2)]:
        f = random_sparse_function(JohnsonParams(n, i), rng)
        chain = f
        for step in range(i, w):
            chain = induce(chain, step + 1)
        assert chain == induce(f, w).scale(math.factorial(w - i))


def test_reduce_induce_interplay():
    # reducing the induced canonical function on its first pair gives (-2) times
    # the canonical function with the remaining pairs on the smaller graph
    for n in range(5, 9):
        i = 2
        for w in range(i, min(n, i + (n - 2 * i)) + 1):
            f = build_canonical(JohnsonParams(n, w), PairingConfig(((0, 1), (2, 3))))
            r = reduce(f, 0, 1)
            expected = build_canonical(JohnsonParams(n - 2, w - 1), PairingConfig(((0, 1),))).scale(-2)
            assert r == expected


@st.composite
def _rational_functions(draw):
    n = draw(st.integers(1, 8))
    w = draw(st.integers(0, n))
    params = JohnsonParams(n, w)
    value = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))
    support = draw(st.lists(st.sampled_from(list(params.vertices())), unique=True))
    return SparseFunction(params, {x: draw(value) for x in support})


@settings(max_examples=300, deadline=None)
@given(_rational_functions(), st.data())
def test_integer_operators_match_fraction_references(f, data):
    n, w = f.params.n, f.params.w
    target_w = data.draw(st.integers(w, n))
    assert induce(f, target_w) == reference_induce(f, target_w)
    if w >= 1:
        assert induce_down_one(f) == reference_induce_down_one(f)
    if 1 <= w < n:
        j1, j2 = data.draw(st.permutations(range(n)))[:2]
        assert reduce(f, j1, j2) == reference_reduce(f, j1, j2)
