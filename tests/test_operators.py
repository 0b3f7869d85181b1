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
    binomial,
    build_canonical,
    coordinate_partition,
    default_pairing,
    eigenspace_basis,
    eigenvalue,
    induce,
    induce_down_one,
    is_eigenfunction,
    match_canonical,
    reduce,
    spectrum,
    support_size_bound,
    unrank_subset,
    vertices_in_rank_order,
)
from johnson_eigen.operators import swap_maps_to

from conftest import (
    V,
    block_symmetrized_function,
    make_rng,
    random_member,
    random_sparse_function,
    reference_induce,
    reference_induce_down_one,
    reference_reduce,
)


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

    rr = reduce(reduce(canonical(5, 2, 1), 0, 1), 0, 1)
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
    assert swap_maps_to(f, j1, j2, 1) == reduce(f, j1, j2).is_zero()


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
                    if reduce(f, j1, j2).is_zero() and reduce(f, j1, j3).is_zero():
                        assert reduce(f, j2, j3).is_zero()


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


@pytest.mark.parametrize("n", range(7))
def test_partition_of_a_single_vertex_graph_is_one_block(n):
    # w = 0 and w = n used to take a branch of their own; every swap fixes the one vertex
    for w in {0, n}:
        for value in (0, 1, Fraction(-3, 2)):
            f = SparseFunction.constant(JohnsonParams(n, w), value)
            assert coordinate_partition(f).blocks == ((tuple(range(n)),) if n else ())


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
                assert reduce(f, j1, j2).is_zero() == (cls[j1] == cls[j2])


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
                    f = basis.member([int(j == c) for j in range(basis.dimension)])
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
    # the canonical function of P is the one of P minus (a, b), lifted over (a, b);
    # reducing over (a, b) undoes the lift up to -2, and over (b, a) up to +2, with
    # the other pairs renumbered to the survivors of J(n-2, w-1)
    rng = make_rng(29)
    for _ in range(300):
        n = rng.randint(2, 10)
        i = rng.randint(1, n // 2)
        w = rng.randint(i, n - i)
        coords = rng.sample(range(n), 2 * i)
        pairs = list(zip(coords[::2], coords[1::2]))
        f = build_canonical(JohnsonParams(n, w), PairingConfig(tuple(pairs)))
        for k, (a, b) in enumerate(pairs):
            position = {c: q for q, c in enumerate(c for c in range(n) if c not in (a, b))}
            rest = tuple((position[c], position[d]) for c, d in pairs[:k] + pairs[k + 1:])
            lifted = build_canonical(JohnsonParams(n - 2, w - 1), PairingConfig(rest))
            assert reduce(f, a, b) == lifted.scale(-2), (n, w, pairs, k)
            assert reduce(f, b, a) == lifted.scale(2), (n, w, pairs, k)


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


_F52 = build_canonical(JohnsonParams(5, 2), default_pairing(1))


@pytest.mark.parametrize("call", [
    # the first three used to run quietly as reduce(f, 1, 2), 5 and 6
    lambda: reduce(_F52, True, 2),
    lambda: unrank_subset(1.0, 5, 2),
    lambda: support_size_bound(5, 2, True),
    # the rest used to end in a bare TypeError
    lambda: reduce(_F52, 0.0, 1),
    lambda: induce(_F52, 3.0),
    lambda: match_canonical(_F52, 1.0),
    lambda: default_pairing(1.0),
    lambda: support_size_bound(5, 2, 1.0),
    lambda: binomial(5.0, 2),
], ids=["reduce-bool", "unrank-float", "bound-bool", "reduce-float", "induce", "match",
        "default_pairing", "bound-float", "binomial"])
def test_non_int_arguments_raise_parameter_error(call):
    with pytest.raises(ParameterError, match="int"):
        call()


@pytest.mark.parametrize("call, message", [
    # the bool one used to yield the five w=1 vertices, the float one to end in a bare TypeError
    (lambda: list(vertices_in_rank_order(5, True)), "^n and w must be ints, got 5, True$"),
    (lambda: list(vertices_in_rank_order(5.0, 2)), "^n and w must be ints, got 5.0, 2$"),
], ids=["rank-order-bool", "rank-order-float"])
def test_rank_order_rejects_non_int_arguments(call, message):
    with pytest.raises(ParameterError, match=message):
        call()
