"""Canonical minimum-support construction and recognition."""

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
    default_pairing,
    eigenvalue,
    is_eigenfunction,
    match_canonical,
    support_size_bound,
    vertex_from_elements,
)

from conftest import make_rng, reference_match_canonical

V = vertex_from_elements


def random_pairing(rng, n, i) -> PairingConfig:
    coords = rng.sample(range(n), 2 * i)
    return PairingConfig(tuple((coords[2 * k], coords[2 * k + 1]) for k in range(i)))


def test_build_examples():
    f = build_canonical(JohnsonParams(5, 2), PairingConfig(((0, 1),)))
    assert f.entries == {
        V([0, 2]): -1, V([0, 3]): -1, V([0, 4]): -1,
        V([1, 2]): 1, V([1, 3]): 1, V([1, 4]): 1,
    }

    g = build_canonical(JohnsonParams(6, 3), PairingConfig(((0, 1), (2, 3), (4, 5))))
    assert g.support_size == 8
    for x, v in g.entries.items():
        assert v == (-1) ** (x & 0b010101).bit_count()

    h = build_canonical(JohnsonParams(4, 2), PairingConfig(()))
    assert h == SparseFunction.constant(JohnsonParams(4, 2), 1)


def test_bound_examples():
    assert support_size_bound(5, 2, 1) == 6
    assert support_size_bound(6, 3, 3) == 8
    assert support_size_bound(8, 3, 2) == 16  # 4 * C(4,1)
    assert support_size_bound(6, 3, 1) == 12
    assert support_size_bound(5, 2, 2) == 4
    # no canonical function fits: bound collapses to zero
    assert support_size_bound(3, 3, 1) == 0
    assert support_size_bound(3, 2, 2) == 0


def test_build_validation():
    with pytest.raises(ParameterError):
        build_canonical(JohnsonParams(5, 2), default_pairing(3))  # i > w
    with pytest.raises(ParameterError):
        build_canonical(JohnsonParams(5, 2), PairingConfig(((0, 5),)))  # coord >= n
    with pytest.raises(ParameterError):
        build_canonical(JohnsonParams(4, 4), default_pairing(1))  # w-i > n-2i
    with pytest.raises(ParameterError):
        PairingConfig(((0, 0),))


def test_canonical_functions_are_eigenfunctions_with_exact_support():
    for n in range(1, 15):
        for w in range(0, min(n, 6) + 1):
            for i in range(0, w + 1):
                if w - i > n - 2 * i or n - 2 * i < 0:
                    continue
                p = JohnsonParams(n, w)
                f = build_canonical(p, default_pairing(i))
                assert f.support_size == support_size_bound(n, w, i)
                v = is_eigenfunction(f, eigenvalue(p, i))
                assert v.holds and not v.is_zero


def test_match_examples():
    p = JohnsonParams(5, 2)
    f = build_canonical(p, default_pairing(1))
    m = match_canonical(f.scale(3), 1)
    assert m is not None
    assert m.pairing.pairs == ((0, 1),)
    assert m.scalar == 3

    assert match_canonical(SparseFunction.constant(p, 1), 1) is None

    p8 = JohnsonParams(8, 3)
    f8 = build_canonical(p8, PairingConfig(((0, 2), (1, 3))))
    m8 = match_canonical(f8, 2)
    assert m8 is not None
    rebuilt = build_canonical(p8, m8.pairing).scale(m8.scalar)
    assert rebuilt == f8


def test_match_roundtrip_random_pairings():
    rng = make_rng(42)
    for _ in range(40):
        n = rng.randint(2, 10)
        i = rng.randint(0, min(3, n // 2))
        w_lo, w_hi = i, min(n, i + (n - 2 * i))
        w = rng.randint(w_lo, w_hi)
        p = JohnsonParams(n, w)
        pairing = random_pairing(rng, n, i)
        f = build_canonical(p, pairing)
        scalar = Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.choice([1, 2, 3]))
        m = match_canonical(f.scale(scalar), i)
        assert m is not None
        assert build_canonical(p, m.pairing).scale(m.scalar) == f.scale(scalar)
        # normalized scalar is positive whenever there is at least one pair
        if i >= 1:
            assert m.scalar > 0


def test_match_deterministic_normal_form():
    p = JohnsonParams(7, 3)
    # flipping two pairs and reordering yields the same function, so the
    # recognized pairing and scalar must be identical
    f1 = build_canonical(p, PairingConfig(((4, 1), (5, 0))))
    f2 = build_canonical(p, PairingConfig(((0, 5), (1, 4))))
    assert f1 == f2
    m1 = match_canonical(f1, 2)
    m2 = match_canonical(f2, 2)
    assert m1 == m2
    # the negated function flips exactly one pair of the normal form
    m3 = match_canonical(f1.scale(-2), 2)
    assert m3 is not None and m3.scalar == 2 * m1.scalar
    assert sum(p1 != p2 for p1, p2 in zip(m1.pairing.pairs, m3.pairing.pairs)) == 1
    assert {frozenset(q) for q in m1.pairing.pairs} == {frozenset(q) for q in m3.pairing.pairs}


def test_swap_within_pair_negates():
    rng = make_rng(7)
    for _ in range(20):
        n = rng.randint(2, 9)
        i = rng.randint(1, min(3, n // 2))
        w = rng.randint(i, min(n, i + (n - 2 * i)))
        p = JohnsonParams(n, w)
        pairing = random_pairing(rng, n, i)
        f = build_canonical(p, pairing)
        k = rng.randrange(i)
        flipped = list(pairing.pairs)
        a, b = flipped[k]
        flipped[k] = (b, a)
        g = build_canonical(p, PairingConfig(tuple(flipped)))
        assert g == -f


def test_match_rejects_non_canonical_same_size():
    # right support size but the value pattern is not +-constant
    p = JohnsonParams(5, 2)
    f = build_canonical(p, default_pairing(1))
    broken = dict(f.entries)
    x = V([0, 2])
    broken[x] = Fraction(2)
    assert match_canonical(SparseFunction(p, broken), 1) is None


def test_match_zero_function_rejected():
    with pytest.raises(ParameterError):
        match_canonical(SparseFunction.zero(JohnsonParams(5, 2)), 1)


@st.composite
def matcher_inputs(draw):
    """A canonical function of a random pairing times a scalar; the same with one
    value negated or moved to a vertex off its support, or with its values
    doubled on the vertices holding one unpaired coordinate, which every
    pair swap still negates; or a random +-1 function with the bound's
    support size. Returned with its index i."""
    n = draw(st.integers(2, 9))
    i = draw(st.integers(0, n // 2))
    p = JohnsonParams(n, draw(st.integers(i, n - i)))
    size = support_size_bound(n, p.w, i)
    kind = draw(st.sampled_from(["canonical", "negated", "moved", "doubled", "random"]))
    if kind == "random":
        verts = draw(st.permutations(list(p.vertices())))[:size]
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=size, max_size=size))
        return SparseFunction(p, dict(zip(verts, signs))), i
    coords = draw(st.permutations(range(n)))
    pairing = PairingConfig(tuple((coords[2 * k], coords[2 * k + 1]) for k in range(i)))
    scalar = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-7)]))
    entries = dict(build_canonical(p, pairing).scale(scalar).entries)
    x = draw(st.sampled_from(sorted(entries)))
    if kind == "negated":
        entries[x] = -entries[x]
    elif kind == "moved" and size < p.num_vertices:
        off = [y for y in p.vertices() if y not in entries]
        entries[draw(st.sampled_from(off))] = entries.pop(x)
    elif kind == "doubled" and 2 * i < n:
        c = draw(st.sampled_from(sorted(set(range(n)) - pairing.coordinates())))
        entries = {y: 2 * v if y >> c & 1 else v for y, v in entries.items()}
    return SparseFunction(p, entries), i


@settings(max_examples=300, deadline=None)
@given(matcher_inputs())
def test_match_agrees_with_partition_prefiltered_reference(case):
    f, i = case
    for index in {i, max(i - 1, 0), min(i + 1, f.params.w)}:
        assert match_canonical(f, index) == reference_match_canonical(f, index), (f, index)
