"""Canonical minimum-support construction and recognition."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from johnson_eigen import (
    CanonicalMatch,
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
)
from johnson_eigen import canonical
from johnson_eigen.operators import swap_maps_to

from conftest import V, make_rng, reference_match_canonical


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


def test_canonical_values_follow_the_pairs():
    # the lifts give +-1 exactly on the vertices holding one element of every
    # pair, negative when they hold an odd number of first elements
    rng = make_rng(11)
    for _ in range(60):
        n = rng.randint(2, 10)
        i = rng.randint(0, n // 2)
        p = JohnsonParams(n, rng.randint(i, n - i))
        pairing = random_pairing(rng, n, i)
        expected = {}
        for x in p.vertices():
            held = [(x >> a & 1, x >> b & 1) for a, b in pairing.pairs]
            if all(ha != hb for ha, hb in held):
                expected[x] = (-1) ** sum(ha for ha, _ in held)
        assert build_canonical(p, pairing).entries == expected, (n, p.w, pairing)


def test_default_pairing_rejects_a_negative_size():
    # default_pairing(-1) used to return the empty pairing
    for i in (-1, -4):
        with pytest.raises(ParameterError, match=f"index i, must be an int >= 0, got {i}$"):
            default_pairing(i)


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


def test_pairing_rejects_a_pair_of_three_coordinates():
    with pytest.raises(ParameterError):
        PairingConfig(((0, 1, 2),))


def test_pairing_rejects_a_pair_of_one_coordinate():
    with pytest.raises(ParameterError):
        PairingConfig(((0,),))


def test_pairing_rejects_a_float_coordinate():
    with pytest.raises(ParameterError):
        PairingConfig(((0, 1.0),))


def test_pairing_rejects_a_bool_coordinate():
    with pytest.raises(ParameterError):
        PairingConfig(((0, True),))


def test_pairing_rejects_a_negative_coordinate():
    with pytest.raises(ParameterError, match=r"^negative coordinate in pairing: \(\(-1, 2\),\)$"):
        PairingConfig(((-1, 2),))


def test_pairing_rejects_a_pair_that_is_not_a_tuple():
    with pytest.raises(ParameterError):
        PairingConfig(([0, 1],))


def test_pairing_rejects_pairs_that_are_not_a_tuple():
    # a list of pairs would make the frozen config unhashable
    for pairs in ([(0, 1)], 5, None):
        with pytest.raises(ParameterError):
            PairingConfig(pairs)


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


def test_match_canonical_builds_nothing(monkeypatch):
    # it used to build the candidate canonical function and compare it entry by entry
    p = JohnsonParams(8, 3)
    f = build_canonical(p, PairingConfig(((0, 5), (3, 1))))
    doubled = SparseFunction(p, {x: 2 * v if x >> 7 & 1 else v for x, v in f.entries.items()})
    negated = dict(f.entries)
    negated[min(negated)] *= -1

    def unreachable(*args, **kwargs):
        raise AssertionError("match_canonical built a canonical function")

    monkeypatch.setattr(canonical, "build_canonical", unreachable)
    monkeypatch.setattr(canonical, "pairing_values", unreachable)
    assert match_canonical(f.scale(-3), 2) == CanonicalMatch(PairingConfig(((0, 5), (1, 3))), 3)
    assert match_canonical(f, 2) == CanonicalMatch(PairingConfig(((0, 5), (3, 1))), 1)
    # every pair still negates it, but it is not constant where it holds 5 and 3
    assert negating_pairs(doubled) == [(0, 5), (1, 3)]
    assert match_canonical(doubled, 2) is None
    assert match_canonical(SparseFunction(p, negated), 2) is None
    assert match_canonical(SparseFunction.constant(p, Fraction(-2, 3)), 0) == \
        CanonicalMatch(PairingConfig(()), Fraction(-2, 3))


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


@st.composite
def antisymmetrized(draw, disjoint):
    """A random integer function on J(n,w), n <= 7, made antisymmetric under
    each of a few transpositions in turn by f <- f - f o (a b), so it is
    negated by at least the last one; the transpositions are disjoint pairs
    of a random pairing, or any, possibly sharing coordinates."""
    n = draw(st.integers(2, 7))
    if disjoint:
        coords = draw(st.permutations(range(n)))
        i = draw(st.integers(1, n // 2))
        swaps = [coords[2 * k:2 * k + 2] for k in range(i)]
        w = draw(st.integers(i, n - i))
    else:
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        swaps = draw(st.lists(pair, min_size=1, max_size=3))
        w = draw(st.integers(1, n - 1))
    p = JohnsonParams(n, w)
    verts = list(p.vertices())
    f = dict(zip(verts, draw(st.lists(st.integers(-3, 3), min_size=len(verts), max_size=len(verts)))))
    for a, b in swaps:
        mask = 1 << a | 1 << b
        f = {x: v - f[x if (x & mask) in (0, mask) else x ^ mask] for x, v in f.items()}
    return SparseFunction(p, f)


def negating_pairs(f) -> list[tuple[int, int]]:
    return [p for p in itertools.combinations(range(f.params.n), 2) if swap_maps_to(f, *p, -1)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(antisymmetrized(disjoint=False), antisymmetrized(disjoint=True)))
def test_negating_transpositions_of_a_nonzero_function_are_disjoint(f):
    # why match_canonical needs no overlap guard
    assume(not f.is_zero())
    pairs = negating_pairs(f)
    coords = [c for p in pairs for c in p]
    assert pairs and len(coords) == len(set(coords))


@settings(max_examples=300, deadline=None)
@given(st.one_of(antisymmetrized(disjoint=True), matcher_inputs().map(lambda case: case[0])))
def test_support_is_the_canonical_support_when_the_pairs_are_found(f):
    # why match_canonical needs no support-keys guard: i negating pairs and the
    # bound's support size leave supp f no choice
    n, w = f.params.n, f.params.w
    pairs = negating_pairs(f)
    assume(not f.is_zero() and len(pairs) <= w)
    assume(f.support_size == support_size_bound(n, w, len(pairs)))
    g = build_canonical(f.params, PairingConfig(tuple(pairs)))
    assert f.entries.keys() == g.entries.keys()
