"""Graph model: adjacency, distance, neighborhoods, adjacency operator."""

from fractions import Fraction

import pytest

from johnson_eigen import (
    JohnsonParams,
    PairingConfig,
    ParameterError,
    ParamsMismatchError,
    SparseFunction,
    adjacent,
    apply_adjacency,
    build_canonical,
    eigenspace_basis,
    induce,
    induce_down_one,
    johnson_distance,
    min_support_bnb,
    neighbors,
    read_function,
    reduce,
    vertex_from_elements,
    write_function,
)
from johnson_eigen.canonical import pairing_values
from johnson_eigen.johnson import adjacency_sums

from conftest import (
    dense_adjacency_by_definition,
    make_rng,
    random_member,
    random_rational,
    random_sparse_function,
    reference_induce,
    reference_induce_down_one,
    reference_reduce,
)

V = vertex_from_elements


def test_params_validation():
    JohnsonParams(0, 0)
    JohnsonParams(64, 30)
    with pytest.raises(ParameterError):
        JohnsonParams(5, 6)
    with pytest.raises(ParameterError):
        JohnsonParams(65, 1)
    with pytest.raises(ParameterError):
        JohnsonParams(-1, 0)


def test_adjacent_examples():
    p = JohnsonParams(5, 2)
    assert adjacent(V([0, 1]), V([0, 2]), p)
    assert not adjacent(V([0, 1]), V([2, 3]), p)
    p3 = JohnsonParams(3, 3)
    assert not adjacent(V([0, 1, 2]), V([0, 1, 2]), p3)


def test_distance_examples():
    p = JohnsonParams(5, 2)
    assert johnson_distance(V([0, 1]), V([0, 1]), p) == 0
    assert johnson_distance(V([0, 1]), V([0, 2]), p) == 1
    p6 = JohnsonParams(6, 3)
    assert johnson_distance(V([0, 1, 2]), V([3, 4, 5]), p6) == 3


def test_distance_is_half_hamming():
    p = JohnsonParams(6, 3)
    verts = list(p.vertices())
    for x in verts:
        for y in verts:
            assert 2 * johnson_distance(x, y, p) == (x ^ y).bit_count()


def test_neighbors_examples():
    p = JohnsonParams(5, 2)
    ns = neighbors(V([0, 1]), p)
    assert sorted(ns) == sorted(V(s) for s in [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert sorted(neighbors(V([0]), JohnsonParams(3, 1))) == [V([1]), V([2])]
    assert neighbors(V([0, 1, 2]), JohnsonParams(3, 3)) == []


def test_neighbors_degree_and_uniqueness():
    for n, w in [(5, 2), (6, 3), (7, 1), (4, 4)]:
        p = JohnsonParams(n, w)
        for x in p.vertices():
            ns = neighbors(x, p)
            assert len(ns) == p.degree
            assert len(set(ns)) == len(ns)
            assert all(adjacent(x, y, p) for y in ns)


def test_sparse_function_drops_zeros_and_validates():
    p = JohnsonParams(4, 2)
    f = SparseFunction(p, {V([0, 1]): Fraction(0), V([0, 2]): 3})
    assert f.support_size == 1
    assert f(V([0, 1])) == 0
    assert f(V([0, 2])) == 3
    with pytest.raises(ParameterError):
        SparseFunction(p, {V([0, 1, 2]): 1})


def test_sparse_function_arithmetic():
    p = JohnsonParams(4, 2)
    f = SparseFunction(p, {V([0, 1]): 1, V([0, 2]): 2})
    g = SparseFunction(p, {V([0, 1]): -1, V([2, 3]): 5})
    s = f + g
    assert s.entries == {V([0, 2]): 2, V([2, 3]): 5}
    assert (f - f).is_zero()
    assert f.scale(Fraction(1, 2))(V([0, 2])) == 1
    assert (-f)(V([0, 1])) == -1
    with pytest.raises(ParamsMismatchError):
        f + SparseFunction(JohnsonParams(5, 2), {V([0, 1]): 1})


def test_apply_adjacency_examples():
    p = JohnsonParams(5, 2)
    ones = SparseFunction.constant(p, 1)
    sixes = apply_adjacency(ones)
    assert all(v == 6 for v in sixes.entries.values())
    assert sixes.support_size == 10
    assert apply_adjacency(SparseFunction.zero(p)).is_zero()


def test_apply_adjacency_fixed_point():
    # the canonical one-pair function lives at eigenvalue 1, so it is a fixed point
    from johnson_eigen import build_canonical, default_pairing

    f = build_canonical(JohnsonParams(5, 2), default_pairing(1))
    assert apply_adjacency(f) == f


def test_apply_adjacency_linearity():
    p = JohnsonParams(7, 3)
    rng = make_rng(101)
    f = random_sparse_function(p, rng, density=0.2)
    g = random_sparse_function(p, rng, density=0.2)
    a, b = random_rational(rng), random_rational(rng)
    lhs = apply_adjacency(f.scale(a) + g.scale(b))
    rhs = apply_adjacency(f).scale(a) + apply_adjacency(g).scale(b)
    assert lhs == rhs


def test_apply_adjacency_regularity_sum():
    rng = make_rng(202)
    for n in range(1, 9):
        for w in range(0, n + 1):
            p = JohnsonParams(n, w)
            f = random_sparse_function(p, rng, density=0.5)
            assert apply_adjacency(f).total() == p.degree * f.total()


def test_apply_adjacency_matches_dense_matrix():
    rng = make_rng(303)
    cases = [(n, w) for n in range(1, 65) for w in (0, 1) if n >= w]
    cases += [(n, w) for n in range(2, 17) for w in range(2, n + 1)]
    cases += [(n, w) for n in range(17, 65) for w in (n - 1, n)]  # mirror instances
    for n, w in cases:
        p = JohnsonParams(n, w)
        if p.num_vertices > 126:
            continue
        dense, verts = dense_adjacency_by_definition(p)
        f = random_sparse_function(p, rng, density=0.3)
        g = apply_adjacency(f)
        fv = [f(x) for x in verts]
        for r, x in enumerate(verts):
            assert g(x) == sum(a * v for a, v in zip(dense[r], fv) if a)


# -- the public constructor takes int vertices and int or Fraction values only --


def test_constructor_rejects_a_float_value():
    with pytest.raises(ParameterError):
        SparseFunction(JohnsonParams(4, 2), {3: 0.1})


def test_constructor_rejects_a_string_value():
    with pytest.raises(ParameterError):
        SparseFunction(JohnsonParams(4, 2), {3: "2/3"})


def test_constructor_rejects_a_nan_value():
    with pytest.raises(ParameterError):
        SparseFunction(JohnsonParams(4, 2), {3: float("nan")})


def test_constructor_rejects_a_bool_value():
    with pytest.raises(ParameterError):
        SparseFunction(JohnsonParams(4, 2), {3: True})


def test_constructor_rejects_a_float_key():
    with pytest.raises(ParameterError):
        SparseFunction(JohnsonParams(4, 2), {3.0: 1})
    with pytest.raises(ParameterError):
        neighbors(3.0, JohnsonParams(4, 2))


def test_constructor_rejects_a_string_key():
    with pytest.raises(ParameterError):
        SparseFunction(JohnsonParams(4, 2), {"3": 1})


def test_constructor_rejects_a_bool_key():
    with pytest.raises(ParameterError):
        SparseFunction(JohnsonParams(1, 1), {True: 1})


def test_scale_rejects_a_float_factor():
    f = SparseFunction(JohnsonParams(4, 2), {3: 1})
    with pytest.raises(ParameterError):
        f.scale(0.5)
    with pytest.raises(ParameterError):
        f.scale(False)


def test_member_rejects_a_float_coefficient():
    space = eigenspace_basis(JohnsonParams(4, 2), 1)
    with pytest.raises(ParameterError):
        space.member([0.5] + [0] * (space.dimension - 1))


def test_constructor_keeps_ints_and_fractions_exact():
    f = SparseFunction(JohnsonParams(4, 2), [(3, 2), (5, Fraction(2, 3)), (6, Fraction(0))])
    assert f.entries == {3: Fraction(2), 5: Fraction(2, 3)}
    assert all(type(v) is Fraction for v in f.entries.values())


# -- the scatter A = U D - w I against the gather by definition --------------------


def test_adjacency_sums_equals_the_gather_on_nonzero_sums():
    # every (n, w) with at most 126 vertices: that takes in w in {0, 1, n-1, n}
    # up to n = 64, whose vertices use bit 63
    rng = make_rng(404)
    for n in range(65):
        for w in range(n + 1):
            params = JohnsonParams(n, w)
            if params.num_vertices > 126:
                continue
            dense, verts = dense_adjacency_by_definition(params)
            for support in ([], verts, [x for x in verts if rng.random() < 0.3]):
                nums = {x: rng.choice([-(2**70), -3, -1, 1, 2, 5]) for x in support}
                gathered = {}
                for row, x in zip(dense, verts):
                    s = sum(nums.get(y, 0) for a, y in zip(row, verts) if a)
                    if s:
                        gathered[x] = s
                assert {x: s for x, s in adjacency_sums(nums, n).items() if s} == gathered


def test_adjacency_sums_on_the_canonical_function_cancel_down_to_its_eigenvalue():
    # J(16,6), i = 3: lambda_3 = 3 * 7 - 3 = 18
    f = build_canonical(JohnsonParams(16, 6), PairingConfig(((0, 5), (3, 9), (12, 7))))
    nums = {x: int(v) for x, v in f.entries.items()}
    assert {x: s for x, s in adjacency_sums(nums, 16).items() if s} == {x: 18 * v for x, v in nums.items()}


# -- functions the package builds without re-validating them -------------------------


def _check_built(g: SparseFunction) -> SparseFunction:
    """Every entry is a nonzero Fraction on an int vertex of g's graph, and the public
    constructor gives back the same function."""
    for x, v in g.entries.items():
        assert type(x) is int and type(v) is Fraction and v
        g.params.check_vertex(x)
    assert SparseFunction(g.params, g.entries) == g
    return g


def test_built_functions_equal_the_public_constructor(tmp_path):
    rng = make_rng(606)
    p = JohnsonParams(8, 3)
    for f in [random_sparse_function(p, rng, density=0.4).scale(random_rational(rng)) for _ in range(3)]:
        g = random_sparse_function(p, rng, density=0.4)
        c = Fraction(-7, 3)
        assert _check_built(apply_adjacency(f)) == SparseFunction(p, {
            x: sum((f(y) for y in neighbors(x, p)), Fraction(0)) for x in p.vertices()
        })
        assert _check_built(induce(f, 5)) == reference_induce(f, 5)
        assert _check_built(induce_down_one(f)) == reference_induce_down_one(f)
        assert _check_built(reduce(f, 6, 1)) == reference_reduce(f, 6, 1)
        assert _check_built(f.scale(c)) == SparseFunction(p, {x: c * v for x, v in f.entries.items()})
        assert _check_built(f + g) == SparseFunction(p, {x: f(x) + g(x) for x in p.vertices()})
        assert _check_built(f - f).is_zero()
        path = tmp_path / "f.json"
        write_function(str(path), f, None)
        written = path.read_bytes()
        back, _ = read_function(str(path))
        assert _check_built(back) == f
        write_function(str(path), back, None)
        assert path.read_bytes() == written
    for pairs in [(), ((0, 1),), ((2, 7), (5, 3)), ((0, 1), (2, 3), (4, 5))]:
        can = build_canonical(p, PairingConfig(pairs))
        assert _check_built(can) == SparseFunction(p, pairing_values(8, 3, pairs))
    space = eigenspace_basis(JohnsonParams(6, 2), 2)
    _check_built(random_member(space, rng))
    for witness in min_support_bnb(space).witnesses:
        _check_built(witness)
