"""Graph model: neighborhoods, sparse functions, adjacency operator."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from johnson_eigen import (
    JohnsonParams,
    PairingConfig,
    ParameterError,
    ParamsMismatchError,
    SizeBudgetError,
    SparseFunction,
    apply_adjacency,
    build_canonical,
    eigenspace_basis,
    induce,
    induce_down_one,
    min_support_bnb,
    min_support_hyperplane,
    neighbors,
    read_function,
    reduce,
    verify_bound,
    write_function,
)
from johnson_eigen.canonical import pairing_values
from johnson_eigen.johnson import adjacency_sums

from conftest import (
    V,
    dense_adjacency_by_definition,
    make_rng,
    random_member,
    random_rational,
    random_sparse_function,
    reference_induce,
    reference_induce_down_one,
    reference_reduce,
    reference_sparse_function,
)


def test_params_validation():
    JohnsonParams(0, 0)
    JohnsonParams(64, 30)
    with pytest.raises(ParameterError):
        JohnsonParams(5, 6)
    with pytest.raises(ParameterError):
        JohnsonParams(65, 1)
    with pytest.raises(ParameterError):
        JohnsonParams(-1, 0)


@pytest.mark.parametrize("n, w", [(True, True), (5.0, 2), ("5", 2), (5, 2.0), (5, False)])
def test_params_require_ints(n, w):
    # J(1,1) used to be built from (True, True); 5.0 and "5" ended in a bare TypeError
    with pytest.raises(ParameterError, match="n and w must be ints"):
        JohnsonParams(n, w)


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
            assert all((x & y).bit_count() == p.w - 1 for y in ns)


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


def test_constant_refuses_more_vertices_than_the_output_cap():
    # J(30,15) has 155,117,520 vertices; constant used to enumerate them all
    with pytest.raises(SizeBudgetError, match=r"^J\(30,15\) has 155117520 vertices, over the cap 1000000$"):
        SparseFunction.constant(JohnsonParams(30, 15), 1)
    ones = SparseFunction.constant(JohnsonParams(6, 3), Fraction(1, 2))
    assert ones.support_size == 20 and set(ones.entries.values()) == {Fraction(1, 2)}


@pytest.mark.parametrize("n, w", [(0, 0), (1, 1), (5, 2), (6, 3), (7, 1), (8, 5)])
@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), Fraction(-6, 4), Fraction(5)])
def test_constant_equals_the_checked_build(n, w, value):
    p = JohnsonParams(n, w)
    f = SparseFunction.constant(p, value)
    assert f == SparseFunction(p, {x: value for x in p.vertices()})
    assert (f.den, f.support) == (Fraction(value).denominator, [] if value == 0 else list(p.vertices()))


@pytest.mark.parametrize("value", [1.0, True, "1", None])
def test_constant_refuses_a_value_that_is_not_int_or_fraction(value):
    with pytest.raises(ParameterError, match="is not an int or Fraction$"):
        SparseFunction.constant(JohnsonParams(5, 2), value)


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
            assert sum(apply_adjacency(f).entries.values()) == p.degree * sum(f.entries.values())


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


def test_constructor_rejects_a_repeated_vertex():
    # a later pair must not quietly replace an earlier one, zero or not
    for pairs in ([(3, 1), (3, 0)], [(3, 1), (3, 2)], [(3, 0), (3, 0)]):
        with pytest.raises(ParameterError):
            SparseFunction(JohnsonParams(4, 2), pairs)


@pytest.mark.parametrize("entries, message", [
    # the first two used to end in a bare ValueError from unpacking, the last two in a TypeError
    ([(3, 1, 2)], r"^entry \(3, 1, 2\) is not a \(vertex, value\) pair$"),
    ("ab", r"^entry 'a' is not a \(vertex, value\) pair$"),
    ([5], r"^entry 5 is not a \(vertex, value\) pair$"),
    (None, "^entries None are not a mapping or an iterable of pairs$"),
    # quoting this key used to end in a ValueError past the int digit limit
    ([([10 ** 5000], 1)], "^vertex <unprintable> is not an int bitmask$"),
], ids=["three-items", "string", "int-item", "none", "unprintable-key"])
def test_constructor_refuses_entries_that_are_not_pairs(entries, message):
    with pytest.raises(ParameterError, match=message):
        SparseFunction(JohnsonParams(4, 2), entries)


# -- one representation: integer numerators over one denominator in lowest terms --

_P = JohnsonParams(6, 3)
_VERTICES = list(_P.vertices())
_RATIONALS = st.integers(-30, 30) | st.fractions(min_value=-30, max_value=30, max_denominator=12)
_VALUE_MAPS = st.dictionaries(st.sampled_from(_VERTICES), _RATIONALS, max_size=len(_VERTICES))


@settings(max_examples=100, deadline=None)
@given(_VALUE_MAPS, st.lists(st.tuples(st.sampled_from(["scale", "+", "-"]), _RATIONALS, _VALUE_MAPS), max_size=6))
def test_representation_is_lowest_terms_and_agrees_with_fractions(start, steps):
    f = SparseFunction(_P, start)
    ref = {x: Fraction(v) for x, v in start.items()}
    for op, c, values in steps:
        if op == "scale":
            f = f.scale(c)
            ref = {x: c * v for x, v in ref.items()}
        else:
            sign = 1 if op == "+" else -1
            f = f + SparseFunction(_P, values) if sign > 0 else f - SparseFunction(_P, values)
            ref = {x: ref.get(x, 0) + sign * values.get(x, 0) for x in ref.keys() | values.keys()}
        ref = {x: v for x, v in ref.items() if v}
        assert f.den > 0 and math.gcd(f.den, *f.nums.values()) == 1
        assert all(type(s) is int and s for s in f.nums.values())
        assert f.entries == ref and all(type(v) is Fraction for v in f.entries.values())
        assert [f(x) for x in _VERTICES] == [ref.get(x, 0) for x in _VERTICES]
        same = SparseFunction(_P, [(x, ref[x]) for x in reversed(list(ref))])
        assert f == same
        assert (f.den, f.nums) == (same.den, same.nums) and hash(f) == hash(same)


def test_entries_and_nums_are_read_only():
    f = SparseFunction(JohnsonParams(4, 2), {3: Fraction(1, 2), 5: 1})
    g = f.scale(2)
    for h in (f, g):
        for table in (h.entries, h.nums):
            with pytest.raises(TypeError):
                table[3] = 1
            with pytest.raises(TypeError):
                table[6] = 1
    assert f.entries == {3: Fraction(1, 2), 5: 1} and (f.den, f.nums) == (2, {3: 1, 5: 2})


def test_entries_is_a_new_view_on_each_access_and_no_other_state_is_kept():
    f = SparseFunction(JohnsonParams(4, 2), {3: Fraction(-1, 2), 5: 1, 6: 0})
    first, second = f.entries, f.entries
    assert first is not second and first == second == {3: Fraction(-1, 2), 5: 1}
    with pytest.raises(TypeError):
        first[3] = 1
    assert SparseFunction.__slots__ == ("params", "den", "nums")


# -- one build path: the public constructor against the one that stored its own state --

_P52 = JohnsonParams(5, 2)
_VERTS = st.sampled_from(list(_P52.vertices()))
_RATS = (st.integers(-20, 20) | st.just(0) | st.integers(-(10 ** 30), 10 ** 30)
         | st.fractions(min_value=-20, max_value=20, max_denominator=15)
         | st.builds(Fraction, st.integers(-(10 ** 30), 10 ** 30), st.integers(1, 10 ** 30)))
_KEYS = _VERTS | st.sampled_from([0b111, 0, 1 << 5 | 1, -3, True, 3.0, "x", None, Fraction(3)])
_VALUES = _RATS | st.booleans() | st.floats(width=16)
_ITEMS = st.tuples(_KEYS, _VALUES) | st.sampled_from([(3,), (3, 1, 2), 5, None, "ab"])
_ENTRY_ARGS = (st.dictionaries(_VERTS, _RATS, max_size=10) | st.lists(st.tuples(_VERTS, _RATS), max_size=6)
               | st.dictionaries(_KEYS, _VALUES, max_size=6) | st.lists(_ITEMS, max_size=6)
               | st.sampled_from([None, 5, 1.5]))


def _outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


def _stored(entries):
    f = SparseFunction(_P52, entries)
    assert f.params is _P52 and all(type(s) is int for s in f.nums.values())
    return f.den, dict(f.nums)


@settings(max_examples=400, deadline=None)
@given(_ENTRY_ARGS)
def test_constructor_stores_what_the_constructor_with_its_own_state_stored(entries):
    # zeros, repeated vertices, non-pairs, bools and floats: the same (den, nums)
    # or the same exception type and message
    assert _outcome(lambda: _stored(entries)) == _outcome(lambda: reference_sparse_function(_P52, entries))


def test_every_route_stores_its_function_through_from_sums_once(monkeypatch, tmp_path):
    calls = []
    from_sums = SparseFunction._from_sums.__func__

    def counting(cls, *args):
        calls.append(args)
        return from_sums(cls, *args)

    monkeypatch.setattr(SparseFunction, "_from_sums", classmethod(counting))
    p = JohnsonParams(6, 3)
    f = SparseFunction(p, {V([0, 1, 2]): Fraction(-3, 4), V([3, 4, 5]): 2, V([0, 2, 4]): Fraction(5, 6)})
    path = str(tmp_path / "f.json")
    write_function(path, f)
    space = eigenspace_basis(_P52, 1)
    twice = f.scale(2)
    routes = {
        "constructor": lambda: SparseFunction(p, {V([0, 1, 2]): Fraction(1, 2), V([0, 1, 3]): 0}),
        "zero": lambda: SparseFunction.zero(p),
        "constant": lambda: SparseFunction.constant(p, Fraction(2, 3)),
        "scale": lambda: f.scale(Fraction(4, 3)),
        "+": lambda: f + f,
        "-": lambda: f - twice,
        "apply_adjacency": lambda: apply_adjacency(f),
        "induce": lambda: induce(f, 4),
        "induce_down_one": lambda: induce_down_one(f),
        "reduce": lambda: reduce(f, 0, 3),
        "build_canonical": lambda: build_canonical(p, PairingConfig(((0, 1),))),
        "read_function": lambda: read_function(path)[0],
        "member": lambda: space.member([1, Fraction(-1, 2), 0, 3]),
    }
    for name, route in routes.items():
        calls.clear()
        assert isinstance(route(), SparseFunction)
        assert len(calls) == 1, name
    for search in (min_support_bnb, min_support_hyperplane):
        calls.clear()
        witnesses = search(space).witnesses
        assert len(calls) == len(witnesses) > 0, search.__name__


@pytest.mark.parametrize("build", [
    lambda: SparseFunction(None),
    lambda: SparseFunction((5, 2), {3: 1}),
    lambda: SparseFunction.zero(None),
    lambda: SparseFunction.constant(None, 1),
    lambda: SparseFunction.constant((5, 2), 1),
], ids=["constructor-none", "constructor-tuple", "zero-none", "constant-none", "constant-tuple"])
def test_a_function_needs_johnson_params(build):
    # SparseFunction(None) used to return a function whose repr raised AttributeError,
    # and the other four ended in an AttributeError
    with pytest.raises(ParameterError, match=r"^params (None|\(5, 2\)) is not a JohnsonParams$"):
        build()


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_function_copies_and_pickles_to_an_equal_immutable_function(round_trip):
    # copy and deepcopy used to raise TypeError from __new__, pickle "cannot pickle 'mappingproxy' object"
    for f in (SparseFunction(_P52, {V([0, 1]): Fraction(-3, 4), V([2, 4]): 5}), SparseFunction.zero(_P52)):
        g = round_trip(f)
        assert g == f and hash(g) == hash(f) and (g.params, g.den, g.nums) == (f.params, f.den, f.nums)
        with pytest.raises(TypeError):
            g.nums[V([0, 1])] = 1
        with pytest.raises(AttributeError, match="immutable"):
            g.den = 1


def test_a_search_report_pickles_with_its_witnesses():
    report = verify_bound(JohnsonParams(6, 2), 2)
    assert report.witnesses and pickle.loads(pickle.dumps(report)) == report


@pytest.mark.parametrize("x, message", [
    (None, "^vertex None is not an int bitmask$"),
    ("x", "^vertex 'x' is not an int bitmask$"),
    (1.0, "^vertex 1.0 is not an int bitmask$"),
    (0b111, "^bitmask 0b111 is not a vertex of J\\(5,2\\)$"),
])
def test_call_refuses_what_is_not_a_vertex(x, message):
    # each of these used to answer 0
    f = SparseFunction(_P52, {V([0, 1]): Fraction(1, 3)})
    with pytest.raises(ParameterError, match=message):
        f(x)
    assert (f(V([0, 1])), f(V([2, 3]))) == (Fraction(1, 3), 0)


@pytest.mark.parametrize("op", [lambda f: f + 1, lambda f: 1 + f, lambda f: f - None,
                                lambda f: f + None, lambda f: f - f.params],
                         ids=["f+1", "1+f", "f-None", "f+None", "f-params"])
def test_arithmetic_with_a_non_function_raises_type_error(op):
    # f + 1, f + None and f - params used to end in an AttributeError
    with pytest.raises(TypeError, match="unsupported operand"):
        op(SparseFunction(_P52, {V([0, 1]): 1}))


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


@st.composite
def _numerator_maps(draw):
    n = draw(st.integers(0, 10))
    w = draw(st.integers(0, n))
    verts = list(JohnsonParams(n, w).vertices())
    return n, draw(st.dictionaries(st.sampled_from(verts), st.integers(-5, 5), max_size=12))


@settings(max_examples=300, deadline=None)
@given(_numerator_maps())
def test_adjacency_sums_keys_every_key_of_nums(case):
    # the eigen-check compares only over these keys, so a support vertex where
    # A f vanishes must still be one
    n, nums = case
    assert nums.keys() <= adjacency_sums(nums, n).keys()


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
