"""Binomials and the combinadic rank/unrank bijection."""

import pytest

from johnson_eigen import (
    ParameterError,
    binomial,
    rank_subset,
    unrank_subset,
    vertex_elements,
    vertices_in_rank_order,
)

from conftest import V, colex_subsets, pascal_table


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(6, -1) == 0
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1
    # frozen from the Pascal-triangle oracle below
    assert binomial(40, 20) == 137846528820


def test_binomial_matches_pascal_oracle():
    table = pascal_table(40)
    for n in range(41):
        for k in range(n + 1):
            assert binomial(n, k) == table[n][k]


def test_binomial_pascal_rule():
    for n in range(1, 41):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


def test_binomial_negative_n_rejected():
    with pytest.raises(ParameterError):
        binomial(-1, 0)


def test_rank_examples():
    assert rank_subset(V([0, 1])) == 0
    assert rank_subset(V([0, 2])) == 1
    assert rank_subset(V([3, 4])) == 9


def test_unrank_examples():
    assert vertex_elements(unrank_subset(0, 5, 2)) == (0, 1)
    assert vertex_elements(unrank_subset(9, 5, 2)) == (3, 4)
    assert vertex_elements(unrank_subset(1, 5, 2)) == (0, 2)


def test_unrank_out_of_range():
    with pytest.raises(ParameterError):
        unrank_subset(10, 5, 2)
    with pytest.raises(ParameterError):
        unrank_subset(-1, 5, 2)


@pytest.mark.parametrize("n", range(0, 13))
def test_rank_unrank_bijection_and_colex_order(n):
    for w in range(0, n + 1):
        subsets = colex_subsets(n, w)
        assert len(subsets) == binomial(n, w)
        for r, elems in enumerate(subsets):
            mask = V(elems)
            assert rank_subset(mask) == r
            assert unrank_subset(r, n, w) == mask
        # generator agrees with the enumeration oracle
        generated = [vertex_elements(x) for x in vertices_in_rank_order(n, w)]
        assert generated == subsets

        ranks = [rank_subset(V(s)) for s in subsets]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)
        # rank order is numeric bitmask order, which the package sorts vertices by
        masks = list(vertices_in_rank_order(n, w))
        assert masks == sorted(masks)


def test_rank_independent_of_n():
    # co-lex rank depends only on the elements, not the ambient n
    mask = V([1, 4, 6])
    assert unrank_subset(rank_subset(mask), 8, 3) == mask
    assert unrank_subset(rank_subset(mask), 12, 3) == mask


def test_vertex_helpers_validate():
    with pytest.raises(ParameterError):
        unrank_subset(0, 65, 1)


def test_vertices_in_rank_order_rejects_more_than_64_coordinates():
    with pytest.raises(ParameterError, match="^n=65 exceeds the 64-coordinate limit$"):
        next(vertices_in_rank_order(65, 1))


@pytest.mark.parametrize("n, w", [(-1, 0), (-3, -5), (-2, 1)])
def test_vertices_in_rank_order_rejects_a_negative_n_at_the_call(n, w):
    # these used to yield nothing, while binomial(-1, 0) and JohnsonParams(-1, 0) raise
    with pytest.raises(ParameterError, match=f"^need n >= 0, got n={n}$"):
        vertices_in_rank_order(n, w)


@pytest.mark.parametrize("n, w", [(0, -1), (5, -1), (5, 6), (3, 10), (0, 1)])
def test_vertices_in_rank_order_is_empty_for_w_outside_0_to_n(n, w):
    assert binomial(n, w) == 0
    assert list(vertices_in_rank_order(n, w)) == []


def test_rank_subset_rejects_a_negative_mask():
    with pytest.raises(ParameterError):
        rank_subset(-1)


def test_vertex_elements_rejects_a_negative_mask():
    with pytest.raises(ParameterError):
        vertex_elements(-3)


def test_mask_helpers_reject_a_non_int_mask():
    for mask in (3.0, "3", True):
        with pytest.raises(ParameterError):
            rank_subset(mask)
        with pytest.raises(ParameterError):
            vertex_elements(mask)


def test_unrank_subset_rejects_a_weight_outside_0_to_n():
    with pytest.raises(ParameterError):
        unrank_subset(0, 5, -1)
    with pytest.raises(ParameterError):
        unrank_subset(0, 5, 6)
