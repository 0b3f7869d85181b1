"""Binomials and the combinadic (co-lex) bijection between w-subsets and dense indices.

Vertices of J(n,w) are represented throughout the package as plain int
bitmasks over coordinates 0..n-1 (bit j set means coordinate j is a one).
The co-lex rank of a subset is computable without knowing n, which is why
this order is used both in memory and on disk. Among subsets of one size it
is numeric bitmask order, as both are decided by the largest element in
which two subsets differ; so sorting vertices needs no rank_subset.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .errors import ParameterError, is_int

# A vertex must fit in one machine word.
MAX_COORDS = 64


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k < 0 or k > n. Requires ints n >= 0 and k."""
    if not (is_int(n) and is_int(k) and n >= 0):
        raise ParameterError(f"binomial requires ints n >= 0 and k, got n={n!r}, k={k!r}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_mask(mask: int) -> None:
    if not is_int(mask) or mask < 0:
        raise ParameterError(f"bitmask {mask!r} is not a nonnegative int")


def vertex_elements(mask: int) -> tuple[int, ...]:
    """Sorted coordinates set in the bitmask."""
    _check_mask(mask)
    return tuple(c for c in range(mask.bit_length()) if mask >> c & 1)


def rank_subset(mask: int) -> int:
    """Co-lex combinadic rank: sum of C(c_k, k) over the sorted 0-based elements c_1 < ... < c_w."""
    _check_mask(mask)
    r = 0
    k = 1
    while mask:
        low = mask & -mask
        r += math.comb(low.bit_length() - 1, k)
        k += 1
        mask ^= low
    return r


def unrank_subset(r: int, n: int, w: int) -> int:
    """Inverse of rank_subset on J(n,w); returns the vertex bitmask of co-lex rank r."""
    if not all(map(is_int, (r, n, w))):
        raise ParameterError(f"rank, n and w must be ints, got {r!r}, {n!r}, {w!r}")
    if n > MAX_COORDS:
        raise ParameterError(f"n={n} exceeds the {MAX_COORDS}-coordinate limit")
    if not 0 <= w <= n:
        raise ParameterError(f"need 0 <= w <= n, got n={n}, w={w}")
    if not 0 <= r < math.comb(n, w):
        raise ParameterError(f"rank {r} out of range for C({n},{w})={math.comb(n, w)}")
    mask = 0
    k = w
    c = n
    while k > 0:
        # largest c with C(c, k) <= r picks the top remaining element
        c -= 1
        while math.comb(c, k) > r:
            c -= 1
        mask |= 1 << c
        r -= math.comb(c, k)
        k -= 1
    return mask


def vertices_in_rank_order(n: int, w: int) -> Iterator[int]:
    """All w-subsets of {0..n-1} as bitmasks in co-lex (rank) order, which is the
    numeric order of their sums of distinct bits; none for w outside 0..n."""
    if not (is_int(n) and is_int(w)):
        raise ParameterError(f"n and w must be ints, got {n!r}, {w!r}")
    if n < 0:
        raise ParameterError(f"need n >= 0, got n={n}")
    if n > MAX_COORDS:
        raise ParameterError(f"n={n} exceeds the {MAX_COORDS}-coordinate limit")
    if w < 0:  # combinations refuses a negative size; C(n, w) = 0 there
        return iter(())
    return iter(sorted(map(sum, itertools.combinations([1 << c for c in range(n)], w))))
