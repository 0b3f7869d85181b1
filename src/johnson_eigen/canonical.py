"""The extremal plus-minus-one eigenfunction built from i disjoint coordinate pairs.

It is the constant 1 on the (w-i)-subsets of the unpaired coordinates, lifted
once per pair (a, b): vertex y goes to y+a with value -f(y) and to y+b with
f(y), the step that reduction over (a, b) undoes up to a factor -2. So it is
+-1 on the vertices that take exactly one element from every pair (negative
when they take an odd number of first elements) and zero elsewhere. Its
support has size 2^i * C(n-2i, w-i), the minimum-support bound at index i.
match_canonical recognizes a multiple of it without building it: once the
negating pairs are found, f must be constant where it holds every second element.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .combinatorics import binomial
from .errors import ParameterError, SizeBudgetError, checked_make, is_int
from .johnson import MAX_OUTPUT_TERMS, JohnsonParams, SparseFunction
from .operators import swap_maps_to

Pair = tuple[int, int]


class PairingConfig(namedtuple("PairingConfig", "pairs")):
    """i disjoint ordered coordinate pairs; the first element of each pair is the
    side that carries the minus sign."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, pairs: tuple[Pair, ...]):
        if not (isinstance(pairs, tuple)
                and all(isinstance(p, tuple) and len(p) == 2 and all(map(is_int, p)) for p in pairs)):
            raise ParameterError(f"a pairing must be a tuple of pairs, each a tuple of two ints: {pairs!r}")
        flat = [c for p in pairs for c in p]
        if len(set(flat)) != len(flat):
            raise ParameterError(f"pairing coordinates must be distinct: {pairs}")
        if any(c < 0 for c in flat):
            raise ParameterError(f"negative coordinate in pairing: {pairs}")
        return super().__new__(cls, pairs)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def coordinates(self) -> set[int]:
        return {c for p in self.pairs for c in p}


def default_pairing(i: int) -> PairingConfig:
    """The reproducible default (0,1),(2,3),...,(2i-2,2i-1)."""
    if not (is_int(i) and i >= 0):
        raise ParameterError(f"pairing size, the index i, must be an int >= 0, got {i!r}")
    return PairingConfig(tuple((2 * k, 2 * k + 1) for k in range(i)))


def support_size_bound(n: int, w: int, i: int) -> int:
    """2^i * C(n-2i, w-i), the minimum-support bound at eigenvalue index i.

    Zero exactly when no canonical function fits, i.e. when w-i > n-2i
    (including n < 2i, where no i disjoint pairs exist at all).
    """
    if not (all(map(is_int, (n, w, i))) and 0 <= i <= w <= n):
        raise ParameterError(f"need ints 0 <= i <= w <= n, got n={n!r}, w={w!r}, i={i!r}")
    if n - 2 * i < 0:
        return 0
    return (1 << i) * binomial(n - 2 * i, w - i)


def build_canonical(params: JohnsonParams, pairing: PairingConfig) -> SparseFunction:
    """Construct the canonical eigenfunction of J(n,w) for the given pairing.

    SizeBudgetError if its support would exceed MAX_OUTPUT_TERMS entries.
    """
    n, w = params.n, params.w
    i = pairing.size
    if i > w:
        raise ParameterError(f"pairing size {i} exceeds weight {w}")
    if any(c >= n for c in pairing.coordinates()):
        raise ParameterError(f"pairing uses coordinates >= n={n}")
    size = support_size_bound(n, w, i)
    if not size:
        raise ParameterError(f"no support: need w-i <= n-2i, got w-i={w - i}, n-2i={n - 2 * i}")
    if size > MAX_OUTPUT_TERMS:
        raise SizeBudgetError(f"canonical function has {size} entries, over the cap {MAX_OUTPUT_TERMS}")
    return SparseFunction._from_sums(params, pairing_values(n, w, pairing.pairs))


def pairing_values(n: int, w: int, pairs) -> dict[int, int]:
    """The +-1 values of the canonical function of these pairs, keyed by vertex bitmask.

    Unchecked: the pairs must be disjoint coordinates below n, at most w of
    them; no vertex fits when w - len(pairs) > n - 2 len(pairs).
    """
    used = {c for p in pairs for c in p}
    outside = [1 << c for c in range(n) if c not in used]
    values = dict.fromkeys(map(sum, itertools.combinations(outside, w - len(pairs))), 1)
    for a, b in pairs:
        # the lift over (a, b): y goes to y+a with value -f(y) and to y+b with f(y)
        a, b = 1 << a, 1 << b
        values = {x: v for y, u in values.items() for x, v in ((y | a, -u), (y | b, u))}
    return values


class CanonicalMatch(namedtuple("CanonicalMatch", "pairing scalar")):
    """f = scalar * the canonical function of pairing, scalar a Fraction."""

    __slots__ = ()


def match_canonical(f: SparseFunction, i: int) -> CanonicalMatch | None:
    """Recognize f as scalar * canonical function with i pairs, if it is one.

    None unless |supp f| is the bound. The candidate pairs are those whose
    transposition negates f: for a multiple of the canonical g of P they are
    exactly P. They are disjoint: if (a b) and (a c) negate f, a support
    vertex holds one of a, b and one of a, c (a swap fixes the rest, so
    f = -f there), and either swap sends it off the support, so f = 0. And
    supp f = supp g: negation by each pair puts supp f in supp g, the
    vertices holding one element of every pair, of the same size. So one
    constant decides f. Let x_b be x with each first element it holds
    swapped for its partner: the swaps are disjoint transpositions that each
    negate f, so f(x) = (-1)^k f(x_b), k the number of first elements in x.
    The canonical g has the same signs and g(x_b) = 1, and every x_b is in
    supp f = supp g. Hence f = s g exactly when f(x_b) = s for every x_b,
    and nothing is built. For i >= 1 the pairing is normalized to a positive
    scalar, with at most the last pair flipped from smaller-element-first
    order.
    """
    n, w = f.params.n, f.params.w
    if f.is_zero():
        raise ParameterError("match_canonical requires a nonzero function")
    if not (is_int(i) and 0 <= i <= w):
        raise ParameterError(f"index {i!r} is not an int in 0..{w}")
    if f.support_size != support_size_bound(n, w, i):
        return None

    pairs = tuple(p for p in itertools.combinations(range(n), 2) if swap_maps_to(f, *p, -1))
    if len(pairs) != i:
        return None

    seconds = sum(1 << b for _, b in pairs)
    values = {v for x, v in f.nums.items() if x & seconds == seconds}
    if len(values) != 1:
        return None
    scalar = Fraction(values.pop(), f.den)
    if scalar < 0 and pairs:
        # flipping one pair negates the function; flip the last for canonical order
        last = pairs[-1]
        pairs = pairs[:-1] + ((last[1], last[0]),)
        scalar = -scalar
    return CanonicalMatch(PairingConfig(pairs), scalar)
