"""Matrix-free model of the Johnson graph J(n,w) and sparse rational functions on it.

Two w-subsets are adjacent when they share exactly w-1 elements, so J(n,w)
is regular of degree w(n-w). Functions are stored sparsely and exactly, as
integer numerators on the support over one common denominator; Fractions
appear only where values enter and leave. A = U D - w I (Delsarte 1973): D
sums down to the (w-1)-subsets and U back up, in at most (n-w+2)/(n-w)
times the adds of a direct scatter and far fewer on eigenfunctions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType

from .combinatorics import MAX_COORDS, vertices_in_rank_order
from .errors import ParameterError, ParamsMismatchError, SizeBudgetError, brief, check_rational, checked_make, is_int

Rational = Fraction | int

# The most terms a constructor or operator may enumerate for one function: the
# support of build_canonical and constant, the (vertex, superset) pairs of induce.
MAX_OUTPUT_TERMS = 1_000_000


class JohnsonParams(namedtuple("JohnsonParams", "n w")):
    """Parameters (n, w) of a Johnson graph: ints with 0 <= w <= n <= 64."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, n: int, w: int):
        if not (is_int(n) and is_int(w)):
            raise ParameterError(f"n and w must be ints, got n={n!r}, w={w!r}")
        if not 0 <= w <= n:
            raise ParameterError(f"need 0 <= w <= n, got n={n}, w={w}")
        if n > MAX_COORDS:
            raise ParameterError(f"n={n} exceeds the {MAX_COORDS}-coordinate limit")
        return super().__new__(cls, n, w)

    @property
    def num_vertices(self) -> int:
        return math.comb(self.n, self.w)

    @property
    def degree(self) -> int:
        return self.w * (self.n - self.w)

    def check_vertex(self, x: int) -> None:
        if not is_int(x):
            raise ParameterError(f"vertex {brief(x)} is not an int bitmask")
        if x < 0 or x.bit_count() != self.w or x >> self.n:
            raise ParameterError(f"bitmask {x:#b} is not a vertex of J({self.n},{self.w})")

    def vertices(self) -> Iterator[int]:
        return vertices_in_rank_order(self.n, self.w)


def _check_params(params) -> None:
    if not isinstance(params, JohnsonParams):
        raise ParameterError(f"params {brief(params)} is not a JohnsonParams")


class SparseFunction:
    """Exact-rational function on the vertices of one J(n,w), stored by support.

    Keys must be int vertex bitmasks, each given once, and values int or
    Fraction (bool is neither); anything else raises ParameterError. The
    function is stored in lowest terms as f(x) = nums[x] / den: den is a
    positive int and nums a read-only map from each support vertex to a
    nonzero int, with gcd(den, *nums) = 1. That form is unique, so equality and hashing compare
    it directly. Instances are treated as immutable values; arithmetic
    returns new functions.
    """

    __slots__ = ("params", "den", "nums")

    def __new__(cls, params: JohnsonParams, entries: Mapping[int, Rational] | Iterable[tuple[int, Rational]] = ()):
        _check_params(params)
        if not isinstance(entries, Iterable):
            raise ParameterError(f"entries {brief(entries)} are not a mapping or an iterable of pairs")
        nums: dict[int, int] = {}
        dens: dict[int, int] = {}  # the denominators above 1
        for item in entries.items() if isinstance(entries, Mapping) else entries:
            try:
                x, v = item
            except (TypeError, ValueError):
                raise ParameterError(f"entry {brief(item)} is not a (vertex, value) pair") from None
            params.check_vertex(x)
            check_rational(v)
            if x in nums:
                raise ParameterError(f"vertex {x:#b} is given twice")
            nums[x] = v.numerator
            if v.denominator > 1:
                dens[x] = v.denominator
        return cls._from_ratios(params, nums, dens)

    @classmethod
    def _from_ratios(cls, params: JohnsonParams, nums: Mapping[int, int], dens: Mapping[int, int]) -> "SparseFunction":
        """x -> nums[x] / dens.get(x, 1), ratios in lowest terms and dens the denominators above 1.
        Over their lcm the numerators share no factor with it, so _from_sums divides out none."""
        den = math.lcm(*dens.values())
        if den > 1:
            nums = {x: p * (den // dens.get(x, 1)) for x, p in nums.items()}
        return cls._from_sums(params, nums, den)

    @classmethod
    def _from_sums(cls, params: JohnsonParams, sums: Mapping[int, int], den: int = 1) -> "SparseFunction":
        """x -> sums[x] / den on the nonzero sums, in lowest terms; the keys must be
        vertices of params and den a positive int. Every function is stored here."""
        nums = {x: s for x, s in sums.items() if s}
        g = math.gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {x: s // g for x, s in nums.items()}
        f = object.__new__(cls)
        for name, value in (("params", params), ("den", den), ("nums", MappingProxyType(nums))):
            object.__setattr__(f, name, value)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("SparseFunction is immutable")

    def __reduce__(self):
        return SparseFunction._from_sums, (self.params, dict(self.nums), self.den)

    @classmethod
    def zero(cls, params: JohnsonParams) -> "SparseFunction":
        return cls(params)

    @classmethod
    def constant(cls, params: JohnsonParams, value: Rational) -> "SparseFunction":
        _check_params(params)
        if params.num_vertices > MAX_OUTPUT_TERMS:
            raise SizeBudgetError(f"J({params.n},{params.w}) has {params.num_vertices} vertices, "
                                  f"over the cap {MAX_OUTPUT_TERMS}")
        p, q = check_rational(value).numerator, value.denominator
        return cls._from_sums(params, dict.fromkeys(params.vertices(), p), q)

    def __call__(self, x: int) -> Fraction:
        self.params.check_vertex(x)
        return Fraction(self.nums.get(x, 0), self.den)

    @property
    def entries(self) -> Mapping[int, Fraction]:
        """A new read-only view of the support values as Fractions on each access."""
        return MappingProxyType({x: Fraction(s, self.den) for x, s in self.nums.items()})

    @property
    def support(self) -> list[int]:
        """Support vertices in rank order, which is numeric bitmask order."""
        return sorted(self.nums)

    @property
    def support_size(self) -> int:
        return len(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseFunction):
            return NotImplemented
        return (self.params, self.den, self.nums) == (other.params, other.den, other.nums)

    def __hash__(self):
        return hash((self.params, self.den, frozenset(self.nums.items())))

    def __add__(self, other: "SparseFunction") -> "SparseFunction":
        return self._plus(other, 1)

    def __sub__(self, other: "SparseFunction") -> "SparseFunction":
        return self._plus(other, -1)

    def _plus(self, other: "SparseFunction", sign: int) -> "SparseFunction":
        """self + sign * other, for sign +-1, built once."""
        if not isinstance(other, SparseFunction):
            return NotImplemented
        if self.params != other.params:
            raise ParamsMismatchError(f"functions live on J{tuple(self.params)} and J{tuple(other.params)}")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        sums = {x: a * s for x, s in self.nums.items()}
        for x, s in other.nums.items():
            sums[x] = sums.get(x, 0) + b * s
        return SparseFunction._from_sums(self.params, sums, den)

    def __neg__(self) -> "SparseFunction":
        return self.scale(-1)

    def scale(self, c: Rational) -> "SparseFunction":
        p, q = check_rational(c).numerator, c.denominator
        return SparseFunction._from_sums(self.params, {x: p * s for x, s in self.nums.items()}, q * self.den)

    def __repr__(self):
        return f"SparseFunction(J({self.params.n},{self.params.w}), {self.support_size} nonzeros)"


def neighbors(x: int, params: JohnsonParams) -> list[int]:
    """All vertices x - a + b for a in supp(x), b outside; exactly w(n-w) of them."""
    params.check_vertex(x)
    bits = [1 << c for c in range(params.n)]
    return [x ^ a | b for a in bits if x & a for b in bits if not x & b]


def down_sums(nums: Mapping[int, int]) -> dict[int, int]:
    """(D nums)(z) = sum of nums over the one-element supersets of z, scattered
    from each key to its subsets one element smaller; zero sums are kept."""
    acc: dict[int, int] = {}
    for y, num in nums.items():
        ins = y
        while ins:
            abit = ins & -ins
            ins ^= abit
            z = y ^ abit
            acc[z] = acc.get(z, 0) + num
    return acc


def adjacency_sums(nums: Mapping[int, int], n: int) -> dict[int, int]:
    """s(x) = sum of nums over the neighbors of x, as U(D nums) - w nums.

    D scatters each key to its w subsets of size w-1 (down_sums), U scatters
    each nonzero down sum to its n-w+1 supersets, and w nums is subtracted on
    the support. This is A: (U D f)(x) = sum_y f(y) C(|x & y|, w-1), which
    counts y = x w times and each neighbor once. Every key of nums (the
    subtraction visits it) and every vertex with a nonzero sum is a key. The
    adds are |supp| w for D and at most min(|supp| w, C(n,w-1)) (n-w+1) for U,
    so at worst (n-w+2)/(n-w) times the |supp| w(n-w) of a scatter to each neighbor.
    """
    bits = [1 << c for c in range(n)]
    acc: dict[int, int] = {}
    for z, s in down_sums(nums).items():
        if s:
            for b in bits:
                if not z & b:
                    x = z | b
                    acc[x] = acc.get(x, 0) + s
    for y, num in nums.items():
        acc[y] = acc.get(y, 0) - y.bit_count() * num
    return acc


def apply_adjacency(f: SparseFunction) -> SparseFunction:
    """g(x) = sum of f over the neighbors of x, computed by A = U D - w I.

    adjacency_sums adds the numerators of f over its one denominator. The
    result's support is contained in supp(f) united with its neighborhood.
    """
    return SparseFunction._from_sums(f.params, adjacency_sums(f.nums, f.params.n), f.den)
