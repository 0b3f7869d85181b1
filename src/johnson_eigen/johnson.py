"""Matrix-free model of the Johnson graph J(n,w) and sparse rational functions on it.

Two w-subsets are adjacent when they share exactly w-1 elements, so J(n,w)
is regular of degree w(n-w). Functions are stored sparsely: only nonzero
values are kept, all of them exact Fractions. A = U D - w I (Delsarte 1973):
D sums down to the (w-1)-subsets and U back up, in at most (n-w+2)/(n-w)
times the adds of a direct scatter and far fewer on eigenfunctions.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from fractions import Fraction
from collections.abc import Iterable, Iterator, Mapping

from .combinatorics import MAX_COORDS, rank_subset, vertices_in_rank_order
from .errors import ParameterError, ParamsMismatchError

Rational = Fraction | int

# The most terms a constructor or operator may enumerate for one function:
# the support of build_canonical, the (vertex, superset) pairs of induce.
MAX_OUTPUT_TERMS = 1_000_000


@dataclass(frozen=True)
class JohnsonParams:
    """Parameters (n, w) of a Johnson graph; 0 <= w <= n <= 64."""

    n: int
    w: int

    def __post_init__(self):
        if not 0 <= self.w <= self.n:
            raise ParameterError(f"need 0 <= w <= n, got n={self.n}, w={self.w}")
        if self.n > MAX_COORDS:
            raise ParameterError(f"n={self.n} exceeds the {MAX_COORDS}-coordinate limit")

    @property
    def num_vertices(self) -> int:
        return math.comb(self.n, self.w)

    @property
    def degree(self) -> int:
        return self.w * (self.n - self.w)

    def check_vertex(self, x: int) -> None:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ParameterError(f"vertex {x!r} is not an int bitmask")
        if x < 0 or x.bit_count() != self.w or x >> self.n:
            raise ParameterError(f"bitmask {x:#b} is not a vertex of J({self.n},{self.w})")

    def vertices(self) -> Iterator[int]:
        return vertices_in_rank_order(self.n, self.w)


class SparseFunction:
    """Exact-rational function on the vertices of one J(n,w), stored by support.

    Keys must be int vertex bitmasks and values int or Fraction (bool is
    neither); anything else raises ParameterError. Zero values are never
    stored, so the support is exactly the key set of ``entries``. Instances
    are treated as immutable values; arithmetic returns new functions.
    """

    __slots__ = ("params", "entries")

    def __init__(self, params: JohnsonParams, entries: Mapping[int, Rational] | Iterable[tuple[int, Rational]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        table: dict[int, Fraction] = {}
        for x, v in items:
            params.check_vertex(x)
            fv = as_fraction(v)
            if fv:
                table[x] = fv
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "entries", table)

    @classmethod
    def _trusted(cls, params: JohnsonParams, table: dict[int, Fraction]) -> "SparseFunction":
        """table taken as is: nonzero Fractions on vertices of params, built or checked by the package."""
        f = cls(params)
        object.__setattr__(f, "entries", table)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("SparseFunction is immutable")

    @classmethod
    def zero(cls, params: JohnsonParams) -> "SparseFunction":
        return cls(params)

    @classmethod
    def constant(cls, params: JohnsonParams, value: Rational) -> "SparseFunction":
        return cls(params, ((x, value) for x in params.vertices()))

    def __call__(self, x: int) -> Fraction:
        return self.entries.get(x, Fraction(0))

    @property
    def support(self) -> list[int]:
        """Support vertices in rank order."""
        return sorted(self.entries, key=rank_subset)

    @property
    def support_size(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseFunction):
            return NotImplemented
        return self.params == other.params and self.entries == other.entries

    def __hash__(self):
        return hash((self.params, frozenset(self.entries.items())))

    def __add__(self, other: "SparseFunction") -> "SparseFunction":
        if self.params != other.params:
            raise ParamsMismatchError(f"functions live on J{astuple(self.params)} and J{astuple(other.params)}")
        table = dict(self.entries)
        for x, v in other.entries.items():
            s = table.get(x, 0) + v
            if s:
                table[x] = s
            else:
                table.pop(x, None)
        return SparseFunction._trusted(self.params, table)

    def __sub__(self, other: "SparseFunction") -> "SparseFunction":
        return self + other.scale(-1)

    def __neg__(self) -> "SparseFunction":
        return self.scale(-1)

    def scale(self, c: Rational) -> "SparseFunction":
        c = as_fraction(c)
        if not c:
            return SparseFunction.zero(self.params)
        return SparseFunction._trusted(self.params, {x: v * c for x, v in self.entries.items()})

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def __repr__(self):
        return f"SparseFunction(J({self.params.n},{self.params.w}), {self.support_size} nonzeros)"


def as_fraction(v: Rational) -> Fraction:
    """v as a Fraction; ParameterError unless v is an int or a Fraction, and not a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise ParameterError(f"value {v!r} is not an int or Fraction")
    return Fraction(v)


def adjacent(x: int, y: int, params: JohnsonParams) -> bool:
    """True iff the two vertices share exactly w-1 common ones."""
    params.check_vertex(x)
    params.check_vertex(y)
    return (x & y).bit_count() == params.w - 1


def johnson_distance(x: int, y: int, params: JohnsonParams) -> int:
    """|supp(x) \\ supp(y)|, which is half the Hamming distance."""
    params.check_vertex(x)
    params.check_vertex(y)
    return (x & ~y).bit_count()


def neighbors(x: int, params: JohnsonParams) -> list[int]:
    """All vertices x - a + b for a in supp(x), b outside; exactly w(n-w) of them."""
    params.check_vertex(x)
    bits = [1 << c for c in range(params.n)]
    return [x ^ a | b for a in bits if x & a for b in bits if not x & b]


def scaled_numerators(f: SparseFunction) -> tuple[int, dict[int, int]]:
    """(L, {x: L * f(x)}) with L the lcm of f's denominators.

    Linear operators then add plain integers and divide by L once per output
    value, instead of adding one Fraction per term.
    """
    den = math.lcm(*(v.denominator for v in f.entries.values()))
    return den, {x: v.numerator * (den // v.denominator) for x, v in f.entries.items()}


def function_from_sums(params: JohnsonParams, sums: Mapping[int, int], den: int) -> SparseFunction:
    """The function x -> sums[x] / den on the nonzero sums, keyed by vertices of params."""
    if den == 1:
        # Fraction(s) skips the gcd that Fraction(s, 1) pays to normalize
        return SparseFunction._trusted(params, {x: Fraction(s) for x, s in sums.items() if s})
    return SparseFunction._trusted(params, {x: Fraction(s, den) for x, s in sums.items() if s})


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
    counts y = x w times and each neighbor once. Every vertex with a nonzero
    sum is a key; some zero sums may be keys too. The adds are |supp| w for D
    and at most min(|supp| w, C(n,w-1)) (n-w+1) for U, so at worst
    (n-w+2)/(n-w) times the |supp| w(n-w) of scattering to every neighbor.
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

    adjacency_sums adds the integer numerators of scaled_numerators, and each
    nonzero sum s becomes Fraction(s, L). The result's support is contained
    in supp(f) united with its neighborhood.
    """
    den, nums = scaled_numerators(f)
    return function_from_sums(f.params, adjacency_sums(nums, f.params.n), den)
