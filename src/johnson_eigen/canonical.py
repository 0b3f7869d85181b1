"""The extremal plus-minus-one eigenfunction built from i disjoint coordinate pairs.

Given pairs (m_k, m'_k), the function is +-1 on vertices that take exactly one
element from every pair (sign negative when the number of first elements taken
is odd) and fill the remaining w-i ones outside the paired coordinates; it is
zero elsewhere. Its support has size 2^i * C(n-2i, w-i) and it realizes the
minimum-support bound at eigenvalue index i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import binomial
from .errors import ParameterError, SizeBudgetError
from .johnson import MAX_OUTPUT_TERMS, JohnsonParams, SparseFunction
from .operators import swap_maps_to

Pair = tuple[int, int]


@dataclass(frozen=True)
class PairingConfig:
    """i disjoint ordered coordinate pairs; the first element of each pair is the
    side that carries the minus sign."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        flat = [c for p in self.pairs for c in p]
        if len(set(flat)) != len(flat):
            raise ParameterError(f"pairing coordinates must be distinct: {self.pairs}")
        if any(c < 0 for c in flat):
            raise ParameterError(f"negative coordinate in pairing: {self.pairs}")

    @property
    def size(self) -> int:
        return len(self.pairs)

    def coordinates(self) -> set[int]:
        return {c for p in self.pairs for c in p}


def default_pairing(i: int) -> PairingConfig:
    """The reproducible default (0,1),(2,3),...,(2i-2,2i-1)."""
    return PairingConfig(tuple((2 * k, 2 * k + 1) for k in range(i)))


def support_size_bound(n: int, w: int, i: int) -> int:
    """2^i * C(n-2i, w-i), the minimum-support bound at eigenvalue index i.

    Zero exactly when no canonical function fits, i.e. when w-i > n-2i
    (including n < 2i, where no i disjoint pairs exist at all).
    """
    if not 0 <= i <= w <= n:
        raise ParameterError(f"need 0 <= i <= w <= n, got n={n}, w={w}, i={i}")
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
    if w - i > n - 2 * i:
        raise ParameterError(
            f"no support: need w-i <= n-2i, got w-i={w - i}, n-2i={n - 2 * i}"
        )
    size = support_size_bound(n, w, i)
    if size > MAX_OUTPUT_TERMS:
        raise SizeBudgetError(f"canonical function has {size} entries, over the cap {MAX_OUTPUT_TERMS}")
    return SparseFunction._trusted(params, {x: Fraction(v) for x, v in pairing_values(n, w, pairing.pairs).items()})


def pairing_values(n: int, w: int, pairs) -> dict[int, int]:
    """The +-1 values of the canonical function of these pairs, keyed by vertex bitmask.

    Unchecked: the pairs must be disjoint coordinates below n, at most w of
    them; no vertex fits when w - len(pairs) > n - 2 len(pairs).
    """
    used = {c for p in pairs for c in p}
    outside = [c for c in range(n) if c not in used]
    entries: dict[int, int] = {}
    for sides in itertools.product(*pairs):
        base = 0
        for c in sides:
            base |= 1 << c
        sign = -1 if sum(1 for c, p in zip(sides, pairs) if c == p[0]) % 2 else 1
        for fill in itertools.combinations(outside, w - len(pairs)):
            x = base
            for c in fill:
                x |= 1 << c
            entries[x] = sign
    return entries


@dataclass(frozen=True)
class CanonicalMatch:
    pairing: PairingConfig
    scalar: Fraction


def match_canonical(f: SparseFunction, i: int) -> CanonicalMatch | None:
    """Recognize f as scalar * canonical function with i pairs, if it is one.

    Candidate pairs are the coordinate pairs whose transposition negates f:
    for a multiple of the canonical function of P they are exactly P, and
    any other f fails the final comparison. For i >= 1 the reported pairing
    is normalized to a positive scalar with at most the last pair flipped
    relative to smaller-element-first order, which makes the result
    deterministic.
    """
    params = f.params
    n, w = params.n, params.w
    if f.is_zero():
        raise ParameterError("match_canonical requires a nonzero function")
    if not 0 <= i <= w:
        raise ParameterError(f"index {i} out of range 0..{w}")
    if f.support_size != support_size_bound(n, w, i):
        return None

    partner: dict[int, int] = {}
    for a, b in itertools.combinations(range(n), 2):
        if swap_maps_to(f, a, b, -1):
            if a in partner or b in partner:
                return None
            partner[a] = b
            partner[b] = a
    if len(partner) != 2 * i:
        return None
    pairs = tuple(sorted((a, partner[a]) for a in partner if a < partner[a]))

    candidate = PairingConfig(pairs)
    g = build_canonical(params, candidate)
    if set(g.entries) != set(f.entries):
        return None
    x0 = min(f.entries)
    scalar = f.entries[x0] / g.entries[x0]
    if any(f.entries[x] != scalar * gv for x, gv in g.entries.items()):
        return None
    if scalar < 0 and pairs:
        # flipping one pair negates the function; flip the last for canonical order
        last = pairs[-1]
        pairs = pairs[:-1] + ((last[1], last[0]),)
        candidate = PairingConfig(pairs)
        scalar = -scalar
    return CanonicalMatch(candidate, scalar)

