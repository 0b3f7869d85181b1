"""Structural operators between Johnson graphs: induction, reduction, zero-pair partition.

Induction I(f) sums f over weight-i subsets of each target vertex and shifts
the eigenvalue by (w-i)(n-i-w). Reduction fixes an ordered coordinate pair
(j1, j2), takes the difference of f over the two ways of placing a single
one there, and lands in J(n-2, w-1) one spectral index lower. Coordinates of
the smaller graph are the survivors renumbered in order. All three add the
integer numerators of scaled_numerators and divide once per output value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ParameterError, SizeBudgetError
from .johnson import MAX_OUTPUT_TERMS, JohnsonParams, SparseFunction, down_sums, function_from_sums, scaled_numerators


def induce(f: SparseFunction, target_w: int) -> SparseFunction:
    """Upward induction from J(n,i) to J(n,w): g(x) = sum of f over weight-i subsets of x.

    A lambda-eigenfunction of J(n,i) induces a (lambda + (w-i)(n-i-w))-eigenfunction
    of J(n,w); the result may legitimately be zero. SizeBudgetError if the
    |supp f| * C(n-i, w-i) terms would exceed MAX_OUTPUT_TERMS.
    """
    n, i = f.params.n, f.params.w
    if target_w < i:
        raise ParameterError(f"upward induction needs target weight >= {i}, got {target_w}")
    if target_w > n:
        raise ParameterError(f"target weight {target_w} exceeds n={n}")
    extra = target_w - i
    terms = len(f.entries) * math.comb(n - i, extra)
    if terms > MAX_OUTPUT_TERMS:
        raise SizeBudgetError(f"induction needs {terms} terms, over the cap {MAX_OUTPUT_TERMS}")
    den, nums = scaled_numerators(f)
    acc: dict[int, int] = {}
    for y, v in nums.items():
        comp = [c for c in range(n) if not (y >> c) & 1]
        for add in itertools.combinations(comp, extra):
            x = y
            for c in add:
                x |= 1 << c
            acc[x] = acc.get(x, 0) + v
    return function_from_sums(JohnsonParams(n, target_w), acc, den)


def induce_down_one(f: SparseFunction) -> SparseFunction:
    """One-step downward induction to J(n,w-1): g(x) = sum of f over supersets of x.

    Vanishes identically exactly when f is a (-w)-eigenfunction of J(n,w).
    """
    n, w = f.params.n, f.params.w
    if w == 0:
        raise ParameterError("cannot induce below weight 0")
    den, nums = scaled_numerators(f)
    return function_from_sums(JohnsonParams(n, w - 1), down_sums(nums), den)


def _delete_coordinate(mask: int, j: int) -> int:
    low = mask & ((1 << j) - 1)
    return low | ((mask >> (j + 1)) << j)


def reduce(f: SparseFunction, j1: int, j2: int) -> SparseFunction:
    """Reduction to J(n-2, w-1): difference of f over placing the single one at j1 vs j2.

    Only support vertices holding exactly one of j1, j2 contribute; the two
    coordinates are removed and the survivors renumbered order-preservingly.
    """
    n, w = f.params.n, f.params.w
    _check_reduction_coords(f.params, j1, j2)
    hi, lo = max(j1, j2), min(j1, j2)
    den, nums = scaled_numerators(f)
    acc: dict[int, int] = {}
    for x, v in nums.items():
        has1 = (x >> j1) & 1
        has2 = (x >> j2) & 1
        if has1 == has2:
            continue
        y = _delete_coordinate(_delete_coordinate(x, hi), lo)
        acc[y] = acc.get(y, 0) + (v if has1 else -v)
    return function_from_sums(JohnsonParams(n - 2, w - 1), acc, den)


def _check_reduction_coords(params: JohnsonParams, j1: int, j2: int) -> None:
    if params.w < 1 or params.n < 2:
        raise ParameterError(f"cannot reduce J({params.n},{params.w})")
    if params.w == params.n:
        raise ParameterError(f"reduction target J({params.n - 2},{params.w - 1}) does not exist")
    if j1 == j2:
        raise ParameterError("reduction needs two distinct coordinates")
    for j in (j1, j2):
        if not 0 <= j < params.n:
            raise ParameterError(f"coordinate {j} out of range 0..{params.n - 1}")


def iterated_reduce(f: SparseFunction, pairs) -> SparseFunction:
    """Compose reductions left to right; each pair indexes coordinates of the current graph."""
    for j1, j2 in pairs:
        f = reduce(f, j1, j2)
    return f


def survivor_coordinates(n: int, pairs) -> list[int]:
    """Original indices of the coordinates that survive iterated_reduce with these pairs.

    Position p of the final graph corresponds to original coordinate
    survivor_coordinates(n, pairs)[p], which is what lets reduction chains be
    stated against the coordinates of the starting graph.
    """
    survivors = list(range(n))
    for j1, j2 in pairs:
        if j1 == j2 or not (0 <= j1 < len(survivors)) or not (0 <= j2 < len(survivors)):
            raise ParameterError(f"bad reduction pair ({j1},{j2}) for {len(survivors)} coordinates")
        for j in sorted((j1, j2), reverse=True):
            del survivors[j]
    return survivors


def zero_pair(f: SparseFunction, j1: int, j2: int) -> bool:
    """True iff the (j1,j2) reduction of f vanishes; equivalently f is invariant
    under transposing the two coordinates, which is tested without building
    the reduction."""
    _check_reduction_coords(f.params, j1, j2)
    return swap_maps_to(f, j1, j2, 1)


def swap_maps_to(f: SparseFunction, a: int, b: int, sign: int) -> bool:
    """True iff swapping coordinates a and b maps f to sign * f, for sign +-1.

    The swap sends a vertex holding exactly one of a, b to x ^ mask and fixes
    the others; so with sign -1 any support vertex holding both or neither fails.
    """
    mask = (1 << a) | (1 << b)
    entries = f.entries
    negate = sign < 0
    for x, v in entries.items():
        hit = x & mask
        if hit == 0 or hit == mask:
            if negate:
                return False
        elif entries.get(x ^ mask) != (-v if negate else v):
            return False
    return True


@dataclass(frozen=True)
class PartitionResult:
    """Coordinates grouped into maximal classes with all within-class reductions zero."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def t(self) -> int:
        return len(self.blocks)

    def singletons(self) -> list[int]:
        return sorted(b[0] for b in self.blocks if len(b) == 1)


def coordinate_partition(f: SparseFunction) -> PartitionResult:
    """Partition the coordinates by the zero-pair relation.

    The relation is an equivalence: transposing a coordinate with itself
    fixes f, the test is symmetric, and two zero reductions sharing a
    coordinate force the third. So each coordinate is tested only against the
    first member of each block found so far, and opens a new block when it
    matches none.
    """
    n = f.params.n
    if f.params.w in (0, n):
        # single-vertex graph: every transposition fixes f
        return PartitionResult((tuple(range(n)),) if n else ())
    blocks: list[list[int]] = []
    for c in range(n):
        for block in blocks:
            if zero_pair(f, block[0], c):
                block.append(c)
                break
        else:
            blocks.append([c])
    return PartitionResult(tuple(map(tuple, blocks)))
