"""Structural operators between Johnson graphs: induction, reduction, zero-pair partition.

Induction I(f) sums f over weight-i subsets of each target vertex and shifts
the eigenvalue by (w-i)(n-i-w). Reduction fixes an ordered coordinate pair
(j1, j2), takes the difference of f over the two ways of placing a single
one there, and lands in J(n-2, w-1) one spectral index lower. Coordinates of
the smaller graph are the survivors renumbered in order. All three add the
integer numerators of f and keep its denominator.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .errors import ParameterError, SizeBudgetError, is_int
from .johnson import MAX_OUTPUT_TERMS, JohnsonParams, SparseFunction, down_sums


def induce(f: SparseFunction, target_w: int) -> SparseFunction:
    """Upward induction from J(n,i) to J(n,w): g(x) = sum of f over weight-i subsets of x.

    A lambda-eigenfunction of J(n,i) induces a (lambda + (w-i)(n-i-w))-eigenfunction
    of J(n,w); the result may legitimately be zero. SizeBudgetError if the
    |supp f| * C(n-i, w-i) terms would exceed MAX_OUTPUT_TERMS.
    """
    n, i = f.params.n, f.params.w
    if not (is_int(target_w) and target_w >= i):
        raise ParameterError(f"upward induction needs an int target weight >= {i}, got {target_w!r}")
    if target_w > n:
        raise ParameterError(f"target weight {target_w} exceeds n={n}")
    extra = target_w - i
    terms = len(f.nums) * math.comb(n - i, extra)
    if terms > MAX_OUTPUT_TERMS:
        raise SizeBudgetError(f"induction needs {terms} terms, over the cap {MAX_OUTPUT_TERMS}")
    acc: dict[int, int] = {}
    for y, v in f.nums.items():
        for s in map(sum, itertools.combinations([1 << c for c in range(n) if not y >> c & 1], extra)):
            acc[y | s] = acc.get(y | s, 0) + v
    return SparseFunction._from_sums(JohnsonParams(n, target_w), acc, f.den)


def induce_down_one(f: SparseFunction) -> SparseFunction:
    """One-step downward induction to J(n,w-1): g(x) = sum of f over supersets of x.

    Vanishes identically exactly when f is a (-w)-eigenfunction of J(n,w).
    """
    n, w = f.params.n, f.params.w
    if w == 0:
        raise ParameterError("cannot induce below weight 0")
    return SparseFunction._from_sums(JohnsonParams(n, w - 1), down_sums(f.nums), f.den)


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
    acc: dict[int, int] = {}
    for x, v in f.nums.items():
        has1 = (x >> j1) & 1
        has2 = (x >> j2) & 1
        if has1 == has2:
            continue
        y = _delete_coordinate(_delete_coordinate(x, hi), lo)
        acc[y] = acc.get(y, 0) + (v if has1 else -v)
    return SparseFunction._from_sums(JohnsonParams(n - 2, w - 1), acc, f.den)


def _check_reduction_coords(params: JohnsonParams, j1: int, j2: int) -> None:
    if params.w < 1 or params.n < 2:
        raise ParameterError(f"cannot reduce J({params.n},{params.w})")
    if params.w == params.n:
        raise ParameterError(f"reduction target J({params.n - 2},{params.w - 1}) does not exist")
    for j in (j1, j2):
        if not (is_int(j) and 0 <= j < params.n):
            raise ParameterError(f"coordinate {j!r} is not an int in 0..{params.n - 1}")
    if j1 == j2:
        raise ParameterError("reduction needs two distinct coordinates")


def swap_maps_to(f: SparseFunction, a: int, b: int, sign: int) -> bool:
    """True iff swapping coordinates a and b maps f to sign * f, for sign +-1.

    The swap sends a vertex holding exactly one of a, b to x ^ mask and fixes
    the others; so with sign -1 any support vertex holding both or neither fails.
    """
    mask = (1 << a) | (1 << b)
    nums = f.nums
    negate = sign < 0
    for x, v in nums.items():
        hit = x & mask
        if hit == 0 or hit == mask:
            if negate:
                return False
        elif nums.get(x ^ mask) != (-v if negate else v):
            return False
    return True


class PartitionResult(namedtuple("PartitionResult", "blocks")):
    """Coordinates grouped into maximal classes with all within-class reductions zero."""

    __slots__ = ()

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
    matches none; on a single-vertex graph (w = 0 or n) all form one block.
    """
    blocks: list[list[int]] = []
    for c in range(f.params.n):
        for block in blocks:
            if swap_maps_to(f, block[0], c, 1):
                block.append(c)
                break
        else:
            blocks.append([c])
    return PartitionResult(tuple(map(tuple, blocks)))
