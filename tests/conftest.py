"""Shared test helpers: seeded random functions and independent oracles.

The oracles here are deliberately separate implementations (textbook Fraction
elimination, plain zero-set enumeration) so package results are checked
against code that does not share their algorithmic shortcuts.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Mapping
from fractions import Fraction

from johnson_eigen import (
    CanonicalMatch,
    FunctionFileError,
    JohnsonParams,
    PairingConfig,
    ParameterError,
    SparseFunction,
    build_canonical,
    coordinate_partition,
    neighbors,
    rank_subset,
    support_size_bound,
    unrank_subset,
)
from johnson_eigen.errors import SizeBudgetError, brief, check_rational, is_int
from johnson_eigen.exact_linalg import combine
from johnson_eigen.minsupport import SearchReport, SearchStats
from johnson_eigen.operators import swap_maps_to
from johnson_eigen.spectral import EigenspaceBasis, EigenVerdict


def V(coords) -> int:
    """The vertex bitmask with these coordinates set."""
    return sum(1 << c for c in coords)


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_rational(rng, lo=-9, hi=9, max_den=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_member(space: EigenspaceBasis, rng) -> SparseFunction:
    """Random nonzero rational combination of the eigenspace basis columns."""
    while True:
        coeffs = [random_rational(rng) for _ in range(space.dimension)]
        if any(coeffs):
            f = space.member(coeffs)
            if not f.is_zero():
                return f


def random_sparse_function(params: JohnsonParams, rng, density=0.4) -> SparseFunction:
    entries = {}
    for x in params.vertices():
        if rng.random() < density:
            v = rng.randint(-5, 5)
            if v:
                entries[x] = v
    return SparseFunction(params, entries)


def block_symmetrized_function(params: JohnsonParams, rng) -> SparseFunction:
    """Random function constant on orbits of coordinate blocks.

    Coordinates are split into random blocks and the value depends only on
    how many ones fall in each block, so all within-block reductions vanish.
    Useful to exercise the nontrivial branch of zero-pair transitivity.
    """
    n = params.n
    coords = list(range(n))
    rng.shuffle(coords)
    blocks = []
    pos = 0
    while pos < n:
        size = min(rng.randint(1, 3), n - pos)
        blocks.append(coords[pos : pos + size])
        pos += size
    values: dict[tuple, int] = {}
    entries = {}
    for x in params.vertices():
        profile = tuple(sum((x >> c) & 1 for c in b) for b in blocks)
        if profile not in values:
            values[profile] = rng.randint(-4, 4)
        if values[profile]:
            entries[x] = values[profile]
    return SparseFunction(params, entries)


def rank(m) -> int:
    """Exact rank over the rationals of an ExactMatrix, by ReferenceEchelon."""
    return ReferenceEchelon(m.integer_rows()).rank


# -- independent oracles ------------------------------------------------------

def oracle_rref(rows) -> list[list[Fraction]]:
    """The nonzero rows of the reduced row echelon form, each with pivot entry 1,
    by textbook Gauss-Jordan elimination over Fractions; rows is a list of sequences."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return m[:rank]


def oracle_rank(rows) -> int:
    """The rank of rows, as the number of rows of oracle_rref."""
    return len(oracle_rref(rows))


def oracle_mat_vec(m, v) -> list[Fraction]:
    """Exact product m @ v by the textbook sum over each row, for A @ N = 0 checks."""
    return [
        sum((Fraction(x) * Fraction(y) for x, y in zip(m.row(r), v)), Fraction(0))
        for r in range(m.rows)
    ]


def _oracle_reduce_row(echelon, row):
    """Reduce an integer row against stored (row, pivot) pairs; None if dependent."""
    cur = list(row)
    for erow, p in echelon:
        if cur[p]:
            f, pv = cur[p], erow[p]
            cur = [pv * a - f * b for a, b in zip(cur, erow)]
    g = 0
    for x in cur:
        g = math.gcd(g, x)
        if g == 1:
            break
    if g == 0:
        return None
    return [x // g for x in cur] if g > 1 else cur


def per_row_integers(basis) -> list[list[int]]:
    """Each basis row scaled by the lcm of its own denominators."""
    rows = []
    for r in range(basis.rows):
        row = basis.row(r)
        den = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * den) for x in row])
    return rows


def exhaustive_min_support(space: EigenspaceBasis) -> int:
    """Unpruned zero-set enumeration: the largest row subset of rank < d.

    Every nonzero member's zero set has rank at most d-1 and conversely every
    such subset is contained in some member's zero set, so the minimum
    support is N minus the largest feasible subset size. No incumbent
    pruning, no rank shortcut: only the definitional cutoff at rank d.
    """
    basis = space.basis
    nverts, d = basis.rows, basis.cols
    rows = per_row_integers(basis)
    best = [0]

    def visit(k, echelon, size):
        if k == nverts:
            best[0] = max(best[0], size)
            return
        reduced = _oracle_reduce_row(echelon, rows[k])
        if reduced is None:
            visit(k + 1, echelon, size + 1)
        elif len(echelon) + 1 <= d - 1:
            p = next(j for j, x in enumerate(reduced) if x)
            echelon.append((reduced, p))
            visit(k + 1, echelon, size + 1)
            echelon.pop()
        visit(k + 1, echelon, size)

    visit(0, [], 0)
    return nverts - best[0]


def reference_is_eigenfunction(f: SparseFunction, lam: int) -> EigenVerdict:
    """The eigenfunction check by gathering over Fractions: walk supp(f) and its
    neighborhood in rank order and compare lam * f(x) with the neighbor sum."""
    params = f.params
    if f.is_zero():
        return EigenVerdict(holds=True, is_zero=True)
    closure = set(f.entries)
    for x in f.entries:
        closure.update(neighbors(x, params))
    lam_f = Fraction(lam)
    for x in sorted(closure, key=rank_subset):
        acc = Fraction(0)
        for y in neighbors(x, params):
            v = f.entries.get(y)
            if v is not None:
                acc += v
        if lam_f * f(x) != acc:
            return EigenVerdict(holds=False, is_zero=False, certificate=x)
    return EigenVerdict(holds=True, is_zero=False)


def reference_match_canonical(f: SparseFunction, i: int) -> CanonicalMatch | None:
    """The canonical matcher with the zero-pair partition as a pre-filter: only
    singleton blocks of coordinate_partition are tried as pair members."""
    params = f.params
    n, w = params.n, params.w
    if f.is_zero():
        raise ParameterError("match_canonical requires a nonzero function")
    if not 0 <= i <= w:
        raise ParameterError(f"index {i} out of range 0..{w}")
    if w - i > n - 2 * i or f.support_size != support_size_bound(n, w, i):
        return None
    if i == 0:
        values = set(f.entries.values())
        return CanonicalMatch(PairingConfig(()), values.pop()) if len(values) == 1 else None
    singles = coordinate_partition(f).singletons()
    if len(singles) < 2 * i:
        return None
    partner: dict[int, int] = {}
    for a, b in itertools.combinations(singles, 2):
        if swap_maps_to(f, a, b, -1):
            if a in partner or b in partner:
                return None
            partner[a], partner[b] = b, a
    if len(partner) != 2 * i:
        return None
    pairs = tuple(sorted((a, partner[a]) for a in partner if a < partner[a]))
    g = build_canonical(params, PairingConfig(pairs))
    if set(g.entries) != set(f.entries):
        return None
    scalar = f.entries[min(f.entries)] / g.entries[min(f.entries)]
    if any(f.entries[x] != scalar * gv for x, gv in g.entries.items()):
        return None
    if scalar < 0:
        pairs = pairs[:-1] + (pairs[-1][::-1],)
        scalar = -scalar
    return CanonicalMatch(PairingConfig(pairs), scalar)


def _accumulate(acc: dict, x: int, v: Fraction) -> None:
    s = acc.get(x, 0) + v
    if s:
        acc[x] = s
    else:
        del acc[x]


def reference_induce(f: SparseFunction, target_w: int) -> SparseFunction:
    """Upward induction by adding one Fraction per (support vertex, superset) term."""
    n, i = f.params.n, f.params.w
    acc: dict[int, Fraction] = {}
    for y, v in f.entries.items():
        comp = [c for c in range(n) if not (y >> c) & 1]
        for add in itertools.combinations(comp, target_w - i):
            x = y
            for c in add:
                x |= 1 << c
            _accumulate(acc, x, v)
    return SparseFunction(JohnsonParams(n, target_w), acc)


def reference_induce_down_one(f: SparseFunction) -> SparseFunction:
    """One-step downward induction by adding one Fraction per (vertex, subset) term."""
    acc: dict[int, Fraction] = {}
    for y, v in f.entries.items():
        for c in range(f.params.n):
            if (y >> c) & 1:
                _accumulate(acc, y ^ (1 << c), v)
    return SparseFunction(JohnsonParams(f.params.n, f.params.w - 1), acc)


def reference_reduce(f: SparseFunction, j1: int, j2: int) -> SparseFunction:
    """The (j1, j2) reduction over Fractions, renumbering the survivors by position."""
    n, w = f.params.n, f.params.w
    survivors = [c for c in range(n) if c not in (j1, j2)]
    acc: dict[int, Fraction] = {}
    for x, v in f.entries.items():
        has1, has2 = (x >> j1) & 1, (x >> j2) & 1
        if has1 != has2:
            y = sum(1 << p for p, c in enumerate(survivors) if (x >> c) & 1)
            _accumulate(acc, y, v if has1 else -v)
    return SparseFunction(JohnsonParams(n - 2, w - 1), acc)


def dense_adjacency_by_definition(params: JohnsonParams):
    """Adjacency matrix built from the pairwise intersection rule only."""
    verts = list(params.vertices())
    return [
        [1 if x != y and (x & y).bit_count() == params.w - 1 else 0 for y in verts]
        for x in verts
    ], verts


def pascal_table(limit: int):
    """Binomial table up to row `limit` built by Pascal's rule alone."""
    table = [[1]]
    for n in range(1, limit + 1):
        prev = table[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        table.append(row)
    return table


def colex_subsets(n: int, w: int):
    """All w-subsets of {0..n-1} sorted co-lexicographically, as element tuples."""
    return sorted(itertools.combinations(range(n), w), key=lambda s: tuple(reversed(s)))


def reference_normal(values) -> tuple[Fraction, ...]:
    """A rational vector as coprime integers with its first nonzero entry
    positive, as Fractions."""
    vals = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in vals))
    ints = [int(v * den) for v in vals]
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def reference_values(rows, coeff) -> list[Fraction]:
    """The value vector rows @ coeff, summed over Fractions."""
    return [sum((Fraction(x) * c for x, c in zip(row, coeff) if x and c), Fraction(0)) for row in rows]


class ReferenceWitnessPool:
    """The witness pool over Fractions: each offered value vector is normalized
    by reference_normal and the first 4*cap distinct ones at the best support
    are kept. offered counts the offers and valued the vectors kept."""

    def __init__(self, cap, stats):
        self.cap = cap
        self.stats = stats
        self.best = None
        self.vectors = {}

    def offer(self, support, values) -> None:
        self.stats.offered += 1
        if self.best is None or support < self.best:
            self.best = support
            self.vectors = {}
        if support == self.best and len(self.vectors) < 4 * self.cap:
            key = reference_normal(values)
            if key not in self.vectors:
                self.stats.valued += 1
                self.vectors[key] = None

    def final_vectors(self) -> list[tuple]:
        return sorted(self.vectors)[: self.cap]


# -- the elimination-driven searches, kept as oracles for the projected ones ---

class ReferenceEchelon:
    """Incremental exact echelon over integer rows.

    Stored rows are content-reduced and zero at the leading column (pivot) of
    every row stored before them; pivot signs are left as they fall. The
    given rows are reduced in order and each independent one is pushed.
    """

    def __init__(self, rows=()):
        self.rows: list[tuple[int, ...]] = []
        self.pivots: list[int] = []
        for row in rows:
            reduced = self.reduce(row)
            if reduced:
                self.push(reduced)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> tuple[int, ...]:
        """Reduce a row against the stored rows: its content divided out, then one
        combine at each stored pivot where it is nonzero. () means dependent."""
        g = math.gcd(*row)
        if not g:
            return ()
        cur = [x // g for x in row] if g > 1 else row
        for stored, p in zip(self.rows, self.pivots):
            if cur[p]:
                cur = combine(cur, stored, p)
        return tuple(cur) if any(cur) else ()

    def push(self, reduced: tuple[int, ...]) -> None:
        p = next(j for j, x in enumerate(reduced) if x)
        self.rows.append(reduced)
        self.pivots.append(p)


def reference_kernel(ech: ReferenceEchelon, width: int) -> list[tuple[int, ...]]:
    """Canonical kernel basis of ech's stored rows, each of length width: one vector per free column.

    In increasing free-column order; each vector is coprime integers,
    positive at its own free column and zero at every other one.
    Sorted by pivot the stored rows are an echelon form, solved by
    fraction-free back-substitution: the vector for free column fc is
    zero at pivots beyond fc, and scaling it by the product of the
    pivots before fc makes every division exact (Cramer's rule on the
    triangular system). An algorithm independent of reduced_echelon.
    """
    order = sorted(range(len(ech.rows)), key=ech.pivots.__getitem__)
    rows = [ech.rows[k] for k in order]
    piv_cols = [ech.pivots[k] for k in order]
    piv_set = set(piv_cols)
    out = []
    for fc in range(width):
        if fc in piv_set:
            continue
        engaged = sum(1 for p in piv_cols if p < fc)
        scale = math.prod(rows[i][piv_cols[i]] for i in range(engaged))
        values = {fc: scale}
        for i in reversed(range(engaged)):
            row = rows[i]
            s = row[fc] * scale
            for j in range(i + 1, engaged):
                x = row[piv_cols[j]]
                if x:
                    s += x * values[piv_cols[j]]
            q, rem = divmod(-s, row[piv_cols[i]])
            if rem:
                raise ArithmeticError("fraction-free back-substitution lost exactness")
            values[piv_cols[i]] = q
        g = math.gcd(*values.values())
        if scale < 0:
            g = -g
        vec = [0] * width
        for pos, val in values.items():
            vec[pos] = val // g
        out.append(tuple(vec))
    return out


class _PushPopEchelon(ReferenceEchelon):
    """ReferenceEchelon with the pop the reference branch and bound backtracks with."""

    def pop(self) -> None:
        self.rows.pop()
        self.pivots.pop()


def _int_dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b) if x and y)


def reference_min_support_bnb(space, node_budget=5_000_000, witness_cap=16, upper_bound_hint=None):
    """The branch and bound on an incremental echelon of the forced rows: reduce
    each row against it, push and pop, and solve the kernel at rank d-1. The
    same node order, prunes and limit as min_support_bnb; its witnesses are
    valued over Fractions on the basis itself."""
    basis = space.basis
    nverts, d = basis.rows, basis.cols
    rows = basis.integer_rows()
    fraction_rows = [basis.row(r) for r in range(nverts)]
    stats = SearchStats()
    pool = ReferenceWitnessPool(witness_cap, stats)
    ech = _PushPopEchelon()
    limit = upper_bound_hint if upper_bound_hint is not None else nverts + 1
    exhausted = False

    def visit(k, frees):
        nonlocal exhausted, limit
        if exhausted:
            return
        stats.nodes += 1
        if stats.nodes > node_budget:
            exhausted = True
            return
        if len(frees) > limit:
            return
        if ech.rank == d - 1:
            c = reference_kernel(ech, d)[0]
            if any(_int_dot(rows[r], c) == 0 for r in frees):
                return
            support = sum(1 for r in range(nverts) if _int_dot(rows[r], c) != 0)
            if support <= limit:
                limit = support
                pool.offer(support, reference_values(fraction_rows, c))
            return
        if k == nverts:
            return
        reduced = ech.reduce(rows[k])
        if not reduced:
            visit(k + 1, frees)
        else:
            ech.push(reduced)
            visit(k + 1, frees)
            ech.pop()
        frees.append(k)
        visit(k + 1, frees)
        frees.pop()

    visit(0, [])
    params = space.params
    verts = list(params.vertices())
    witnesses = [
        SparseFunction(params, {x: v for x, v in zip(verts, vals) if v})
        for vals in pool.final_vectors()
    ]
    return SearchReport(
        params=params,
        i=space.i,
        lam=space.lam,
        min_support=pool.best,
        witnesses=witnesses,
        bound=support_size_bound(params.n, params.w, space.i),
        attained_by_canonical=None,
        proven_optimal=not exhausted,
        algorithm="bnb",
        stats=stats,
    )


def reference_hyperplane_scan(rows, nverts, d):
    """The hyperplane scan with one fresh echelon and kernel solve per subset:
    the number of (d-1)-subsets, and (support, kernel coefficient vector) for
    each one that ties or beats the best, in lexicographic order."""
    found = []
    best = nverts
    done = 0
    for subset in itertools.combinations(range(nverts), d - 1):
        done += 1
        ech = ReferenceEchelon(map(rows.__getitem__, subset))
        if ech.rank != d - 1:
            continue
        c = reference_kernel(ech, d)[0]
        support = sum(1 for r in range(nverts) if _int_dot(rows[r], c) != 0)
        if support <= best:
            best = support
            found.append((support, c))
    return done, found


# -- the constructor that stored its own state: a checked table, then the lcm ---

def reference_sparse_function(params: JohnsonParams, entries) -> tuple[int, dict[int, int]]:
    """(den, nums) as the public constructor stored them before it built through
    _from_sums: a table of the checked values, then their numerators over the lcm
    of their denominators."""
    if not isinstance(entries, Iterable):
        raise ParameterError(f"entries {brief(entries)} are not a mapping or an iterable of pairs")
    table = {}
    for item in entries.items() if isinstance(entries, Mapping) else entries:
        try:
            x, v = item
        except (TypeError, ValueError):
            raise ParameterError(f"entry {brief(item)} is not a (vertex, value) pair") from None
        params.check_vertex(x)
        check_rational(v)
        if x in table:
            raise ParameterError(f"vertex {x:#b} is given twice")
        table[x] = v
    den = math.lcm(*(v.denominator for v in table.values()))
    return den, {x: v.numerator * (den // v.denominator) for x, v in table.items() if v}


# -- the function file over Fractions: one Fraction per value, checked by the public constructor --

def reference_rational_to_string(v: Fraction) -> str:
    try:
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    except ValueError as exc:
        raise SizeBudgetError("a value has too many digits to write as a string") from exc


def reference_function_to_document(f: SparseFunction, lambda_index=None) -> dict:
    if not (lambda_index is None or is_int(lambda_index) and 0 <= lambda_index <= f.params.w):
        raise ParameterError(f"lambda_index {brief(lambda_index)} is not null or an int in 0..{f.params.w}")
    entries = [[rank_subset(x), reference_rational_to_string(f.entries[x])] for x in f.support]
    return {"n": f.params.n, "w": f.params.w, "lambda_index": lambda_index, "entries": entries}


def reference_document_to_function(doc):
    """The reader that parses each value with Fraction and builds through SparseFunction(params, table)."""
    if not isinstance(doc, dict):
        raise FunctionFileError("function file must be a JSON object")
    for key in ("n", "w", "entries"):
        if key not in doc:
            raise FunctionFileError(f"missing field {key!r}")
    unknown = set(doc) - {"n", "w", "lambda_index", "entries"}
    if unknown:
        raise FunctionFileError(f"unknown fields {sorted(unknown)}")
    n, w = doc["n"], doc["w"]
    try:
        params = JohnsonParams(n, w)
    except ParameterError as exc:
        raise FunctionFileError(f"bad parameters: {exc}") from exc
    lam_index = doc.get("lambda_index")
    if not (lam_index is None or is_int(lam_index) and 0 <= lam_index <= w):
        raise FunctionFileError(f"lambda_index {brief(lam_index)} is not null or an int in 0..{w}")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise FunctionFileError("entries must be a list")
    nverts = params.num_vertices
    table = {}
    prev_rank = -1
    for item in entries:
        if not (isinstance(item, list) and len(item) == 2):
            raise FunctionFileError(f"bad entry {brief(item)}")
        r, s = item
        if not is_int(r) or not 0 <= r < nverts:
            raise FunctionFileError(f"rank {brief(r)} out of range 0..{nverts - 1}")
        if r <= prev_rank:
            raise FunctionFileError("ranks must be strictly increasing")
        prev_rank = r
        if not isinstance(s, str):
            raise FunctionFileError(f"value {brief(s)} must be a rational string")
        if s.strip("-/0123456789"):
            raise FunctionFileError(f"bad rational {brief(s)}")
        try:
            v = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise FunctionFileError(f"bad rational {brief(s)}") from exc
        if v == 0:
            raise FunctionFileError("zero values must not be stored")
        if reference_rational_to_string(v) != s:
            raise FunctionFileError(f"rational {brief(s)} is not in canonical lowest terms")
        table[unrank_subset(r, n, w)] = v
    return SparseFunction(params, table), lam_index
