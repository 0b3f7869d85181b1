"""Exact minimum-support search over an eigenspace, by two independent algorithms.

Both algorithms work with the N x d basis matrix, one row per vertex in rank
order, which must have full column rank. A nonzero member of the span is
determined (up to scale) by its zero set Z, a set of rows of rank at most d-1;
the support is N minus the size of the largest achievable zero set.

Neither search eliminates rows. Each keeps the projected columns of a set Z
of forced rows: cols[j][r] = rows[r] . k_j, where k_0..k_{m-1} is a basis of
the kernel of Z and m = d - rank(Z), so column j is the value vector of the
member k_j. Row r is in the span of Z exactly when every cols[j][r] is 0.
The hyperplane scan forces an independent row r by keeping m-1 columns, each
combined with the first column nonzero at r so that it vanishes there (see
_project). The branch and bound keeps its columns in staircase form instead,
each with its own leading row, so that forcing a row only drops a column
(see min_support_bnb). At m = 1 the one column is the value vector of the
one member, up to scale, zero on Z.

Lemma (the elementary vectors of a subspace: Rockafellar 1969): a member c of
inclusion-minimal support, so any of minimum support, has a zero set Z of
rank exactly d-1 and is its unique kernel vector up to scale. Else the kernel
of Z holds a c' independent of c; c' is nonzero on some row r of supp(c), as
the rows have rank d, and c - (c(r)/c'(r)) c' is nonzero and zero on Z and r.

  - branch and bound: depth-first over vertices in rank order, deciding
    "forced zero" vs "free" on staircase columns; forcing a row drops the
    column that leads there, and once one column is left its zeros are
    counted directly. By the lemma the leaves, whose forced rows have lower
    rank, need no measuring (see min_support_bnb).
  - hyperplane enumeration: every (d-1)-subset of rows spanning rank exactly
    d-1 leaves one projected column; count its nonzero entries. The subsets
    are walked depth first by prefix, and a dependent prefix is skipped with
    every subset under it. By the lemma this is complete for the minimum.

The branch and bound is the authority and supplies the witnesses; the
hyperplane scan is the independent confirmer of its minimum, and supplies
the value and witnesses only when the branch and bound ran out of budget.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from operator import add, neg, sub

from .canonical import build_canonical, default_pairing, match_canonical, support_size_bound
from .errors import OracleDisagreementError, ParameterError, SizeBudgetError
from .exact_linalg import IntEchelon
from .johnson import JohnsonParams, SparseFunction
from .spectral import EigenspaceBasis, eigenspace_basis, is_eigenfunction

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_SUBSET_BUDGET = 100_000
DEFAULT_WITNESS_CAP = 16


@dataclass
class SearchStats:
    nodes: int = 0
    subsets: int = 0
    elapsed: float = 0.0
    # witness pool: calls to offer, and the distinct value vectors it kept
    offered: int = 0
    valued: int = 0
    # cross-multiplications of two columns: the bnb's _settle, the scan's _project
    eliminations: int = 0


@dataclass
class SearchReport:
    """Outcome of a minimum-support search.

    attained_by_canonical: the minimum equals the bound and at least one
    reported witness is a scalar multiple of a canonical function.
    all_witnesses_canonical: additionally every reported witness is one,
    i.e. the equality characterization held on everything the search found.
    Both stay None when optimality was not proven or matching was not run.
    """

    params: JohnsonParams
    i: int
    lam: int
    min_support: int | None
    witnesses: list[SparseFunction]
    bound: int
    attained_by_canonical: bool | None
    proven_optimal: bool
    algorithm: str
    all_witnesses_canonical: bool | None = None
    stats: SearchStats = field(default_factory=SearchStats)


def _check_searchable(
    space: EigenspaceBasis, witness_cap: int, workers: int = 1, node_budget: int = 1
) -> None:
    """Raise ParameterError for a cap, worker count or node budget below 1, or an empty space."""
    if witness_cap < 1:
        raise ParameterError(f"witness_cap must be at least 1, got {witness_cap}")
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    if node_budget < 1:
        raise ParameterError(f"node_budget must be at least 1, got {node_budget}")
    if space.dimension < 1:
        n, w = space.params.n, space.params.w
        raise ParameterError(f"eigenspace of J({n},{w}) at index {space.i} is empty")


def _normal(values) -> tuple[int, ...]:
    """The vector divided by its gcd, first nonzero entry positive."""
    g = math.gcd(*values)
    if next(filter(None, values)) < 0:
        g = -g
    return tuple(values) if g == 1 else tuple(x // g for x in values)


def _combine(col: list[int], pivot: list[int], r: int) -> list[int]:
    """col combined with pivot so that it vanishes at row r, divided by its gcd.

    With a0 = pivot[r] != 0, a = col[r] != 0 and g = gcd(a0, a) this is
    (a0/g) col - (a/g) pivot. It is not zero when col and pivot are the value
    vectors of independent members, as the rows have full column rank. When
    |a| = |a0| both multipliers are 1 or -1, and the combination is a sum or a
    difference, made without a multiply.
    """
    a0, a = pivot[r], col[r]
    if a == a0:
        new = list(map(sub, col, pivot) if a0 > 0 else map(sub, pivot, col))
    elif a == -a0:
        new = list(map(add, col, pivot) if a0 > 0 else map(neg, map(add, col, pivot)))
    else:
        g = math.gcd(a0, a)
        p, q = a0 // g, a // g
        new = [p * x - q * y for x, y in zip(col, pivot)]
    g = math.gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _project(cols: list[list[int]], r: int, stats: SearchStats) -> list[list[int]] | None:
    """The projected columns once row r is forced to zero; None if r is dependent.

    The first column j0 nonzero at r is dropped, and every other column
    nonzero at r is combined with it (_combine). These are the value vectors
    of a basis of the smaller kernel; a column already zero at r is shared,
    not copied.
    """
    for j0, pivot in enumerate(cols):
        if pivot[r]:
            break
    else:
        return None
    out = []
    for j, col in enumerate(cols):
        if not col[r]:
            out.append(col)
        elif j != j0:
            stats.eliminations += 1
            out.append(_combine(col, pivot, r))
    return out


def _settle(
    col: list[int], start: int, cols: list[list[int]], leads: list[int], stats: SearchStats
) -> None:
    """Insert col into the staircase cols, sorted by their distinct leads.

    The lead of col is its first nonzero row from start on, or N if it has
    none. While that row is the lead of a column of cols, col is combined
    with that column (_combine), so that it vanishes there and its lead moves
    down. Then it goes in at its lead. The span is unchanged.
    """
    nverts = len(col)
    r = start
    while True:
        while r < nverts and not col[r]:
            r += 1
        j = bisect_left(leads, r)
        if r == nverts or j == len(leads) or leads[j] != r:
            break
        stats.eliminations += 1
        col = _combine(col, cols[j], r)
    cols.insert(j, col)
    leads.insert(j, r)


class _WitnessPool:
    """Distinct minimum-support value vectors, deduplicated up to scalar.

    The basis must have full column rank (the lemma in the module docstring
    needs it too); ParameterError is raised otherwise. Both searches run on
    its rows scaled by the lcm of all its denominators, a positive scaling
    that changes no zero test, and offer the value vectors of their
    candidates on those rows. A vector is kept divided by its gcd with a
    positive value at the lowest-rank support vertex, so two offers of the
    same member up to scalar are kept once. As c -> basis @ c is injective,
    these keys correspond one to one with the candidates' kernel normals.
    """

    def __init__(self, basis, cap: int, stats: SearchStats):
        self.rows = basis.integer_rows()
        ech = IntEchelon(basis.cols, self.rows)
        if ech.rank < basis.cols:
            raise ParameterError(f"basis has rank {ech.rank}, below its {basis.cols} columns")
        self.cap = cap
        self.stats = stats
        self.best: int | None = None
        # the normalized value vectors at the best support so far
        self.vectors: set[tuple[int, ...]] = set()

    def columns(self) -> list[list[int]]:
        """The projected columns of no forced rows: the columns of the scaled basis."""
        return [list(col) for col in zip(*self.rows)]

    def offer(self, support: int, values) -> None:
        self.stats.offered += 1
        if self.best is None or support < self.best:
            self.best = support
            self.vectors = set()
        if support != self.best or len(self.vectors) >= 4 * self.cap:
            return
        key = _normal(values)
        if key not in self.vectors:
            self.stats.valued += 1
            self.vectors.add(key)

    def final_vectors(self) -> list[tuple[int, ...]]:
        return sorted(self.vectors)[: self.cap]


def _report(space, pool, stats, t0, proven, algorithm) -> SearchReport:
    """The report of one search; canonical matching is left to verify_bound."""
    stats.elapsed = time.perf_counter() - t0
    params = space.params
    verts = list(params.vertices())
    witnesses = [
        SparseFunction._trusted(params, {x: Fraction(v) for x, v in zip(verts, vals) if v})
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
        proven_optimal=proven,
        algorithm=algorithm,
        stats=stats,
    )


def min_support_bnb(
    space: EigenspaceBasis,
    node_budget: int = DEFAULT_NODE_BUDGET,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    upper_bound_hint: int | None = None,
) -> SearchReport:
    """Exact minimum support over all nonzero members of the eigenspace.

    Each node k carries the projected columns of its forced rows (module
    docstring) in staircase form: each column's lead is its first nonzero
    row from k on, or N if it has none; the columns are sorted by lead, and
    the leads below N are distinct. So row k is dependent exactly when no
    column leads there, and then both children reuse the parent's columns.
    Otherwise the "force" child drops the column that leads at k, as every
    other one is already zero there, and the "free" child re-settles that
    column from row k+1 (_settle) once it has passed the prunes; only this
    step does arithmetic. The columns start settled from row 0. So a path
    holds at most d + f live columns: the d starting ones and one new column
    per row it frees, with f <= limit <= N + 1 frees. A forced child shares
    the parent's lists and starts one column further on; only a settle
    copies them.

    A node with as many frees as the limit is closed at once. Each of its
    free children, and those of every node below it, is pruned on entry, as
    the limit never grows; so its subtree is the path that forces every row
    down to row K, where K = leads[-2] + 1 leaves one column (or K = N when
    two columns lead at N), plus one pruned free child per row of that path.
    The node counts the K - k forced nodes, then measures the last column
    as node K would when one column is left there (leads[-2] < N), then
    counts the K - k free children: the order in which the search would
    meet them, so the node budget stops it at the same count with the same
    best so far.

    Only the span of the columns decides a node: whether a row is
    dependent, the number m of columns, and the one member, up to scale, at
    m = 1. So the nodes, prunes, limit and offers are those of the same
    search on any other basis of each kernel, such as _project's.

    Complete search: every zero pattern of a nonzero member corresponds to
    exactly one root-to-leaf path, the prune on frees > limit can only
    discard patterns with strictly larger support, and at rank d-1, one
    column left, the unique member is measured exactly, so ties at the
    limit are never lost. A node at rank d-1 returns before it forces a row,
    so rank d is never reached.

    A leaf (k == N) has forced rank below d-1, and the frees prune always
    stops it. Its frees F are the rows outside its forced rows Z, and F is
    not empty, as the rows have rank d; let r be its first row. Z and r have
    rank at most d-1, so some nonzero member is zero on them; take one of
    inclusion-minimal support. By the lemma in the module docstring its zero
    set has rank d-1, and its support lies in F minus r. Its path forces rows
    0..r and is explored before the leaf's, which frees r, so the limit
    is at most |F|-1 when the leaf is reached. If the node budget runs out
    the best value found so far is returned flagged as not proven. A hint
    below the minimum prunes every member, and a search that completes with
    no offer raises ParameterError. A node budget below 1 raises too.
    """
    _check_searchable(space, witness_cap, node_budget=node_budget)
    nverts = space.basis.rows
    t0 = time.perf_counter()
    stats = SearchStats()
    pool = _WitnessPool(space.basis, witness_cap, stats)
    # the largest support still worth offering: the hint, then each offer's
    limit = upper_bound_hint if upper_bound_hint is not None else nverts + 1
    exhausted = False

    def charge(count: int) -> bool:
        """Add count nodes, stopping where counting them one by one would; False once spent."""
        nonlocal exhausted
        if stats.nodes + count > node_budget:
            stats.nodes = node_budget + 1
            exhausted = True
            return False
        stats.nodes += count
        return True

    def measure(values: list[int], frees: list[int]) -> None:
        nonlocal limit
        if 0 in map(values.__getitem__, frees):
            return
        support = nverts - values.count(0)
        if support <= limit:
            limit = support
            pool.offer(support, values)

    def visit(k: int, frees: list[int], cols: list[list[int]], leads: list[int], o: int) -> None:
        # the node's columns are cols[o:], with leads leads[o:]
        if exhausted or not charge(1) or len(frees) > limit:
            return
        if len(cols) - o == 1:
            measure(cols[o], frees)
            return
        if k == nverts:
            return
        if leads[o] < k:
            # the free child of row k-1: the column that led there settles anew
            head, cols, leads, o = cols[o], cols[o + 1 :], leads[o + 1 :], 0
            _settle(head, k, cols, leads, stats)
        if len(frees) == limit:
            # every free child below is pruned on entry: the forced path to
            # row stop, its measure at one column, then those free children
            last = leads[-2]
            stop = min(last + 1, nverts)
            if charge(stop - k):
                if last < nverts:
                    measure(cols[-1], frees)
                charge(stop - k)
            return
        # forcing row k drops the column that leads there; a dependent row is zero already
        visit(k + 1, frees, cols, leads, o + 1 if leads[o] == k else o)
        frees.append(k)
        visit(k + 1, frees, cols, leads, o)
        frees.pop()

    cols: list[list[int]] = []
    leads: list[int] = []
    for col in pool.columns():
        _settle(col, 0, cols, leads, stats)
    visit(0, [], cols, leads, 0)
    if not exhausted and pool.best is None:
        raise ParameterError(f"upper_bound_hint {upper_bound_hint} is below the minimum support")
    return _report(space, pool, stats, t0, not exhausted, "bnb")


def min_support_hyperplane(
    space: EigenspaceBasis,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    workers: int = 1,
) -> SearchReport:
    """Minimum support via enumeration of all C(N, d-1) row subsets.

    Complete for the minimum: by the lemma in the module docstring a
    minimum-support member is the kernel normal of the d-1 independent rows
    its zero set contains, whose value vector is the one projected column
    those rows leave (module docstring). Always cross-checked against the
    branch and bound before a result is treated as final. The scan runs in
    the calling process; workers is checked (at least 1) and changes no
    output and no counter.
    """
    _check_searchable(space, witness_cap, workers)
    basis = space.basis
    nverts, d = basis.rows, basis.cols
    if d < 2:
        raise ParameterError("instance shape unsupported; use bnb")
    total = math.comb(nverts, d - 1)
    if total > subset_budget:
        raise SizeBudgetError(
            f"hyperplane enumeration needs {total} subsets, over the budget {subset_budget}"
        )
    t0 = time.perf_counter()
    stats = SearchStats()
    pool = _WitnessPool(basis, witness_cap, stats)
    _hyperplane_scan(pool.columns(), pool)
    return _report(space, pool, stats, t0, True, "hyperplane")


def _hyperplane_scan(cols: list[list[int]], pool) -> None:
    """Walk every (d-1)-subset of the N rows of the d columns in lexicographic order.

    Depth first over prefixes: each step forces the next row r (_project) and
    recurses on the rows after r that leave room for the rest of the subset.
    A dependent row ends its whole branch, so no subset under a dependent
    prefix is visited; all C(N, d-1) subsets are covered, and counted in
    pool.stats up front. At one column left the support is measured, and pool
    is offered the (support, values) of each subset that ties or beats the
    best so far. The recursion depth is d-1.
    """
    nverts, d = len(cols[0]), len(cols)
    stats = pool.stats
    stats.subsets += math.comb(nverts, d - 1)
    best = nverts

    def walk(start: int, cols: list[list[int]]) -> None:
        nonlocal best
        if len(cols) == 1:
            values = cols[0]
            support = nverts - values.count(0)
            if support <= best:
                best = support
                pool.offer(support, values)
            return
        # row r and the len(cols) - 2 rows still to come after it must fit below nverts
        for r in range(start, nverts - len(cols) + 2):
            projected = _project(cols, r, stats)
            if projected is not None:
                walk(r + 1, projected)

    walk(0, cols)


def verify_bound(
    params: JohnsonParams,
    i: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> SearchReport:
    """Run both oracles where applicable, cross-check them, and compare to the bound.

    The canonical function, when it exists, is verified as an eigenfunction
    and its support is the bnb's starting limit; it is a member of the
    eigenspace, so the search can never do worse. The bnb checks witness_cap,
    node_budget and an empty space, which has no canonical function. Where
    the scan runs too, it confirms: a proven bnb must equal its minimum and
    keeps its own witnesses, as it offers every minimum-support member; an
    exhausted bnb takes the scan's value and witnesses unless it found a
    smaller value itself. Any other difference raises
    OracleDisagreementError. attained_by_canonical records whether the
    minimum equals the bound and at least one reported witness is a scalar
    multiple of a canonical function, all_witnesses_canonical whether every
    one is; both stay None if optimality was not proven. Both oracles run
    one after the other in the calling process, so every counter in stats is
    deterministic.
    """
    space = eigenspace_basis(params, i)
    hint = None
    if params.w - i <= params.n - 2 * i:
        f_can = build_canonical(params, default_pairing(i))
        verdict = is_eigenfunction(f_can, space.lam)
        if not verdict.holds or verdict.is_zero:
            raise OracleDisagreementError("canonical function failed eigenfunction verification")
        hint = f_can.support_size

    report = min_support_bnb(space, node_budget, witness_cap, upper_bound_hint=hint)
    algorithm = "bnb"
    min_support = report.min_support
    witnesses = report.witnesses
    if space.dimension >= 2 and math.comb(space.basis.rows, space.dimension - 1) <= subset_budget:
        hyper = min_support_hyperplane(space, subset_budget, witness_cap)
        algorithm = "bnb+hyperplane"
        for f in fields(SearchStats):
            setattr(report.stats, f.name, getattr(report.stats, f.name) + getattr(hyper.stats, f.name))
        if hyper.min_support != min_support and (
            report.proven_optimal or (min_support is not None and min_support < hyper.min_support)
        ):
            raise OracleDisagreementError(
                f"bnb found {min_support} but hyperplane found {hyper.min_support} "
                f"on J({params.n},{params.w}) index {i}"
            )
        if not report.proven_optimal:
            # an exhausted bnb defers to the completed scan
            min_support, witnesses = hyper.min_support, hyper.witnesses
    for w in witnesses:
        v = is_eigenfunction(w, space.lam)
        if not v.holds or v.is_zero or w.support_size != min_support:
            raise OracleDisagreementError("unsound witness produced by the search")

    attained = None
    all_canonical = None
    if report.proven_optimal:
        matches = [match_canonical(w, i) is not None for w in witnesses]
        hit_bound = min_support == report.bound and report.bound > 0
        attained = hit_bound and any(matches)
        all_canonical = hit_bound and bool(matches) and all(matches)
    return replace(
        report,
        min_support=min_support,
        witnesses=witnesses,
        attained_by_canonical=attained,
        algorithm=algorithm,
        all_witnesses_canonical=all_canonical,
    )
