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
from collections import namedtuple
from operator import neg

from .canonical import match_canonical, support_size_bound
from .errors import OracleDisagreementError, ParameterError, SizeBudgetError, is_int
from .exact_linalg import combine, reduced_echelon
from .johnson import JohnsonParams, SparseFunction
from .spectral import EigenspaceBasis, eigenspace_basis, is_eigenfunction

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_SUBSET_BUDGET = 100_000
DEFAULT_WITNESS_CAP = 16
# the entries at which the bnb's elimination memo is cleared (min_support_bnb)
_MEMO_CAP = 512


class SearchStats:
    """The counters of a search, compared by value.

    nodes: branch-and-bound nodes; subsets: (d-1)-subsets of the scan;
    elapsed: seconds. offered and valued: the witness pool's calls to offer,
    and the distinct value vectors it kept. eliminations: elimination steps
    on two columns, computed or recalled: the bnb's _settle (memoized), not
    its starting echelon, and the scan's _project and its last level.
    """

    __slots__ = ("nodes", "subsets", "elapsed", "offered", "valued", "eliminations")

    def __init__(self, nodes=0, subsets=0, elapsed=0.0, offered=0, valued=0, eliminations=0):
        self.nodes, self.subsets, self.elapsed = nodes, subsets, elapsed
        self.offered, self.valued, self.eliminations = offered, valued, eliminations

    def __eq__(self, other):
        if not isinstance(other, SearchStats):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        return f"SearchStats({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"


class SearchReport(namedtuple(
    "SearchReport",
    "params i lam min_support witnesses bound attained_by_canonical proven_optimal algorithm"
    " all_witnesses_canonical stats",
    defaults=(None, None),
)):
    """Outcome of a minimum-support search.

    witnesses: a list of SparseFunction; min_support is None when no member
    was found. attained_by_canonical: the minimum equals the bound and at
    least one reported witness is a scalar multiple of a canonical function.
    all_witnesses_canonical: additionally every reported witness is one,
    i.e. the equality characterization held on everything the search found.
    Both stay None when optimality was not proven or matching was not run.
    stats: a SearchStats, a new one for each report built without it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        return report if report.stats is not None else report._replace(stats=SearchStats())


def _check_searchable(
    space: EigenspaceBasis, witness_cap: int, workers: int = 1, node_budget: int = 1,
    subset_budget: int = 1, **optional
) -> None:
    """Raise ParameterError for an argument that is not an int (bool is not), for a
    cap, worker count, node budget or subset budget below 1, or for an empty
    space. The optional keyword arguments may also be None."""
    counts = {"witness_cap": witness_cap, "workers": workers, "node_budget": node_budget,
              "subset_budget": subset_budget}
    for name, value in (counts | optional).items():
        if not (is_int(value) or value is None and name in optional):
            raise ParameterError(f"{name} must be an int, got {value!r}")
        if name in counts and value < 1:
            raise ParameterError(f"{name} must be at least 1, got {value}")
    if space.dimension < 1:
        n, w = space.params.n, space.params.w
        raise ParameterError(f"eigenspace of J({n},{w}) at index {space.i} is empty")


def _normal(values) -> tuple[int, ...]:
    """The vector divided by its gcd, first nonzero entry positive."""
    g = math.gcd(*values)
    if next(filter(None, values)) < 0:
        g = -g
    if g == 1:
        return tuple(values)
    return tuple(map(neg, values)) if g == -1 else tuple(x // g for x in values)


def _project(cols: list[list[int]], r: int, stats: SearchStats) -> list[list[int]] | None:
    """The projected columns once row r is forced to zero; None if r is dependent.

    The first column j0 nonzero at r is dropped, and every other column
    nonzero at r is combined with it (combine). These are the value vectors
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
            out.append(combine(col, pivot, r))
    return out


def _settle(
    col: list[int], start: int, cols: list[list[int]], leads: list[int], stats: SearchStats,
    memo: dict,
) -> None:
    """Insert col into the staircase cols, sorted by their distinct leads.

    The lead of col is its first nonzero row from start on, or N if it has
    none. While that row is the lead of a column of cols, col is combined
    with that column (combine), so that it vanishes there and its lead moves
    down. Then it goes in at its lead. The span is unchanged.

    Every such step counts one elimination, and memo recalls the steps made
    before: it maps (id(col), id(pivot), r) to (col, pivot, result, next),
    where next is the result's first nonzero row after r. Columns are never
    mutated once built, so a step is decided by the identity of its operands,
    and an entry holds both operands, so their ids are not reused while its
    key exists. The memo is cleared when it holds _MEMO_CAP entries.
    """
    nverts = len(col)
    r = start
    while r < nverts and not col[r]:
        r += 1
    while True:
        j = bisect_left(leads, r)
        if r == nverts or j == len(leads) or leads[j] != r:
            break
        stats.eliminations += 1
        pivot = cols[j]
        key = (id(col), id(pivot), r)
        step = memo.get(key)
        if step is None:
            new = combine(col, pivot, r)
            nxt = r + 1
            while nxt < nverts and not new[nxt]:
                nxt += 1
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = col, pivot, new, nxt
            col, r = new, nxt
        else:
            col, r = step[2], step[3]
    cols.insert(j, col)
    leads.insert(j, r)


class _WitnessPool:
    """Distinct minimum-support value vectors, deduplicated up to scalar.

    Both searches run on the basis scaled by the lcm of all its
    denominators, a positive scaling that changes no zero test, and offer
    the value vectors of their candidates on its rows. columns holds its
    columns and echelon their reduced_echelon, the bnb's start; its length,
    the rank, must be full (the lemma in the module docstring needs it too),
    and ParameterError is raised otherwise. A vector is kept divided by its
    gcd with a positive value at the lowest-rank support vertex, so two offers of the same member up to
    scalar are kept once. As c -> basis @ c is injective, these keys
    correspond one to one with the candidates' kernel normals.
    """

    def __init__(self, basis, cap: int, stats: SearchStats):
        self.columns = [list(col) for col in zip(*basis.integer_rows())]
        self.echelon = reduced_echelon(self.columns)
        if len(self.echelon) < basis.cols:
            raise ParameterError(f"basis has rank {len(self.echelon)}, below its {basis.cols} columns")
        self.cap = cap
        self.stats = stats
        self.best: int | None = None
        # the normalized value vectors at the best support so far
        self.vectors: set[tuple[int, ...]] = set()

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
        SparseFunction._from_sums(params, dict(zip(verts, vals)))
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
    step does arithmetic. The columns start as the reduced echelon of the
    basis columns, sorted by pivot and each zero at every other pivot: a
    staircase from row 0. So a path holds at most d + f live columns: the d
    starting ones and one new column per row it frees, with f <= limit <=
    N + 1 frees. A forced child shares the parent's lists and starts one
    column further on; only a settle copies them.

    The same column meets the same pivot at the same row on many paths: on
    J(8,2) i=2 the 13,715 elimination steps have 2,384 distinct operands. So
    the settles of one call share one memo that recalls a step by the
    identity of its two columns and its row (_settle). That is safe, as no
    column is mutated once built and an entry keeps its operands alive. The
    memo is cleared at _MEMO_CAP = 512 entries, so it holds at most 512
    columns of N integers whatever the node budget, and it still recalls 75%
    of the steps on J(8,2) i=2 (77% with no cap) and 76% on J(7,3) i=3
    (81%). stats.eliminations counts every step, computed or recalled. The
    memo lives only for the call: visit's reference to itself is broken
    before the return, so the memo, the columns and the pool are freed
    then, not at the next cyclic collection.

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
    search on any other basis of each kernel, such as _project's. So do the
    steps: the reduced echelon is unique up to the sign and scale of each
    row and combine divides out the content of what it returns, so every
    counter depends only on the eigenspace, not on the basis given.

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
    _check_searchable(space, witness_cap, node_budget=node_budget, upper_bound_hint=upper_bound_hint)
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
            _settle(head, k, cols, leads, stats, memo)
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

    leads, cols = map(list, zip(*pool.echelon))
    memo: dict = {}
    visit(0, [], cols, leads, 0)
    del visit  # visit refers to itself; breaking the cycle frees the memo, columns and pool on return
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
    _check_searchable(space, witness_cap, workers, subset_budget=subset_budget)
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
    _hyperplane_scan(pool.columns, pool)
    return _report(space, pool, stats, t0, True, "hyperplane")


def _hyperplane_scan(cols: list[list[int]], pool) -> None:
    """Walk every (d-1)-subset of the N rows of the d >= 2 columns in lexicographic order.

    Depth first over prefixes: each step forces the next row r (_project) and
    recurses on the rows after r that leave room for the rest of the subset.
    A dependent row ends its whole branch, so no subset under a dependent
    prefix is visited; all C(N, d-1) subsets are covered, and counted in
    pool.stats up front. With two columns c0, c1 left, the last row r is
    handled in place, as _project would: it is dependent where both are
    zero, leaves c1 where only c0 is nonzero and c0 where only c1 is, and
    else one combination of c1 with c0. The one column left is measured, and
    pool is offered the (support, values) of each subset that ties or beats
    the best so far. The recursion depth is d-2.
    """
    nverts, d = len(cols[0]), len(cols)
    stats = pool.stats
    stats.subsets += math.comb(nverts, d - 1)
    best = nverts

    def walk(start: int, cols: list[list[int]]) -> None:
        nonlocal best
        if len(cols) == 2:
            c0, c1 = cols
            zeros0, zeros1 = c0.count(0), c1.count(0)
            for r in range(start, nverts):
                if not c0[r]:
                    if not c1[r]:
                        continue
                    values, zeros = c0, zeros0
                elif not c1[r]:
                    values, zeros = c1, zeros1
                else:
                    stats.eliminations += 1
                    values = combine(c1, c0, r)
                    zeros = values.count(0)
                support = nverts - zeros
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
    del walk  # walk refers to itself; breaking the cycle frees the columns on return


def verify_bound(
    params: JohnsonParams,
    i: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> SearchReport:
    """Run both oracles where applicable, cross-check them, and compare to the bound.

    The arguments and an empty space are checked first. A nonzero bound is
    the bnb's starting limit, as the support of the canonical function of
    default_pairing(i): it is nonzero exactly when i <= min(w, n-w), where
    eigenspace_basis has built and eigen-checked that function (shape j = i,
    second row 1, 3, ..., 2i-1). Where the scan runs too, it confirms: a
    proven bnb must equal its minimum and keeps its own witnesses, as it
    offers every minimum-support member; an exhausted bnb takes the scan's
    value and witnesses unless it found a smaller value itself. Any other
    difference raises OracleDisagreementError. attained_by_canonical records
    whether at least one reported witness is a scalar multiple of a
    canonical function, all_witnesses_canonical whether every one is; a
    match has the bound's support, so it implies that the minimum equals
    the bound. Both stay None if optimality was not proven. Both oracles run
    in turn in the calling process, so every counter in stats is deterministic.
    """
    space = eigenspace_basis(params, i)
    _check_searchable(space, witness_cap, node_budget=node_budget, subset_budget=subset_budget)
    bound = support_size_bound(params.n, params.w, i)
    report = min_support_bnb(space, node_budget, witness_cap, upper_bound_hint=bound or None)
    algorithm = "bnb"
    min_support = report.min_support
    witnesses = report.witnesses
    if space.dimension >= 2 and math.comb(space.basis.rows, space.dimension - 1) <= subset_budget:
        hyper = min_support_hyperplane(space, subset_budget, witness_cap)
        algorithm = "bnb+hyperplane"
        for name in SearchStats.__slots__:
            setattr(report.stats, name, getattr(report.stats, name) + getattr(hyper.stats, name))
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

    attained = all_canonical = None
    if report.proven_optimal:
        matches = [match_canonical(w, i) is not None for w in witnesses]
        attained = any(matches)
        all_canonical = bool(matches) and all(matches)
    return report._replace(
        min_support=min_support,
        witnesses=witnesses,
        attained_by_canonical=attained,
        algorithm=algorithm,
        all_witnesses_canonical=all_canonical,
    )
