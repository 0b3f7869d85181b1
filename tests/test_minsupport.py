"""Minimum-support search: oracle agreement, witness soundness, budgets."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from johnson_eigen import (
    JohnsonParams,
    OracleDisagreementError,
    ParameterError,
    SizeBudgetError,
    SparseFunction,
    binomial,
    build_canonical,
    default_pairing,
    eigenspace_basis,
    eigenvalue,
    is_eigenfunction,
    match_canonical,
    rank_subset,
    min_support_bnb,
    min_support_hyperplane,
    support_size_bound,
    verify_bound,
)
from johnson_eigen import minsupport
from johnson_eigen.exact_linalg import ExactMatrix, nullspace
from johnson_eigen.minsupport import (
    SearchStats,
    _WitnessPool,
    _combine,
    _hyperplane_scan,
    _normal,
    _project,
    _settle,
)
from johnson_eigen.spectral import EigenspaceBasis

from conftest import (
    ReferenceWitnessPool,
    exhaustive_min_support,
    oracle_rank,
    reference_hyperplane_scan,
    reference_min_support_bnb,
    reference_normal,
    reference_values,
)

SMALL_INSTANCES = [
    (n, w, i)
    for n in range(1, 7)
    for w in range(0, n + 1)
    if binomial(n, w) <= 15
    for i in range(0, w + 1)
    if binomial(n, i) - binomial(n, i - 1) > 0 and i <= n - w
]


def test_small_instance_list_is_nontrivial():
    assert (6, 2, 2) in SMALL_INSTANCES
    assert (5, 2, 1) in SMALL_INSTANCES
    assert len(SMALL_INSTANCES) > 25


@pytest.mark.parametrize("n,w,i", SMALL_INSTANCES)
def test_bnb_equals_exhaustive_enumeration(n, w, i):
    space = eigenspace_basis(JohnsonParams(n, w), i)
    report = min_support_bnb(space)
    assert report.proven_optimal
    assert report.min_support == exhaustive_min_support(space)
    _assert_zero_sets_have_rank_d_minus_one(space, report.witnesses)


def _assert_zero_sets_have_rank_d_minus_one(space, witnesses):
    # minimum-support members are elementary vectors: their zero sets have rank d-1
    assert witnesses
    verts = list(space.params.vertices())
    for w_fn in witnesses:
        zero_rows = [space.basis.row(r) for r, x in enumerate(verts) if x not in w_fn.entries]
        assert oracle_rank(zero_rows) == space.dimension - 1


@pytest.mark.parametrize("n,w,i", [c for c in SMALL_INSTANCES if c[0] >= 4])
def test_oracles_agree_where_both_run(n, w, i):
    space = eigenspace_basis(JohnsonParams(n, w), i)
    report = min_support_bnb(space)
    if space.dimension >= 2 and math.comb(space.basis.rows, space.dimension - 1) <= 100_000:
        hyper = min_support_hyperplane(space)
        assert hyper.min_support == report.min_support
        for w_fn in hyper.witnesses:
            v = is_eigenfunction(w_fn, space.lam)
            assert v.holds and not v.is_zero
            assert w_fn.support_size == report.min_support


def test_witness_soundness_and_normalization():
    space = eigenspace_basis(JohnsonParams(6, 3), 3)
    report = min_support_bnb(space)
    assert report.min_support == 8
    assert report.witnesses
    for w_fn in report.witnesses:
        v = is_eigenfunction(w_fn, space.lam)
        assert v.holds and not v.is_zero
        assert w_fn.support_size == 8
        vals = list(w_fn.entries.values())
        assert all(x.denominator == 1 for x in vals)
        assert math.gcd(*(abs(x.numerator) for x in vals)) == 1
        lead = w_fn.entries[w_fn.support[0]]
        assert lead > 0


def test_min_support_upper_bounded_by_canonical():
    for n, w, i in SMALL_INSTANCES:
        if support_size_bound(n, w, i) == 0:
            continue
        space = eigenspace_basis(JohnsonParams(n, w), i)
        report = min_support_bnb(space)
        assert report.min_support <= support_size_bound(n, w, i)


def test_hyperplane_rejects_degenerate_dimension():
    space = eigenspace_basis(JohnsonParams(5, 2), 0)
    assert space.dimension == 1
    with pytest.raises(ParameterError):
        min_support_hyperplane(space)


def test_hyperplane_subset_budget():
    space = eigenspace_basis(JohnsonParams(6, 3), 2)  # C(20, 8) subsets is enormous
    with pytest.raises(SizeBudgetError):
        min_support_hyperplane(space, subset_budget=1000)


def test_bnb_budget_exhaustion_flagged():
    space = eigenspace_basis(JohnsonParams(6, 2), 1)
    report = min_support_bnb(space, node_budget=10)
    assert not report.proven_optimal
    full = min_support_bnb(space)
    assert full.proven_optimal
    if report.min_support is not None:
        assert report.min_support >= full.min_support


@pytest.mark.parametrize("column", ["zero", "repeated"])
def test_searches_reject_basis_without_full_column_rank(column):
    space = eigenspace_basis(JohnsonParams(5, 2), 1)
    rows = space.basis.row_lists()
    basis = ExactMatrix.from_rows([row + [0 if column == "zero" else row[0]] for row in rows])
    bad = EigenspaceBasis(space.params, space.i, space.lam, basis)
    with pytest.raises(ParameterError, match="rank 4, below its 5 columns"):
        min_support_bnb(bad)
    with pytest.raises(ParameterError, match="rank 4, below its 5 columns"):
        min_support_hyperplane(bad)


@pytest.mark.parametrize("search", [min_support_bnb, min_support_hyperplane])
def test_searches_reject_basis_without_one_row_per_vertex(search):
    # 8 rows for the 6 vertices of J(4,2) used to give min support 2 with a witness of support 1
    rows = ExactMatrix.from_rows([[1], [0], [0], [0], [0], [0], [0], [1]])
    with pytest.raises(ParameterError, match="basis has 8 rows for 6 vertices"):
        search(EigenspaceBasis(JohnsonParams(4, 2), 1, 0, rows))


@pytest.mark.parametrize("budget", [0, -5])
def test_node_budget_below_one_rejected(budget):
    # it used to end in an unproven report with no minimum, or the scan's value as unproven
    message = f"^node_budget must be at least 1, got {budget}$"
    with pytest.raises(ParameterError, match=message):
        min_support_bnb(eigenspace_basis(JohnsonParams(5, 2), 2), node_budget=budget)
    with pytest.raises(ParameterError, match=message):
        verify_bound(JohnsonParams(5, 2), 2, node_budget=budget)


def test_node_budget_of_one_gives_an_unproven_report():
    report = min_support_bnb(eigenspace_basis(JohnsonParams(5, 2), 2), node_budget=1)
    assert not report.proven_optimal and report.min_support is None
    report = verify_bound(JohnsonParams(5, 2), 2, node_budget=1)
    assert not report.proven_optimal
    assert (report.algorithm, report.min_support) == ("bnb+hyperplane", 4)


def test_dimension_one_searchable_by_bnb():
    space = eigenspace_basis(JohnsonParams(4, 2), 0)
    report = min_support_bnb(space)
    assert report.min_support == 6  # constants are supported everywhere


def test_empty_eigenspace_rejected():
    space = eigenspace_basis(JohnsonParams(4, 3), 2)
    assert space.dimension == 0
    message = r"^eigenspace of J\(4,3\) at index 2 is empty$"
    with pytest.raises(ParameterError, match=message):
        min_support_bnb(space)
    with pytest.raises(ParameterError, match=message):
        min_support_hyperplane(space)
    with pytest.raises(ParameterError, match=message):
        verify_bound(JohnsonParams(4, 3), 2)


@pytest.mark.parametrize("hint", [3, 0])
def test_bnb_hint_below_the_minimum_rejected(hint):
    # the minimum is 4; a lower hint prunes every member, which is no proof of anything
    space = eigenspace_basis(JohnsonParams(5, 2), 2)
    with pytest.raises(ParameterError, match=f"upper_bound_hint {hint} is below the minimum"):
        min_support_bnb(space, upper_bound_hint=hint)


def test_bnb_hint_at_the_minimum_still_finds_it():
    report = min_support_bnb(eigenspace_basis(JohnsonParams(5, 2), 2), upper_bound_hint=4)
    assert report.proven_optimal
    assert report.min_support == 4 and report.witnesses


def test_verify_bound_example_j52():
    report = verify_bound(JohnsonParams(5, 2), 1)
    assert report.min_support == 6
    assert report.bound == 6
    assert report.algorithm == "bnb+hyperplane"
    assert report.proven_optimal
    assert report.attained_by_canonical is True
    # support-6 eigenfunctions that are not canonical exist at n=5
    assert report.all_witnesses_canonical is False
    assert any(match_canonical(w, 1) is None for w in report.witnesses)


def test_verify_bound_min_eigenvalue_case():
    report = verify_bound(JohnsonParams(5, 2), 2)
    assert report.min_support == 4 == report.bound
    assert report.attained_by_canonical is True
    assert report.all_witnesses_canonical is True
    for w_fn in report.witnesses:
        m = match_canonical(w_fn, 2)
        assert m is not None


def test_verify_bound_bound_can_fail_below_threshold():
    # the asymptotic bound does not hold yet at J(6,2), index 1
    report = verify_bound(JohnsonParams(6, 2), 1)
    assert report.proven_optimal
    assert report.min_support == 6 < report.bound == 8
    assert report.attained_by_canonical is False


# the witnesses of the scan on J(5,2) i=1, as (rank, value) pairs in report order
ADOPTED_WITNESSES = [
    [(3, 1), (4, 1), (5, 1), (6, -1), (7, -1), (8, -1)],
    [(2, 2), (3, -2), (6, -1), (7, 1), (8, 1), (9, -1)],
    [(2, 2), (3, -1), (4, 1), (5, 1), (6, -2), (9, -1)],
    [(1, 1), (2, -1), (4, -2), (5, -1), (6, 2), (8, 1)],
    [(1, 1), (2, -1), (3, 1), (4, -1), (6, 1), (7, -1)],
    [(1, 1), (2, -1), (3, 2), (5, 1), (7, -2), (8, -1)],
    [(1, 1), (2, 1), (3, -1), (4, -1), (8, 1), (9, -1)],
    [(1, 1), (2, 1), (5, 1), (6, -1), (7, -1), (9, -1)],
    [(1, 2), (4, -2), (6, 1), (7, -1), (8, 1), (9, -1)],
    [(1, 2), (3, 1), (4, -1), (5, 1), (7, -2), (9, -1)],
    [(0, 1), (1, -1), (3, -1), (5, -2), (6, 1), (7, 2)],
    [(0, 1), (1, -1), (4, 1), (5, -1), (7, 1), (8, -1)],
    [(0, 1), (1, -1), (3, 1), (4, 2), (6, -1), (8, -2)],
    [(0, 1), (2, -1), (4, -1), (5, -2), (6, 2), (7, 1)],
    [(0, 1), (2, -1), (3, 1), (5, -1), (6, 1), (8, -1)],
    [(0, 1), (2, -1), (3, 2), (4, 1), (7, -1), (8, -2)],
]


@pytest.mark.parametrize("budget,offered,valued", [
    (1, 100, 25), (50, 108, 33), (100, 114, 39), (150, 121, 46), (200, 124, 49),
])
def test_verify_bound_exhausted_bnb_adopts_hyperplane_value(budget, offered, valued):
    # these budgets starve the branch and bound (239 nodes); the completed
    # hyperplane scan supplies the (unproven) value and all of the witnesses,
    # whatever the branch and bound found before it stopped
    report = verify_bound(JohnsonParams(5, 2), 1, node_budget=budget)
    assert not report.proven_optimal
    assert report.algorithm == "bnb+hyperplane"
    assert report.min_support == 6
    assert report.attained_by_canonical is None
    assert (report.stats.offered, report.stats.valued) == (offered, valued)
    assert [
        [(rank_subset(x), f.entries[x]) for x in f.support] for f in report.witnesses
    ] == ADOPTED_WITNESSES
    for w_fn in report.witnesses:
        assert is_eigenfunction(w_fn, report.lam).holds


@pytest.mark.parametrize("node_budget,scan_shift", [(4, 1), (None, -1)])
def test_verify_bound_raises_when_the_oracles_disagree(monkeypatch, node_budget, scan_shift):
    # an exhausted bnb below the complete scan, or a proven bnb off it, is a contradiction
    real = minsupport.min_support_hyperplane

    def shifted(*args, **kwargs):
        report = real(*args, **kwargs)
        return replace(report, min_support=report.min_support + scan_shift)

    monkeypatch.setattr(minsupport, "min_support_hyperplane", shifted)
    budget = {} if node_budget is None else {"node_budget": node_budget}
    bnb = min_support_bnb(eigenspace_basis(JohnsonParams(5, 2), 1), upper_bound_hint=6, **budget)
    assert bnb.min_support == 6 and bnb.proven_optimal == (node_budget is None)
    with pytest.raises(OracleDisagreementError, match="bnb found 6 but hyperplane found"):
        verify_bound(JohnsonParams(5, 2), 1, **budget)


def test_search_stats_populated():
    space = eigenspace_basis(JohnsonParams(5, 2), 1)
    report = min_support_bnb(space)
    assert report.stats.nodes > 0
    hyper = min_support_hyperplane(space)
    assert hyper.stats.subsets == math.comb(10, 3)
    assert hyper.stats.eliminations == 88


def test_verify_bound_node_count_pinned():
    # a change in the search order or the pruning must show here on purpose
    report = verify_bound(JohnsonParams(8, 2), 2)
    assert report.stats.nodes == 97_257
    assert report.min_support == 4
    # the bnb alone runs here: cross-multiplications of its staircase columns
    assert report.stats.eliminations == 29_954


@pytest.mark.parametrize("n,w,i,pinned", [
    (7, 2, 1, SearchStats(subsets=20_349, offered=7_287, valued=21, eliminations=9_958)),
    (6, 3, 1, SearchStats(subsets=4_845, offered=2_881, valued=16, eliminations=1_260)),
])
def test_hyperplane_counters_do_not_depend_on_workers(n, w, i, pinned):
    space = eigenspace_basis(JohnsonParams(n, w), i)
    for k in (1, 2, 4):
        assert replace(min_support_hyperplane(space, workers=k).stats, elapsed=0) == pinned


def test_j82_i1_meets_the_bound_with_a_non_canonical_function():
    params = JohnsonParams(8, 2)
    # the bound is the proven minimum, by the branch and bound alone
    report = verify_bound(params, 1)
    assert (report.min_support, report.bound, report.proven_optimal) == (12, 12, True)
    assert report.stats.nodes == 120_215
    # the scan is skipped: C(28,6) subsets are over its budget
    assert report.algorithm == "bnb" and report.stats.subsets == 0
    assert math.comb(28, 6) == 376_740 > minsupport.DEFAULT_SUBSET_BUDGET
    # f({a,b}) = (g(a)+g(b))/2 meets the bound and is no multiple of a canonical function
    g = [-1, 1, 1, -1, -1, -1, 1, 1]
    f = SparseFunction(params, {
        (1 << a) | (1 << b): Fraction(g[a] + g[b], 2)
        for a in range(8) for b in range(a + 1, 8) if g[a] == g[b]
    })
    assert f.support_size == 12
    assert is_eigenfunction(f, eigenvalue(params, 1)).holds
    assert match_canonical(f, 1) is None
    assert [match_canonical(w_fn, 1) is None for w_fn in report.witnesses].count(True) == 6


def test_hyperplane_rejects_nonpositive_workers():
    space = eigenspace_basis(JohnsonParams(5, 2), 1)
    for workers in (0, -3):
        with pytest.raises(ParameterError):
            min_support_hyperplane(space, workers=workers)


def test_witness_cap_below_one_rejected():
    space = eigenspace_basis(JohnsonParams(5, 2), 2)
    for cap in (0, -2):
        with pytest.raises(ParameterError):
            min_support_bnb(space, witness_cap=cap)
        with pytest.raises(ParameterError):
            min_support_hyperplane(space, witness_cap=cap)
        with pytest.raises(ParameterError):
            verify_bound(JohnsonParams(5, 2), 2, witness_cap=cap)


def test_pool_counters_pinned():
    # offers from both oracles, and the distinct kernel normals among them that were valued
    report = verify_bound(JohnsonParams(6, 3), 1)
    assert (report.stats.offered, report.stats.valued) == (2_897, 32)
    report = verify_bound(JohnsonParams(8, 2), 2)
    assert (report.stats.offered, report.stats.valued) == (210, 64)


@st.composite
def _pool_cases(draw):
    d = draw(st.integers(1, 4))
    nrows = draw(st.integers(d, 8))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=nrows, max_size=nrows))
    assume(oracle_rank(rows) == d)
    vector = st.lists(st.integers(-5, 5), min_size=d, max_size=d).filter(any)
    normals = draw(st.lists(vector, min_size=1, max_size=6))
    # each offer is a scaled, possibly negated, copy of one of a few vectors
    offer = st.tuples(st.integers(0, 4), st.sampled_from(normals), st.integers(-3, 3).filter(bool))
    stream = [(support, tuple(k * x for x in c)) for support, c, k in draw(st.lists(offer, max_size=40))]
    return ExactMatrix.from_rows(rows), stream, draw(st.integers(1, 20))


@settings(max_examples=300, deadline=None)
@given(_pool_cases())
def test_integer_pool_matches_fraction_valuation(case):
    # the searches offer value vectors on the lcm-scaled rows; the reference
    # normalizes the same members' value vectors on the basis, over Fractions
    basis, stream, cap = case
    stats, ref_stats = SearchStats(), SearchStats()
    pool = _WitnessPool(basis, cap, stats)
    ref = ReferenceWitnessPool(cap, ref_stats)
    fraction_rows = basis.row_lists()
    for support, coeff in stream:
        pool.offer(support, [sum(x * c for x, c in zip(row, coeff)) for row in pool.rows])
        ref.offer(support, reference_values(fraction_rows, coeff))
    assert pool.best == ref.best
    assert [tuple(Fraction(x) for x in v) for v in pool.final_vectors()] == ref.final_vectors()
    assert (stats.offered, stats.valued) == (ref_stats.offered, ref_stats.valued)
    assert stats.offered == len(stream)


def _reference_scan(cols, pool):
    # the elimination-driven scan on the same rows, its kernel vectors valued over Fractions
    rows = list(zip(*cols))
    done, found = reference_hyperplane_scan(rows, len(rows), len(cols))
    pool.stats.subsets += done
    for support, c in found:
        pool.offer(support, [int(x) for x in reference_normal(reference_values(rows, c))])


@pytest.mark.parametrize("n,w,i", [(5, 2, 2), (6, 3, 1)])
def test_verify_bound_witnesses_match_fraction_pool(monkeypatch, n, w, i):
    new = verify_bound(JohnsonParams(n, w), i)
    monkeypatch.setattr(minsupport, "min_support_bnb", reference_min_support_bnb)
    monkeypatch.setattr(minsupport, "_hyperplane_scan", _reference_scan)
    old = verify_bound(JohnsonParams(n, w), i)
    entries = [sorted(w_fn.entries.items()) for w_fn in old.witnesses]
    assert entries
    assert [sorted(w_fn.entries.items()) for w_fn in new.witnesses] == entries
    assert (new.min_support, new.attained_by_canonical, new.all_witnesses_canonical) == (
        old.min_support, old.attained_by_canonical, old.all_witnesses_canonical
    )
    # the reference engines count no eliminations: compare every other counter
    assert replace(new.stats, elapsed=0, eliminations=0) == replace(old.stats, elapsed=0)


def _bnb_outcome(report):
    stats = report.stats
    witnesses = [sorted(w_fn.entries.items()) for w_fn in report.witnesses]
    return stats.nodes, report.min_support, report.proven_optimal, stats.offered, stats.valued, witnesses


def _dimension(n, i):
    return binomial(n, i) - binomial(n, i - 1)


# every cell of at most 28 vertices with a nonempty eigenspace
REFERENCE_CELLS = [
    (n, w, i)
    for n in range(1, 29)
    for w in range(0, n + 1)
    if binomial(n, w) <= 28
    for i in range(0, min(w, n - w) + 1)
    if _dimension(n, i) > 0
]


def _scanned_cells():
    """Every cell with n <= 7 that verify_bound confirms by the scan."""
    cells = []
    for n in range(1, 8):
        for w in range(n + 1):
            for i in range(min(w, n - w) + 1):
                d = _dimension(n, i)
                if d >= 2 and math.comb(binomial(n, w), d - 1) <= minsupport.DEFAULT_SUBSET_BUDGET:
                    cells.append((n, w, i))
    return cells


@pytest.mark.parametrize("n,w,i", _scanned_cells())
def test_verify_bound_keeps_the_proven_bnb_witnesses(n, w, i):
    # a proven bnb offers every minimum-support member: it reports cap
    # witnesses, or every one there is, so the scan, which only confirms the
    # minimum, has no witness to add
    space = eigenspace_basis(JohnsonParams(n, w), i)
    for cap in (1, 2, 16):
        report = verify_bound(JohnsonParams(n, w), i, witness_cap=cap)
        assert report.proven_optimal and report.algorithm == "bnb+hyperplane"
        bnb = min_support_bnb(space, witness_cap=cap).witnesses
        assert report.witnesses == bnb
        scan = min_support_hyperplane(space, witness_cap=cap).witnesses
        assert len(bnb) == cap or all(w_fn in bnb for w_fn in scan)


@pytest.mark.parametrize("n,w,i", REFERENCE_CELLS)
def test_bnb_matches_the_elimination_reference(n, w, i):
    space = eigenspace_basis(JohnsonParams(n, w), i)
    assert _bnb_outcome(min_support_bnb(space)) == _bnb_outcome(reference_min_support_bnb(space))


class _OfferLog:
    """Stands in for the witness pool: records every offer in order."""

    def __init__(self):
        self.stats = SearchStats()
        self.offers = []

    def offer(self, support, values):
        self.offers.append((support, values))


def _assert_scan_matches_reference(rows, nverts, d):
    log = _OfferLog()
    _hyperplane_scan([list(col) for col in zip(*rows)], log)
    ref_done, ref_found = reference_hyperplane_scan(rows, nverts, d)
    assert log.stats.subsets == ref_done == math.comb(nverts, d - 1)
    # the reference yields kernel vectors, the scan value vectors: compare normal value vectors
    assert [(support, _normal(values)) for support, values in log.offers] == [
        (support, _normal([sum(x * y for x, y in zip(row, c)) for row in rows]))
        for support, c in ref_found
    ]


@pytest.mark.parametrize("n,w,i", [
    (n, w, i) for n, w, i in REFERENCE_CELLS
    if _dimension(n, i) >= 2 and math.comb(binomial(n, w), _dimension(n, i) - 1) <= 5000
])
def test_hyperplane_scan_matches_the_elimination_reference(n, w, i):
    basis = eigenspace_basis(JohnsonParams(n, w), i).basis
    _assert_scan_matches_reference(basis.integer_rows(), basis.rows, basis.cols)


def _generator_normal(values):
    # _normal as a generator over every entry, with no gcd-1 shortcut
    g = math.gcd(*values)
    if next(x for x in values if x) < 0:
        g = -g
    return tuple(x // g for x in values)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=12).filter(any),
    st.sampled_from([1, -1, 2, -2, 3, -6, 35]),
)
def test_normal_matches_the_generator_form(base, scale):
    # scaled copies cover a negative lead and a gcd above 1
    values = [scale * x for x in base]
    assert _normal(values) == _generator_normal(values)
    assert type(_normal(values)) is tuple


_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(10**20), 10**20))


@st.composite
def _column_pairs(draw):
    size = draw(st.integers(1, 12))
    col = draw(st.lists(_ENTRIES, min_size=size, max_size=size))
    pivot = draw(st.lists(_ENTRIES, min_size=size, max_size=size))
    if draw(st.booleans()):
        # equal or opposite entries at some rows: the unit-multiplier combines
        pivot = [draw(st.sampled_from([x, -x, y])) for x, y in zip(col, pivot)]
    return col, pivot


@settings(max_examples=400, deadline=None)
@given(_column_pairs())
def test_combine_is_the_cross_multiplication_divided_by_its_gcd(case):
    col, pivot = case
    for r in range(len(col)):
        if not (col[r] and pivot[r]):
            continue
        g0 = math.gcd(pivot[r], col[r])
        p, q = pivot[r] // g0, col[r] // g0
        new = [p * x - q * y for x, y in zip(col, pivot)]
        g = math.gcd(*new)
        expected = [x // g for x in new] if g > 1 else new
        assert _combine(col, pivot, r) == expected


def _kernel_values(rows, forced):
    """The value vectors of a basis of the kernel of the forced rows."""
    if not forced:
        return [list(col) for col in zip(*rows)]
    kernel = nullspace(ExactMatrix.from_rows(forced))
    return [reference_values(rows, kernel.column(c)) for c in range(kernel.cols)]


@st.composite
def _projection_walks(draw):
    d = draw(st.integers(1, 5))
    nrows = draw(st.integers(d, 9))
    rows = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=nrows, max_size=nrows
    ))
    assume(oracle_rank(rows) == d)
    order = draw(st.lists(st.integers(0, nrows - 1), max_size=2 * nrows))
    return rows, order


@settings(max_examples=300, deadline=None)
@given(_projection_walks())
def test_projection_matches_rank_and_nullspace(case):
    # force rows one by one: "dependent" is the oracle's rank test, and the
    # columns always span the value vectors of the kernel of the forced rows
    rows, order = case
    d = len(rows[0])
    cols = [list(col) for col in zip(*rows)]
    forced: list[list[int]] = []
    for r in order:
        stats = SearchStats()
        projected = _project(cols, r, stats)
        assert (projected is None) == (oracle_rank(forced + [rows[r]]) == len(forced))
        if projected is None:
            continue
        # one cross-multiplication per column nonzero at r, the dropped one aside
        assert stats.eliminations == sum(1 for col in cols if col[r]) - 1
        forced.append(rows[r])
        cols = projected
        assert len(cols) == d - len(forced)
        kernel_values = _kernel_values(rows, forced)
        assert oracle_rank(cols) == oracle_rank(cols + kernel_values) == len(cols)
        if len(cols) == 1:
            # proportional to rows @ (the kernel vector)
            (col,), (values,) = cols, kernel_values
            assert reference_normal(col) == reference_normal(values)


def _assert_staircase(rows, cols, leads, k, forced):
    nverts, d = len(rows), len(rows[0])
    real = [lead for lead in leads if lead < nverts]
    assert leads == sorted(leads) and len(set(real)) == len(real)
    assert all(lead >= k for lead in leads)
    for col, lead in zip(cols, leads):
        # the lead is the first nonzero row from k on
        assert not any(col[k:lead]) and (lead == nverts or col[lead])
        assert all(col[r] == 0 for r in forced)
    forced_rows = [rows[r] for r in forced]
    rank = oracle_rank(forced_rows)
    assert oracle_rank(cols) == oracle_rank(cols + _kernel_values(rows, forced_rows)) == d - rank


@st.composite
def _staircase_walks(draw):
    d = draw(st.integers(1, 5))
    nrows = draw(st.integers(d, 10))
    rows = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=nrows, max_size=nrows
    ))
    assume(oracle_rank(rows) == d)
    return rows, draw(st.lists(st.booleans(), min_size=nrows, max_size=nrows))


@settings(max_examples=300, deadline=None)
@given(_staircase_walks())
def test_staircase_walk_keeps_its_invariant(case):
    # the bnb's steps on one path, forcing or freeing row k in turn: the
    # columns stay a staircase of the kernel of the forced rows
    rows, force = case
    d = len(rows[0])
    stats = SearchStats()
    cols: list[list[int]] = []
    leads: list[int] = []
    for col in zip(*rows):
        _settle(list(col), 0, cols, leads, stats)
    forced: list[int] = []
    _assert_staircase(rows, cols, leads, 0, forced)
    for k, force_k in enumerate(force):
        if len(cols) == 1:
            break  # the bnb measures its one column here
        forced_rows = [rows[r] for r in forced]
        dependent = leads[0] != k
        assert dependent == (oracle_rank(forced_rows + [rows[k]]) == oracle_rank(forced_rows))
        if force_k:
            forced.append(k)
            if not dependent:
                cols, leads = cols[1:], leads[1:]
        elif not dependent:
            head, cols, leads = cols[0], cols[1:], leads[1:]
            _settle(head, k + 1, cols, leads, stats)
        _assert_staircase(rows, cols, leads, k + 1, forced)


@st.composite
def _generic_subspaces(draw):
    # C(n,2) rows for n in 4..6, so the witnesses are functions on J(n,2)
    params = JohnsonParams(draw(st.sampled_from([4, 5, 6])), 2)
    d = draw(st.integers(1, 5))
    entry = st.integers(-2, 2)
    rows = draw(st.lists(
        st.lists(entry, min_size=d, max_size=d),
        min_size=params.num_vertices, max_size=params.num_vertices,
    ))
    assume(oracle_rank(rows) == d)
    # the search reads only the basis; index and eigenvalue are labels here
    return EigenspaceBasis(params, 1, 0, ExactMatrix.from_rows(rows))


@settings(max_examples=150, deadline=None)
@given(_generic_subspaces())
def test_searches_match_the_elimination_references_on_generic_subspaces(space):
    for hint in (None, space.basis.rows):
        assert _bnb_outcome(min_support_bnb(space, upper_bound_hint=hint)) == _bnb_outcome(
            reference_min_support_bnb(space, upper_bound_hint=hint)
        )
    if space.dimension >= 2:
        _assert_scan_matches_reference(space.basis.integer_rows(), space.basis.rows, space.dimension)


@settings(max_examples=100, deadline=None)
@given(_generic_subspaces())
def test_bnb_budget_exhaustion_matches_the_elimination_reference(space):
    # the same node count at the same point of the tree, and the same best-so-far
    for budget in (1, 2, 7, 50):
        assert _bnb_outcome(min_support_bnb(space, node_budget=budget)) == _bnb_outcome(
            reference_min_support_bnb(space, node_budget=budget)
        )


def test_bnb_budget_exhaustion_matches_the_elimination_reference_on_j73_i2():
    space = eigenspace_basis(JohnsonParams(7, 3), 2)
    report = min_support_bnb(space, node_budget=20_000)
    assert report.stats.nodes == 20_001 and not report.proven_optimal
    assert _bnb_outcome(report) == _bnb_outcome(reference_min_support_bnb(space, node_budget=20_000))


@pytest.mark.parametrize("n,w,i,nodes", [(5, 2, 1, 239), (5, 2, 2, 265)])
def test_bnb_matches_the_elimination_reference_at_every_node_budget(n, w, i, nodes):
    # a node whose free children are all pruned closes its chain of forced
    # rows at once: each budget must stop it where the reference stops
    params = JohnsonParams(n, w)
    space = eigenspace_basis(params, i)
    hint = build_canonical(params, default_pairing(i)).support_size
    for h in (None, hint):
        assert min_support_bnb(space, upper_bound_hint=h).stats.nodes == nodes
        for budget in range(1, nodes + 2):
            assert _bnb_outcome(
                min_support_bnb(space, node_budget=budget, upper_bound_hint=h)
            ) == _bnb_outcome(reference_min_support_bnb(space, node_budget=budget, upper_bound_hint=h))


@settings(max_examples=150, deadline=None)
@given(_generic_subspaces())
def test_searches_exact_on_generic_subspaces(space):
    # random matroids have many zero sets of rank below d-1, unlike eigenspaces
    expected = exhaustive_min_support(space)
    for hint in (None, space.basis.rows):
        report = min_support_bnb(space, upper_bound_hint=hint)
        assert report.proven_optimal
        assert report.min_support == expected
        _assert_zero_sets_have_rank_d_minus_one(space, report.witnesses)
    if space.dimension >= 2:
        hyper = min_support_hyperplane(space)
        assert hyper.min_support == expected
        _assert_zero_sets_have_rank_d_minus_one(space, hyper.witnesses)
