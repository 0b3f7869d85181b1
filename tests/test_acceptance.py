"""Acceptance suite: one test per criterion, all tolerances exact.

Each test prints a PASS line directly to the terminal when its criterion
holds; a failing criterion fails the test itself.

Note on criterion 1: lambda_i is an eigenvalue of J(n,w) exactly when
i <= m = min(w, n-w), with multiplicity C(n,i) - C(n,i-1). Past m the
closed form repeats values and the multiplicity formula can go negative,
and none of those values is an eigenvalue (J(2,2) index 1 gives -2, which
is not an eigenvalue of a one-vertex graph). spectral.eigenspace_dimension proves
this, and spectrum lists i = 0..m only. The test checks the identity on
i <= m, and on the full index range i <= w that the computed kernel
dimension equals the total multiplicity of the value among lambda_0..lambda_m,
which is 0 past m (see README, Guarantees and limits).
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

from johnson_eigen import (
    JohnsonParams,
    binomial,
    build_canonical,
    coordinate_partition,
    default_pairing,
    eigenspace_basis,
    eigenvalue,
    induce,
    induce_down_one,
    is_eigenfunction,
    match_canonical,
    min_support_bnb,
    min_support_hyperplane,
    rank_subset,
    reduce,
    spectrum,
    support_size_bound,
    unrank_subset,
    verify_bound,
)
from johnson_eigen.cli import run as cli_run
from johnson_eigen.fileformat import document_to_function, function_to_document

from conftest import (
    block_symmetrized_function,
    exhaustive_min_support,
    make_rng,
    random_member,
    random_sparse_function,
)

GOLDEN = Path(__file__).resolve().parent.parent / "results" / "min_support_table.json"


def announce(capsys, line: str) -> None:
    # bypass pytest capture so the line lands in the terminal / teed output
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_spectrum_dimensions(capsys):
    t0 = time.perf_counter()
    for n in range(1, 11):
        for w in range(0, n + 1):
            p = JohnsonParams(n, w)
            dim_of_lam = {}
            for i in range(w + 1):
                lam = eigenvalue(p, i)
                if lam not in dim_of_lam:
                    dim_of_lam[lam] = eigenspace_basis(p, i).dimension
            # Delsarte identity on its valid domain
            for i in range(min(w, n - w) + 1):
                assert dim_of_lam[eigenvalue(p, i)] == binomial(n, i) - binomial(n, i - 1), (n, w, i)
            # corrected full-range statement: computed dimension equals the
            # total true multiplicity of the eigenvalue value
            for i in range(w + 1):
                lam = eigenvalue(p, i)
                true_mult = sum(
                    binomial(n, j) - binomial(n, j - 1)
                    for j in range(min(w, n - w) + 1)
                    if eigenvalue(p, j) == lam
                )
                assert dim_of_lam[lam] == true_mult, (n, w, i)
            # the kernel dimensions decompose the whole space
            assert sum(dim_of_lam.values()) == binomial(n, w), (n, w)
            # formula multiplicities telescope to C(n,w) on the stated range
            assert sum(e.multiplicity for e in spectrum(p)) == binomial(n, w)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    announce(capsys, f"ACCEPTANCE 1 spectrum-dimensions: PASS ({elapsed:.1f}s; "
             "Delsarte identity on i<=n-w, corrected per-value check on all i)")


def test_criterion_2_canonical_eigenfunctions(capsys):
    t0 = time.perf_counter()
    cases = 0
    for n in range(1, 15):
        for w in range(0, min(n, 6) + 1):
            for i in range(0, w + 1):
                if n - 2 * i < 0 or w - i > n - 2 * i:
                    continue
                p = JohnsonParams(n, w)
                f = build_canonical(p, default_pairing(i))
                assert f.support_size == (1 << i) * binomial(n - 2 * i, w - i), (n, w, i)
                verdict = is_eigenfunction(f, eigenvalue(p, i))
                assert verdict.holds and not verdict.is_zero, (n, w, i)
                cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    announce(capsys, f"ACCEPTANCE 2 canonical-functions: PASS ({cases} cases, {elapsed:.1f}s)")


def test_criterion_3_induction_theorem(capsys):
    # item 1: eigenvalue shift for every basis column of every eigenspace
    checked = 0
    for n in range(1, 10):
        for i in range(0, n + 1):
            p = JohnsonParams(n, i)
            for e in spectrum(p):
                basis = eigenspace_basis(p, e.i)
                for c in range(basis.dimension):
                    f = basis.member([int(j == c) for j in range(basis.dimension)])
                    for w in range(i, n + 1):
                        g = induce(f, w)
                        shifted = e.lam + (w - i) * (n - i - w)
                        assert is_eigenfunction(g, shifted).holds, (n, i, e.i, w)
                        checked += 1
    # item 2, both directions, basis columns and 100 seeded combinations per instance
    rng = make_rng(2024)
    for n in range(1, 9):
        for w in range(1, n + 1):
            p = JohnsonParams(n, w)
            spaces = [(e.lam, eigenspace_basis(p, e.i)) for e in spectrum(p)]
            spaces = [(lam, b) for lam, b in spaces if b.dimension > 0]
            for lam, b in spaces:
                for c in range(b.dimension):
                    f = b.member([int(j == c) for j in range(b.dimension)])
                    assert induce_down_one(f).is_zero() == (lam == -w), (n, w, lam)
            for k in range(100):
                lam, b = spaces[k % len(spaces)]
                f = random_member(b, rng)
                assert induce_down_one(f).is_zero() == (lam == -w), (n, w, lam)
    # random non-eigenfunctions vanish only if they are (-w)-eigenfunctions
    tried = 0
    while tried < 100:
        n = rng.randint(2, 8)
        w = rng.randint(1, n)
        f = random_sparse_function(JohnsonParams(n, w), rng)
        if f.is_zero():
            continue
        if induce_down_one(f).is_zero():
            assert is_eigenfunction(f, -w).holds
        tried += 1
    announce(capsys, f"ACCEPTANCE 3 induction-theorem: PASS ({checked} induced columns)")


def test_criterion_4_canonical_induction_identity(capsys):
    cases = 0
    for n in range(1, 13):
        for i in range(0, 4):
            if n - 2 * i < 0:
                continue
            for w in range(i, min(n, i + (n - 2 * i)) + 1):
                pairing = default_pairing(i)
                low = build_canonical(JohnsonParams(n, i), pairing)
                assert induce(low, w) == build_canonical(JohnsonParams(n, w), pairing), (n, i, w)
                cases += 1
    announce(capsys, f"ACCEPTANCE 4 induce-identity: PASS ({cases} cases)")


def test_criterion_5_reduction_lemmas(capsys):
    # 200 seeded random eigenfunctions reduce to the next-lower spectral index
    rng = make_rng(5001)
    instances = []
    for n in range(3, 9):
        for w in range(1, n):
            p = JohnsonParams(n, w)
            for e in spectrum(p):
                if e.i >= 1 and eigenspace_basis(p, e.i).dimension >= 1:
                    instances.append((p, e.i))
    done = 0
    k = 0
    while done < 200:
        p, i = instances[k % len(instances)]
        k += 1
        f = random_member(eigenspace_basis(p, i), rng)
        j1, j2 = rng.sample(range(p.n), 2)
        g = reduce(f, j1, j2)
        lam_red = eigenvalue(JohnsonParams(p.n - 2, p.w - 1), i - 1)
        assert is_eigenfunction(g, lam_red).holds, (p, i, j1, j2)
        done += 1
    # zero-pair transitivity on all coordinate triples, 200 seeded functions
    rng2 = make_rng(5002)
    for trial in range(200):
        n = rng2.randint(3, 6)
        w = rng2.randint(1, n - 1)
        p = JohnsonParams(n, w)
        f = block_symmetrized_function(p, rng2) if trial % 2 else random_sparse_function(p, rng2)
        zp = {}
        for a in range(n):
            for b in range(a + 1, n):
                zp[a, b] = reduce(f, a, b).is_zero()
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    if zp[a, b] and zp[a, c]:
                        assert zp[b, c], (trial, n, w, a, b, c)
    # canonical partition shape: 2i singletons plus one (n-2i)-block
    for n in range(3, 13):
        for i in range(0, 4):
            if n <= 2 * i:
                continue
            for w in range(i, min(n, i + (n - 2 * i)) + 1):
                f = build_canonical(JohnsonParams(n, w), default_pairing(i))
                part = coordinate_partition(f)
                sizes = sorted(len(b) for b in part.blocks)
                if n - 2 * i >= 2:
                    assert sizes == [1] * (2 * i) + [n - 2 * i], (n, w, i)
                    assert part.t == 2 * i + 1
                else:
                    assert sizes == [1] * (2 * i + 1), (n, w, i)
    announce(capsys, "ACCEPTANCE 5 reduction-lemmas: PASS (200 + 200 seeded samples)")


def test_criterion_6_min_eigenvalue_oracle(capsys):
    for n, i in [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3)]:
        t0 = time.perf_counter()
        report = verify_bound(JohnsonParams(n, i), i)
        elapsed = time.perf_counter() - t0
        assert report.proven_optimal, (n, i)
        assert report.min_support == 2 ** i, (n, i, report.min_support)
        assert report.bound == 2 ** i
        assert report.witnesses, (n, i)
        for w_fn in report.witnesses:
            assert match_canonical(w_fn, i) is not None, (n, i)
        assert report.attained_by_canonical is True
        assert report.all_witnesses_canonical is True
        if (n, i) == (7, 3):
            assert report.stats.nodes == 1_310_759  # pinned search-tree size
            assert report.stats.eliminations == 231_631  # of the bnb's staircase columns
        assert elapsed < 600, (n, i, elapsed)
        announce(capsys, f"ACCEPTANCE 6 min-eigenvalue-oracle J({n},{i}) i={i}: PASS "
                 f"(min={report.min_support}, {elapsed:.1f}s, {report.algorithm})")


def test_criterion_7_bound_table_stable(capsys):
    assert GOLDEN.exists(), "golden table missing; regenerate per README"
    golden = json.loads(GOLDEN.read_text())
    by_key = {(row["n"], row["w"], row["i"]): row for row in golden["instances"]}
    assert set(by_key) == {(5, 2, 1), (6, 2, 1), (7, 2, 1), (6, 3, 1)}
    for (n, w, i), stored in by_key.items():
        params = JohnsonParams(n, w)
        report = verify_bound(params, i)
        assert report.proven_optimal
        assert report.algorithm == "bnb+hyperplane"  # both oracles ran and agreed
        assert report.bound == support_size_bound(n, w, i)
        fresh = {
            "n": n, "w": w, "i": i,
            "lambda": report.lam,
            "dim": eigenspace_basis(params, i).dimension,
            "algorithm": report.algorithm,
            "min_support": report.min_support,
            "bound": report.bound,
            "attained_by_canonical": report.attained_by_canonical,
            "all_witnesses_canonical": report.all_witnesses_canonical,
            "proven_optimal": True,
            "stats": {"nodes": report.stats.nodes, "subsets": report.stats.subsets},
            "witnesses": [
                [[rank_subset(x), str(w_fn.entries[x].numerator)
                  if w_fn.entries[x].denominator == 1
                  else f"{w_fn.entries[x].numerator}/{w_fn.entries[x].denominator}"]
                 for x in w_fn.support]
                for w_fn in report.witnesses
            ],
        }
        assert json.dumps(fresh, sort_keys=True) == json.dumps(stored, sort_keys=True), (n, w, i)
        announce(capsys, f"ACCEPTANCE 7 bound-table J({n},{w}) i={i}: PASS "
                 f"(min={report.min_support}, bound={report.bound}, "
                 f"attained={report.attained_by_canonical})")


def test_criterion_8_oracle_integrity(capsys):
    checked = 0
    for n in range(1, 7):
        for w in range(0, n + 1):
            p = JohnsonParams(n, w)
            if p.num_vertices > 15:
                continue
            for i in range(0, min(w, n - w) + 1):
                space = eigenspace_basis(p, i)
                if space.dimension == 0:
                    continue
                report = min_support_bnb(space)
                assert report.proven_optimal
                assert report.min_support == exhaustive_min_support(space), (n, w, i)
                if space.dimension >= 2 and math.comb(p.num_vertices, space.dimension - 1) <= 100_000:
                    hyper = min_support_hyperplane(space)
                    assert hyper.min_support == report.min_support, (n, w, i)
                    for w_fn in hyper.witnesses + report.witnesses:
                        v = is_eigenfunction(w_fn, space.lam)
                        assert v.holds and not v.is_zero
                        assert w_fn.support_size == report.min_support
                checked += 1
    announce(capsys, f"ACCEPTANCE 8 oracle-integrity: PASS ({checked} instances, N <= 15)")


def test_criterion_9_round_trips(tmp_path, capsys):
    # rank/unrank identity
    for n in range(0, 13):
        for w in range(0, n + 1):
            for r in range(binomial(n, w)):
                assert rank_subset(unrank_subset(r, n, w)) == r
    # function file round trip
    rng = make_rng(909)
    for _ in range(20):
        n = rng.randint(1, 10)
        w = rng.randint(0, n)
        f = random_sparse_function(JohnsonParams(n, w), rng)
        doc = function_to_document(f, lambda_index=None)
        g, _ = document_to_function(json.loads(json.dumps(doc)))
        assert g == f
    # --json byte stability across two runs, in-process and as subprocesses
    for argv in (
        ["spectrum", "--n", "7", "--w", "3", "--json"],
        ["minsupport", "--n", "5", "--w", "2", "--i", "2", "--algo", "both",
         "--threads", "1", "--json"],
    ):
        assert cli_run(argv) == 0
        out1 = capsys.readouterr().out
        assert cli_run(argv) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2 and out1
    cmd = [sys.executable, "-m", "johnson_eigen.cli", "minsupport", "--n", "6", "--w", "3",
           "--i", "3", "--algo", "both", "--threads", "1", "--json"]
    run1 = subprocess.run(cmd, capture_output=True, check=True)
    run2 = subprocess.run(cmd, capture_output=True, check=True)
    assert run1.stdout == run2.stdout
    announce(capsys, "ACCEPTANCE 9 round-trips: PASS")
