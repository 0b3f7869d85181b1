"""The result and parameter records: checked on every route in, immutable, and
built without code generation at import time."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from johnson_eigen import (
    CanonicalMatch,
    EigenspaceBasis,
    EigenvalueInfo,
    EigenVerdict,
    JohnsonParams,
    PairingConfig,
    ParameterError,
    PartitionResult,
    SearchReport,
    SearchStats,
    eigenspace_basis,
)
from johnson_eigen.exact_linalg import ExactMatrix

ROOT = Path(__file__).resolve().parents[1]

SPACE = eigenspace_basis(JohnsonParams(4, 2), 1)
ROWS_5 = ExactMatrix(5, 1, [1] * 5)


def _report(**stats):
    return SearchReport(JohnsonParams(4, 2), 1, 0, 4, [], 4, None, True, "bnb", **stats)


# each checked record: a valid instance, bad field values, and the fields to _replace
CHECKED = [
    (JohnsonParams(5, 2), (3, 7), {"w": 9}),
    (PairingConfig(((0, 1),)), (((0, 0),),), {"pairs": ((0, 0),)}),
    (SPACE, (SPACE.params, 1, 0, ROWS_5), {"basis": ROWS_5}),
]


@pytest.mark.parametrize("good,bad,change", CHECKED, ids=[type(c[0]).__name__ for c in CHECKED])
@pytest.mark.parametrize("route", ["positional", "keyword", "_replace", "_make"])
def test_checked_records_refuse_bad_values_on_every_route(good, bad, change, route):
    cls = type(good)
    build = {
        "positional": lambda: cls(*bad),
        "keyword": lambda: cls(**dict(zip(cls._fields, bad))),
        "_replace": lambda: good._replace(**change),
        "_make": lambda: cls._make(bad),
    }[route]
    with pytest.raises(ParameterError):
        build()
    # the same route takes the good values
    assert cls._make(good) == good._replace() == cls(*good) == good


@pytest.mark.parametrize("record", [
    JohnsonParams(5, 2),
    PairingConfig(((0, 1),)),
    SPACE,
    EigenvalueInfo(1, 1, 3),
    EigenVerdict(True, False),
    CanonicalMatch(PairingConfig(((0, 1),)), Fraction(1)),
    PartitionResult(((0, 1), (2,))),
    _report(),
], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_reports_without_stats_get_their_own():
    first, second = _report(), _report()
    assert first.stats == second.stats == SearchStats()
    assert first.stats is not second.stats
    first.stats.nodes += 1
    assert second.stats.nodes == 0
    stats = SearchStats(nodes=3)
    assert _report(stats=stats).stats is stats


def test_search_stats_compare_by_value():
    assert SearchStats(nodes=2, elapsed=0.5) == SearchStats(2, 0, 0.5)
    assert SearchStats(eliminations=1) != SearchStats()
    assert SearchStats() != (0, 0, 0.0, 0, 0, 0)
    assert repr(SearchStats(valued=4)) == (
        "SearchStats(nodes=0, subsets=0, elapsed=0.0, offered=0, valued=4, eliminations=0)"
    )
    with pytest.raises(AttributeError):
        SearchStats().extra = 1


def test_the_cli_imports_no_code_generation_modules():
    # dataclasses loaded inspect, ast, dis and tokenize: most of the package's import time
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, johnson_eigen.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
