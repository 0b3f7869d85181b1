"""Function file round-trips and validation."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from johnson_eigen import FunctionFileError, JohnsonParams, SparseFunction, vertex_from_elements
from johnson_eigen.fileformat import (
    document_to_function,
    dumps_document,
    function_to_document,
    rational_to_string,
    read_function,
    write_function,
)

from conftest import make_rng, random_rational

V = vertex_from_elements


def test_rational_strings():
    assert rational_to_string(Fraction(3)) == "3"
    assert rational_to_string(Fraction(-7, 2)) == "-7/2"
    assert rational_to_string(Fraction(4, 8)) == "1/2"


def test_document_shape():
    p = JohnsonParams(5, 2)
    f = SparseFunction(p, {V([0, 2]): Fraction(-1, 3), V([3, 4]): 2})
    doc = function_to_document(f, lambda_index=1)
    assert doc == {"n": 5, "w": 2, "lambda_index": 1, "entries": [[1, "-1/3"], [9, "2"]]}


def test_roundtrip_random_functions(tmp_path):
    rng = make_rng(55)
    for k in range(25):
        n = rng.randint(1, 9)
        w = rng.randint(0, n)
        p = JohnsonParams(n, w)
        entries = {}
        for x in p.vertices():
            if rng.random() < 0.35:
                v = random_rational(rng)
                if v:
                    entries[x] = v
        f = SparseFunction(p, entries)
        path = tmp_path / f"fn{k}.json"
        write_function(str(path), f, lambda_index=None)
        g, idx = read_function(str(path))
        assert g == f
        assert idx is None
        # byte stability: a second write is identical
        first = path.read_bytes()
        write_function(str(path), f, lambda_index=None)
        assert path.read_bytes() == first


def test_write_is_canonical_and_sorted(tmp_path):
    p = JohnsonParams(5, 2)
    f = SparseFunction(p, {V([3, 4]): 1, V([0, 1]): Fraction(2, 4)})
    path = tmp_path / "f.json"
    write_function(str(path), f, 1)
    doc = json.loads(path.read_text())
    assert doc["entries"] == [[0, "1/2"], [9, "1"]]
    assert path.read_text() == dumps_document(function_to_document(f, 1))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("n"),
        lambda d: d.update(n="5"),
        lambda d: d.update(w=9),
        lambda d: d.update(extra=1),
        lambda d: d.update(lambda_index=7),
        lambda d: d.update(entries=[[0, "1"], [0, "2"]]),
        lambda d: d.update(entries=[[9, "1"], [0, "2"]]),
        lambda d: d.update(entries=[[10, "1"]]),
        lambda d: d.update(entries=[[0, "0"]]),
        lambda d: d.update(entries=[[0, "2/4"]]),
        lambda d: d.update(entries=[[0, 1.5]]),
        lambda d: d.update(entries=[[0, "1/0"]]),
        lambda d: d.update(entries="nope"),
        lambda d: d.update(n=True),
        lambda d: d.update(w=True),
        lambda d: d.update(lambda_index=False),
        lambda d: d.update(entries=[[True, "1"]]),
        lambda d: d.update(n=4, w=True, lambda_index=False, entries=[[True, "1"]]),
    ],
)
def test_reader_rejects_malformed_documents(mutate):
    doc = {"n": 5, "w": 2, "lambda_index": None, "entries": [[0, "1"], [3, "-2/3"]]}
    mutate(doc)
    with pytest.raises(FunctionFileError):
        document_to_function(doc)


def test_reader_rejects_bad_files(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(FunctionFileError):
        read_function(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FunctionFileError):
        read_function(str(bad))


def test_lambda_index_optional_field(tmp_path):
    doc = {"n": 4, "w": 2, "entries": [[0, "1"]]}
    f, idx = document_to_function(doc)
    assert idx is None
    assert f.support_size == 1


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40), st.floats(allow_nan=False), st.text(max_size=4)
)


@st.composite
def _valid_documents(draw):
    n = draw(st.integers(0, 7))
    w = draw(st.integers(0, n))
    ranks = draw(st.lists(st.integers(0, math.comb(n, w) - 1), unique=True, max_size=6))
    values = st.builds(
        lambda p, q: rational_to_string(Fraction(p, q)),
        st.integers(-5, 5).filter(bool), st.integers(1, 5),
    )
    doc = {"n": n, "w": w, "entries": [[r, draw(values)] for r in sorted(ranks)]}
    if draw(st.booleans()):
        doc["lambda_index"] = draw(st.one_of(st.none(), st.integers(0, w)))
    return doc


@st.composite
def _corrupted_documents(draw):
    """A valid document with one field, rank or value replaced by an arbitrary JSON value."""
    doc = draw(_valid_documents())
    junk = draw(st.one_of(st.booleans(), _scalars, st.lists(_scalars, max_size=3)))
    spot = draw(st.sampled_from(["n", "w", "lambda_index", "entries", "extra", "rank", "value"]))
    if spot in ("rank", "value") and doc["entries"]:
        entry = draw(st.sampled_from(doc["entries"]))
        entry[0 if spot == "rank" else 1] = junk
    else:
        doc[spot] = junk
    return doc


_documents = st.one_of(_valid_documents(), _corrupted_documents(), _scalars)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_reader_total_and_round_trip_byte_identical(doc):
    # every document either parses or raises FunctionFileError; what parses
    # is written back byte for byte (a missing lambda_index is written as null)
    try:
        f, idx = document_to_function(doc)
    except FunctionFileError:
        return
    assert type(f.params.n) is int and type(f.params.w) is int
    assert idx is None or type(idx) is int
    assert dumps_document(function_to_document(f, idx)) == dumps_document(
        {**doc, "lambda_index": doc.get("lambda_index")}
    )
