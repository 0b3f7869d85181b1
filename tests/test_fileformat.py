"""Function file round-trips and validation."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from johnson_eigen import FunctionFileError, JohnsonParams, ParameterError, SizeBudgetError, SparseFunction
from johnson_eigen.errors import brief
from johnson_eigen.fileformat import (
    check_writable,
    document_to_function,
    dumps_document,
    function_to_document,
    rational_to_string,
    read_function,
    write_function,
)

from conftest import (
    V,
    make_rng,
    random_rational,
    reference_document_to_function,
    reference_function_to_document,
)


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


def test_writer_raises_a_file_error_when_it_cannot_write(tmp_path):
    f = SparseFunction(JohnsonParams(5, 2), {V([0, 1]): 1})
    for path in (tmp_path / "missing" / "f.json", tmp_path):
        with pytest.raises(FunctionFileError, match="^" + re.escape(f"cannot write {path}: ")):
            write_function(str(path), f)


@pytest.mark.parametrize("index", [7, 3, -1, True, False, 1.0, "1", [1]])
def test_writer_refuses_an_index_the_reader_refuses_and_writes_nothing(tmp_path, index):
    # each of these used to be written, and read_function then refused the file
    f = SparseFunction(JohnsonParams(5, 2), {V([0, 1]): 1})
    doc = {"n": 5, "w": 2, "lambda_index": index, "entries": [[0, "1"]]}
    message = f"^lambda_index {re.escape(repr(index))} is not null or an int in 0..2$"
    with pytest.raises(FunctionFileError, match=message):
        document_to_function(doc)
    with pytest.raises(ParameterError, match=message):
        function_to_document(f, index)
    path = tmp_path / "f.json"
    with pytest.raises(ParameterError, match=message):
        write_function(str(path), f, index)
    assert not path.exists()


def test_writable_check_leaves_the_path_as_it_was(tmp_path):
    for path in (tmp_path / "missing" / "f.json", tmp_path):
        with pytest.raises(FunctionFileError, match="^" + re.escape(f"cannot write {path}: ")):
            check_writable(str(path))
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_bytes(b"kept")
    check_writable(str(new))
    check_writable(str(old))
    assert not new.exists() and old.read_bytes() == b"kept"


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


@pytest.mark.parametrize("item", [[0], [0, "1", "2"], 0, "0:1", {"0": "1"}])
def test_reader_rejects_an_entry_that_is_not_a_two_item_list(item):
    doc = {"n": 5, "w": 2, "entries": [item]}
    with pytest.raises(FunctionFileError, match="^" + re.escape(f"bad entry {item!r}") + "$"):
        document_to_function(doc)


@pytest.mark.parametrize("value", ["1e5000", "1.5", " 1", "1_0", "+1"])
def test_reader_parses_only_the_canonical_alphabet(value):
    # Fraction takes these too; "1e5000" used to expand to a 5,001-digit numerator
    # and end in a ValueError from the canonical-form check
    doc = {"n": 5, "w": 2, "entries": [[0, value]]}
    with pytest.raises(FunctionFileError, match="^" + re.escape(f"bad rational {value!r}") + "$"):
        document_to_function(doc)


@pytest.mark.parametrize("place", ["rank", "entry", "value", "nested"])
def test_reader_quotes_an_item_that_repr_cannot_show(place):
    # repr raises ValueError on 10**5000 and RecursionError on 5,000 nested
    # lists, and the quoting of the bad item used to let both out of document_to_function
    huge, nested = 10 ** 5000, []
    for _ in range(5000):
        nested = [nested]
    entry = {"rank": [huge, "1"], "entry": [huge], "value": [0, huge], "nested": nested}[place]
    with pytest.raises(FunctionFileError) as info:
        document_to_function({"n": 5, "w": 2, "entries": [entry]})
    assert "<unprintable>" in str(info.value) and len(str(info.value)) < 100


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


# -- the reader and writer against the Fraction-based references in conftest --


def _outcome(read, doc):
    """(params, den, nums, lambda_index) of what read gives, or (exception type, message)."""
    try:
        f, idx = read(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return f.params, f.den, dict(f.nums), idx


# digits and "-" and "/" in any order, p/q with q <= 0 or not in lowest terms,
# and values at the interpreter's 4,300-digit limit on either side of the "/"
_VALUE_TEXTS = st.one_of(
    st.text("-/0123456789", max_size=7),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(-3, 12)),
    st.integers(-20, 20).map(str),
    st.builds(lambda sign, d, k, tail: sign + d * k + tail, st.sampled_from(["", "-"]),
              st.sampled_from("0179"), st.integers(4299, 4301), st.sampled_from(["", "/3", "/10"])),
    st.builds(lambda top, k: top + "/" + "3" * k, st.sampled_from(["0", "1", "-2"]), st.integers(4299, 4301)),
)


@st.composite
def _value_documents(draw):
    n = draw(st.integers(0, 7))
    w = draw(st.integers(0, n))
    ranks = draw(st.lists(st.integers(0, math.comb(n, w) - 1), unique=True, max_size=5))
    doc = {"n": n, "w": w, "entries": [[r, draw(_VALUE_TEXTS)] for r in sorted(ranks)]}
    if draw(st.booleans()):
        doc["lambda_index"] = draw(st.one_of(st.none(), st.integers(-1, w + 1)))
    return doc


@settings(max_examples=400, deadline=None)
@given(st.one_of(_value_documents(), _documents))
def test_reader_outcome_equals_the_fraction_reference(doc):
    assert _outcome(document_to_function, doc) == _outcome(reference_document_to_function, doc)


@pytest.mark.parametrize("value", ["1/-2", "0/0", "/2", "1/", "-", "1//2", "1/2/3", "1-2", "7" * 4301, "1/" + "3" * 4301])
def test_reader_refuses_what_fraction_refused_as_a_bad_rational(value):
    doc = {"n": 5, "w": 2, "entries": [[0, value]]}
    message = "^" + re.escape(f"bad rational {brief(value)}") + "$"
    with pytest.raises(FunctionFileError, match=message):
        document_to_function(doc)
    assert _outcome(document_to_function, doc) == _outcome(reference_document_to_function, doc)


@pytest.mark.parametrize("value, message", [
    ("0", "zero values must not be stored"), ("-0/5", "zero values must not be stored"),
    ("01", "rational '01' is not in canonical lowest terms"),
    ("1/1", "rational '1/1' is not in canonical lowest terms"),
    ("2/4", "rational '2/4' is not in canonical lowest terms"),
    ("-1/02", "rational '-1/02' is not in canonical lowest terms"),
])
def test_reader_keeps_the_zero_and_lowest_terms_messages(value, message):
    with pytest.raises(FunctionFileError, match="^" + re.escape(message) + "$"):
        document_to_function({"n": 5, "w": 2, "entries": [[0, value]]})


_BIG_RATIONALS = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(list(JohnsonParams(6, 3).vertices())), _BIG_RATIONALS),
       st.one_of(st.none(), st.integers(0, 3)))
def test_writer_bytes_equal_the_fraction_reference_and_leave_entries_unbuilt(values, index):
    f = SparseFunction(JohnsonParams(6, 3), values)
    text = dumps_document(function_to_document(f, index))
    assert text == dumps_document(reference_function_to_document(f, index))
    assert document_to_function(json.loads(text)) == (f, index)


def test_writer_refuses_a_value_past_the_digit_limit_as_the_reference_does():
    f = SparseFunction(JohnsonParams(5, 2), {V([0, 1]): Fraction(10 ** 5000 + 1, 3), V([0, 2]): 1})
    for write in (function_to_document, reference_function_to_document):
        with pytest.raises(SizeBudgetError, match="^a value has too many digits to write as a string$"):
            write(f)


def test_write_function_leaves_entries_unbuilt(tmp_path):
    f = SparseFunction(JohnsonParams(5, 2), {V([0, 2]): Fraction(-1, 3), V([3, 4]): 2})
    write_function(str(tmp_path / "f.json"), f, 1)
    assert (tmp_path / "f.json").read_text() == dumps_document(reference_function_to_document(f, 1))


def test_fractional_golden_reads_and_writes_back_byte_identical(tmp_path):
    # the input of the fractional CLI goldens, written by the Fraction-based writer
    golden = Path(__file__).parent / "golden" / "fractional_n6_w3.json"
    f, idx = read_function(str(golden))
    assert (f.den, sorted(f.nums.values())) == (12, [-9, -1, 10, 84])
    path = tmp_path / "f.json"
    write_function(str(path), f, idx)
    assert path.read_bytes() == golden.read_bytes()
