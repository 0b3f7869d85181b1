"""End-to-end CLI behavior: subcommands, exit codes, stable JSON."""

import csv
import json
import re
import sys
from pathlib import Path

import pytest

from johnson_eigen import OracleDisagreementError, cli, spectral
from johnson_eigen.cli import run


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_human(capsys):
    code, out, err = invoke(capsys, ["spectrum", "--n", "5", "--w", "2"])
    assert code == 0
    lines = [ln.split() for ln in out.strip().splitlines()[2:]]
    assert lines == [["0", "6", "1"], ["1", "1", "4"], ["2", "-2", "5"]]


def test_spectrum_json_stable(capsys):
    code1, out1, _ = invoke(capsys, ["spectrum", "--n", "6", "--w", "3", "--json"])
    code2, out2, _ = invoke(capsys, ["spectrum", "--n", "6", "--w", "3", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["spectrum"][3] == {"i": 3, "lambda": -3, "multiplicity": 5}


def test_canonical_then_verify(tmp_path, capsys):
    path = str(tmp_path / "out.json")
    code, _, _ = invoke(capsys, ["canonical", "--n", "5", "--w", "2", "--i", "1", "--out", path])
    assert code == 0
    code, out, _ = invoke(capsys, ["verify", "--func", path, "--i", "1"])
    assert code == 0
    assert "holds" in out
    # wrong index fails with a certificate and exit 1
    code, out, err = invoke(capsys, ["verify", "--func", path, "--i", "2"])
    assert code == 1
    assert "fails at vertex {0,2}" in out
    assert "error[VERIFY_FAILED]" in err


def test_verify_uses_stored_lambda_index(tmp_path, capsys):
    path = str(tmp_path / "f.json")
    invoke(capsys, ["canonical", "--n", "5", "--w", "2", "--i", "1", "--out", path])
    code, out, _ = invoke(capsys, ["verify", "--func", path])
    assert code == 0 and "lambda_1=1" in out


def test_canonical_custom_pairs_and_stdout(capsys):
    code, out, _ = invoke(capsys, ["canonical", "--n", "6", "--w", "2", "--i", "2",
                                   "--pairs", "0:2,1:3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6 and doc["w"] == 2 and len(doc["entries"]) == 4
    code, _, err = invoke(capsys, ["canonical", "--n", "6", "--w", "2", "--i", "1",
                                   "--pairs", "0:2,1:3"])
    assert code == 2
    assert "error[USAGE]" in err


def test_induce_and_reduce_round(tmp_path, capsys):
    f11 = str(tmp_path / "f11.json")
    f12 = str(tmp_path / "f12.json")
    invoke(capsys, ["canonical", "--n", "5", "--w", "1", "--i", "1", "--out", f11])
    code, _, _ = invoke(capsys, ["induce", "--func", f11, "--target-w", "2", "--out", f12])
    assert code == 0
    expect = str(tmp_path / "expect.json")
    invoke(capsys, ["canonical", "--n", "5", "--w", "2", "--i", "1", "--out", expect])
    assert open(f12).read() == open(expect).read()

    red = str(tmp_path / "red.json")
    code, _, _ = invoke(capsys, ["reduce", "--func", f12, "--j1", "0", "--j2", "1", "--out", red])
    assert code == 0
    doc = json.loads(open(red).read())
    assert doc == {"n": 3, "w": 1, "lambda_index": 0,
                   "entries": [[0, "-2"], [1, "-2"], [2, "-2"]]}
    code, out, _ = invoke(capsys, ["verify", "--func", red])
    assert code == 0


def test_induce_down_one_via_target_w(tmp_path, capsys):
    src = str(tmp_path / "src.json")
    invoke(capsys, ["canonical", "--n", "6", "--w", "2", "--i", "2", "--out", src])
    code, out, _ = invoke(capsys, ["induce", "--func", src, "--target-w", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6 and doc["w"] == 1 and doc["entries"] == []
    code, _, err = invoke(capsys, ["induce", "--func", src, "--target-w", "0"])
    assert code == 2


def test_partition_output(tmp_path, capsys):
    path = str(tmp_path / "f.json")
    invoke(capsys, ["canonical", "--n", "5", "--w", "2", "--i", "1", "--out", path])
    code, out, _ = invoke(capsys, ["partition", "--func", path])
    assert code == 0
    assert out.strip() == "t=3 blocks: {0} {1} {2,3,4}"


def test_minsupport_json_stable_and_correct(capsys):
    argv = ["minsupport", "--n", "6", "--w", "3", "--i", "3", "--algo", "both",
            "--threads", "1", "--json"]
    code1, out1, _ = invoke(capsys, argv)
    code2, out2, _ = invoke(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["min_support"] == 8
    assert doc["bound"] == 8
    assert doc["attained_by_canonical"] is True
    assert doc["all_witnesses_canonical"] is True
    assert doc["algorithm"] == "bnb+hyperplane"
    assert "elapsed" not in json.dumps(doc)


def test_minsupport_single_algorithms(capsys):
    code, out, _ = invoke(capsys, ["minsupport", "--n", "5", "--w", "2", "--i", "2",
                                   "--algo", "bnb", "--json"])
    assert code == 0
    assert json.loads(out)["min_support"] == 4
    code, out, _ = invoke(capsys, ["minsupport", "--n", "5", "--w", "2", "--i", "2",
                                   "--algo", "hyperplane", "--threads", "1", "--json"])
    assert code == 0
    assert json.loads(out)["min_support"] == 4


def test_minsupport_budget_exhaustion_exit_code(capsys):
    code, out, err = invoke(capsys, ["minsupport", "--n", "6", "--w", "2", "--i", "1",
                                     "--algo", "bnb", "--budget", "5", "--json"])
    assert code == 3
    assert "error[BUDGET_EXHAUSTED]" in err
    assert json.loads(out)["proven_optimal"] is False


@pytest.mark.parametrize("algo", ["both", "bnb", "hyperplane"])
def test_minsupport_empty_eigenspace_usage_error(capsys, algo):
    code, _, err = invoke(capsys, ["minsupport", "--n", "4", "--w", "3", "--i", "2",
                                   "--algo", algo])
    assert code == 2
    assert err == "error[USAGE] eigenspace of J(4,3) at index 2 is empty\n"


@pytest.mark.parametrize("argv, code, expected", [
    ("minsupport --n 5 --w 2 --i 1 --witness-cap 2", 0, [
        "J(5,2)  i=1  lambda=1  dim=4",
        "algorithm: bnb+hyperplane",
        "min_support: 6",
        "bound 2^i*C(n-2i,w-i): 6",
        "attained_by_canonical: True",
        "all_witnesses_canonical: False",
        "stats: nodes=239 subsets=120 elapsed=*",
        "witness[0]: {0,3}:1 {1,3}:1 {2,3}:1 {0,4}:-1 {1,4}:-1 {2,4}:-1",
        "witness[1]: {1,2}:2 {0,3}:-2 {0,4}:-1 {1,4}:1 {2,4}:1 {3,4}:-1",
    ]),
    ("minsupport --n 5 --w 2 --i 2 --algo bnb --budget 1", 3, [
        "J(5,2)  i=2  lambda=-2  dim=5",
        "algorithm: bnb",
        "min_support: unknown  (budget exhausted, not proven optimal)",
        "bound 2^i*C(n-2i,w-i): 4",
        "attained_by_canonical: None",
        "all_witnesses_canonical: None",
        "stats: nodes=2 subsets=0 elapsed=*",
    ]),
], ids=["proven", "exhausted"])
def test_minsupport_human_report(capsys, argv, code, expected):
    got, out, err = invoke(capsys, argv.split())
    assert got == code
    assert err == ("" if code == 0 else "error[BUDGET_EXHAUSTED] search budget exhausted; "
                   "result not proven optimal\n")
    assert re.sub(r"elapsed=\d+\.\d{3}s$", "elapsed=*", out, flags=re.M).splitlines() == expected


@pytest.mark.parametrize("pairs, message", [
    ("0:1:2", "bad pair '0:1:2'; expected a:b"),
    ("a:b", "bad pair 'a:b': invalid literal for int() with base 10: 'a'"),
    # an empty --pairs used to be taken as not given, so the default (0,1) was built
    ("", "--pairs gives 0 pairs but --i is 1"),
], ids=["three-parts", "not-ints", "empty"])
def test_canonical_rejects_a_malformed_pair(capsys, pairs, message):
    argv = ["canonical", "--n", "6", "--w", "2", "--i", "1", "--pairs", pairs]
    assert invoke(capsys, argv) == (2, "", f"error[USAGE] {message}\n")


def test_empty_pairs_at_index_0_is_the_empty_pairing(capsys):
    argv = ["canonical", "--n", "4", "--w", "2", "--i", "0"]
    assert invoke(capsys, argv + ["--pairs", ""]) == invoke(capsys, argv)


def test_canonical_with_a_negative_index_is_usage_error(capsys):
    # it used to say "--pairs gives 0 pairs but --i is -1" with no --pairs given
    code, out, err = invoke(capsys, ["canonical", "--n", "4", "--w", "2", "--i", "-1"])
    assert (code, out) == (2, "")
    assert err.startswith("error[USAGE]") and "index" in err and "-1" in err
    assert "--pairs" not in err


def test_canonical_refuses_an_index_over_w_before_it_builds_a_pairing(capsys, monkeypatch):
    # --i 2000000 used to build two million default pairs (2.4 s, 499 MiB) before
    # build_canonical compared the pairing size with w
    def never(i):
        raise AssertionError(f"default_pairing({i}) was called")

    monkeypatch.setattr(cli, "default_pairing", never)
    assert invoke(capsys, ["canonical", "--n", "5", "--w", "2", "--i", "2000000"]) == (
        2, "", "error[USAGE] pairing size 2000000 exceeds weight 2\n")


def test_verify_without_an_index_is_usage_error(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"n": 5, "w": 2, "entries": [[0, "1"]]}')
    assert invoke(capsys, ["verify", "--func", str(path)]) == (
        2, "", "error[USAGE] no eigenvalue index: pass --i or store lambda_index in the file\n")


def test_oracle_disagreement_exits_1(capsys, monkeypatch):
    def disagree(*args):
        raise OracleDisagreementError("bnb found 4 but hyperplane found 5 on J(5,2) index 2")

    monkeypatch.setattr(cli, "verify_bound", disagree)
    assert invoke(capsys, ["minsupport", "--n", "5", "--w", "2", "--i", "2"]) == (
        1, "", "error[ORACLE_DISAGREEMENT] bnb found 4 but hyperplane found 5 on J(5,2) index 2\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("minsupport_n6_w3_i2.json", "minsupport --n 6 --w 3 --i 2 --json"),
    ("minsupport_n6_w3_i2_bnb.json", "minsupport --n 6 --w 3 --i 2 --algo bnb --json"),
    ("minsupport_n6_w3_i1_hyperplane.json",
     "minsupport --n 6 --w 3 --i 1 --algo hyperplane --threads 2 --json"),
    ("table_max_n6.txt", "table --max-n 6 --threads 1"),
    # the headline command: the pinned tree of 1,310,759 nodes and its witness bytes
    ("minsupport_n7_w3_i3.json", "minsupport --n 7 --w 3 --i 3 --algo both --threads 1 --json"),
    ("spectrum_n7_w3.json", "spectrum --n 7 --w 3 --json"),
])
def test_stdout_matches_golden_bytes(capsys, name, argv):
    code, out, _ = invoke(capsys, argv.split())
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_canonical_then_induce_matches_golden_bytes(tmp_path, capsys):
    # the canonical function of pairs (0,5), (2,7) on J(8,3), induced to J(8,5)
    path = str(tmp_path / "c.json")
    first = invoke(capsys, ["canonical", "--n", "8", "--w", "3", "--i", "2", "--pairs", "0:5,2:7", "--out", path])
    second = invoke(capsys, ["induce", "--func", path, "--target-w", "5"])
    assert first[0] == second[0] == 0 and first[2] == second[2] == ""
    assert (first[1] + second[1]).encode() == (GOLDEN / "induce_n8_w3_i2_to_w5.json").read_bytes()


@pytest.mark.parametrize("name,argv,code", [
    ("fractional_n6_w3_induce_w4.json", "induce --target-w 4", 0),
    ("fractional_n6_w3_reduce_0_1.json", "reduce --j1 0 --j2 1", 0),
    ("fractional_n6_w3_verify_i1.txt", "verify --i 1", 1),
    ("fractional_n6_w3_partition.txt", "partition", 0),
])
def test_fractional_input_matches_golden_bytes(capsys, name, argv, code):
    # the only goldens whose values have denominators above 1: -3/4, 5/6, 7 and -1/12 on J(6,3)
    command, *rest = argv.split()
    out = invoke(capsys, [command, "--func", str(GOLDEN / "fractional_n6_w3.json"), *rest])
    assert out[0] == code
    assert out[1].encode() == (GOLDEN / name).read_bytes()


def _count_builds(monkeypatch) -> list[int]:
    """Record the dimension of every eigenspace basis built from here on."""
    built = []
    span_basis = spectral.span_basis

    def counting(rows, width, rank):
        built.append(rank)
        return span_basis(rows, width, rank)

    monkeypatch.setattr(spectral, "span_basis", counting)
    return built


@pytest.mark.parametrize("algo,i,dim", [("both", 2, 9), ("bnb", 2, 9), ("hyperplane", 1, 5)])
def test_minsupport_builds_its_eigenspace_once(capsys, monkeypatch, algo, i, dim):
    built = _count_builds(monkeypatch)
    code, out, _ = invoke(capsys, ["minsupport", "--n", "6", "--w", "3", "--i", str(i),
                                   "--algo", algo, "--threads", "1", "--json"])
    assert code == 0
    assert built == [json.loads(out)["dim"]] == [dim]


def test_table_builds_each_nonempty_eigenspace_once(capsys, monkeypatch):
    built = _count_builds(monkeypatch)
    code, out, _ = invoke(capsys, ["table", "--max-n", "6", "--threads", "1"])
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    statuses = [r[8] for r in rows]
    assert statuses.count("ok") == 49 and statuses.count("empty") == 34
    assert len(rows) == 83
    assert built == [int(r[4]) for r in rows if r[8] == "ok"]


def test_usage_errors(capsys):
    code, _, _ = invoke(capsys, ["spectrum", "--n", "5"])
    assert code == 2
    code, _, _ = invoke(capsys, ["nope"])
    assert code == 2
    code, _, err = invoke(capsys, ["spectrum", "--n", "5", "--w", "7"])
    assert code == 2
    assert "error[USAGE]" in err


def test_threads_below_one_is_usage_error(capsys):
    for argv in (["minsupport", "--n", "5", "--w", "2", "--i", "1"], ["table", "--max-n", "3"]):
        for threads in ("0", "-3"):
            code, out, err = invoke(capsys, argv + ["--threads", threads])
            assert code == 2
            assert out == ""
            assert "--threads" in err


def test_minsupport_stdout_does_not_depend_on_threads(capsys):
    # C(21,5) = 20,349 subsets: the scan runs beside the branch and bound
    argv = ["minsupport", "--n", "7", "--w", "2", "--i", "1", "--algo", "both", "--json"]
    runs = [invoke(capsys, argv + extra) for extra in (["--threads", "1"], ["--threads", "2"], [])]
    assert runs[0][0] == 0 and json.loads(runs[0][1])["algorithm"] == "bnb+hyperplane"
    assert runs[0] == runs[1] == runs[2]


def test_canonical_over_the_output_cap_is_size_limit(capsys):
    # C(40,20) ~ 1.4e11 entries: refused before any vertex is enumerated
    code, out, err = invoke(capsys, ["canonical", "--n", "40", "--w", "20", "--i", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error[SIZE_LIMIT] canonical function has 137846528820 entries")


def test_induce_over_the_output_cap_is_size_limit(tmp_path, capsys):
    src, dst = str(tmp_path / "f.json"), tmp_path / "g.json"
    assert invoke(capsys, ["canonical", "--n", "64", "--w", "1", "--i", "0", "--out", src])[0] == 0
    # 64 support vertices times C(63,31) supersets each
    code, out, err = invoke(capsys, ["induce", "--func", src, "--target-w", "32", "--out", str(dst)])
    assert code == 2
    assert out == "" and not dst.exists()
    assert err.startswith("error[SIZE_LIMIT] induction needs")


def test_witness_cap_below_one_is_usage_error(capsys):
    for cap in ("0", "-2"):
        code, out, err = invoke(capsys, ["minsupport", "--n", "5", "--w", "2", "--i", "2",
                                         "--threads", "1", "--witness-cap", cap, "--json"])
        assert code == 2
        assert out == ""
        assert "--witness-cap" in err


def test_budget_below_one_is_usage_error(capsys):
    for argv in (["minsupport", "--n", "5", "--w", "2", "--i", "1", "--threads", "1"],
                 ["table", "--max-n", "3", "--threads", "1"]):
        for budget in ("0", "-1"):
            code, out, err = invoke(capsys, argv + ["--budget", budget])
            assert code == 2
            assert out == ""
            assert "--budget" in err
            assert "BUDGET_EXHAUSTED" not in err


def test_table_bounds_are_usage_errors(capsys):
    for extra in (["--max-n", "-1"], ["--max-n", "0"], ["--max-n", "65"],
                  ["--max-n", "3", "--max-w", "-2"], ["--max-n", "x"]):
        code, out, err = invoke(capsys, ["table", "--threads", "1"] + extra)
        assert code == 2
        assert out == ""
        assert ("--max-w" if "--max-w" in extra else "--max-n") in err


def test_table_bounds_accepted_at_the_edges(capsys):
    code, out, _ = invoke(capsys, ["table", "--max-n", "1", "--max-w", "0", "--threads", "1"])
    assert code == 0
    assert out.splitlines()[1:] == ["1,0,0,0,1,1,1,True,ok"]


def test_minsupport_json_reports_dim(capsys):
    code, out, _ = invoke(capsys, ["minsupport", "--n", "5", "--w", "2", "--i", "1",
                                   "--threads", "1", "--json"])
    assert code == 0
    assert json.loads(out)["dim"] == 4


def test_bad_file_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 5, "w": 2, "entries": [[0, "2/4"]]}')
    code, _, err = invoke(capsys, ["verify", "--func", str(bad), "--i", "1"])
    assert code == 2
    assert "error[BAD_FILE]" in err


@pytest.mark.parametrize("content,reason", [
    (b"\xff\xfe{}", "is not valid UTF-8"),
    (b"[" * 100_000, "nests too deeply to parse"),
])
def test_undecodable_or_too_deep_file_is_bad_file(tmp_path, capsys, content, reason):
    # these used to end in a UnicodeDecodeError or RecursionError traceback with exit 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = invoke(capsys, ["verify", "--func", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith(f"error[BAD_FILE] {bad} {reason}")


def test_a_number_too_long_to_parse_is_bad_file(tmp_path, capsys):
    # json raises a bare ValueError for an int past the interpreter's digit
    # limit, which used to end in a traceback and exit 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 5, "w": 2, "entries": [[' + "1" * 5000 + ', "1"]]}')
    assert invoke(capsys, ["verify", "--func", str(bad)]) == (
        2, "", f"error[BAD_FILE] {bad} holds a number with too many digits\n")


def _nested(depth):
    item = 0
    for _ in range(depth):
        item = [item]
    return item


@pytest.mark.parametrize("entry", [
    _nested(900), [_nested(900), "1"], [0, _nested(900)], [0, "1/" + "7" * 5000],
], ids=["entry", "rank", "value", "rational"])
def test_bad_file_errors_echo_a_short_item(tmp_path, capsys, entry):
    # each used to echo the whole item, in error lines of 1,826 to 5,033 characters
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 5, "w": 2, "entries": [entry]}))
    code, out, err = invoke(capsys, ["verify", "--func", str(bad), "--i", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error[BAD_FILE] ") and err.count("\n") == 1 and len(err) < 200
    assert "..." in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter converts ints of any length to strings")
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_a_value_too_long_to_write_is_size_limit(tmp_path, capsys, to_file):
    # the reader takes values of the interpreter's full digit limit, but induce
    # adds two of them into one digit more; writing that used to end in a
    # ValueError traceback and exit 1
    digits = "9" * sys.get_int_max_str_digits()
    src, dst = tmp_path / "f.json", tmp_path / "g.json"
    src.write_text(json.dumps({"n": 5, "w": 2, "entries": [[0, digits], [1, digits]]}))
    argv = ["induce", "--func", str(src), "--target-w", "3"] + (["--out", str(dst)] if to_file else [])
    assert invoke(capsys, argv) == (
        2, "", "error[SIZE_LIMIT] a value has too many digits to write as a string\n")
    assert not dst.exists()


def test_table_csv(tmp_path, capsys):
    out_csv = str(tmp_path / "table.csv")
    code, out, _ = invoke(capsys, ["table", "--max-n", "5", "--threads", "1", "--csv", out_csv])
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "w", "i", "lambda", "dim", "bound",
                       "min_support", "attained_canonical", "status"]
    by_key = {(r[0], r[1], r[2]): r for r in rows[1:]}
    r_522 = by_key[("5", "2", "2")]
    assert r_522[3] == "-2" and r_522[4] == "5" and r_522[5] == "4" and r_522[6] == "4"
    assert r_522[7] == "True" and r_522[8] == "ok"
    # spurious index cells are recorded as empty eigenspaces, not silently dropped
    r_431 = by_key[("4", "3", "2")]
    assert r_431[8] == "empty"
    # every (n,w,i) cell in range is present
    assert len(rows) - 1 == sum((w + 1) for n in range(1, 6) for w in range(0, n + 1))
    # the file holds exactly the bytes the same table prints to stdout
    code, out, _ = invoke(capsys, ["table", "--max-n", "5", "--threads", "1"])
    assert code == 0
    assert Path(out_csv).read_bytes() == out.encode()


def test_table_marks_oversized_and_budget_cells(capsys):
    code, out, _ = invoke(capsys, ["table", "--max-n", "12", "--max-w", "4",
                                   "--budget", "50", "--threads", "1"])
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    by_key = {(r[0], r[1], r[2]): r for r in rows}
    # dense budget refusals are marked, not silently dropped
    assert by_key[("11", "4", "0")][8] == "skipped:size"
    assert by_key[("12", "4", "2")][8] == "skipped:size"
    # node budget 50 leaves hard cells explicitly unresolved
    statuses = {r[8] for r in rows}
    assert "budget" in statuses and "ok" in statuses
    budget_rows = [r for r in rows if r[8] == "budget"]
    assert all(r[6] == "budget" for r in budget_rows)
    # small cells still prove within the tiny budget
    assert by_key[("4", "2", "2")][6] == "4" and by_key[("4", "2", "2")][8] == "ok"


def test_boolean_fields_in_file_are_usage_error(tmp_path, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text('{"n": 4, "w": true, "lambda_index": false, "entries": [[true, "1"]]}')
    code, out, err = invoke(capsys, ["verify", "--func", str(bad)])
    assert code == 2
    assert out == ""
    assert "error[BAD_FILE]" in err


def _assert_cannot_write(code, out, err, path):
    # these used to end in a FileNotFoundError or IsADirectoryError traceback with exit 1
    assert code == 2 and out == ""
    assert err.startswith(f"error[BAD_FILE] cannot write {path}: ")


def _canonical_file(tmp_path, capsys) -> str:
    path = str(tmp_path / "f.json")
    assert invoke(capsys, ["canonical", "--n", "5", "--w", "2", "--i", "1", "--out", path])[0] == 0
    return path


def test_canonical_out_that_cannot_be_written_is_bad_file(tmp_path, capsys):
    for path in (tmp_path / "missing" / "f.json", tmp_path):
        code, out, err = invoke(capsys, ["canonical", "--n", "5", "--w", "2", "--i", "1",
                                         "--out", str(path)])
        _assert_cannot_write(code, out, err, path)


def test_induce_out_that_cannot_be_written_is_bad_file(tmp_path, capsys):
    src = _canonical_file(tmp_path, capsys)
    for path in (tmp_path / "missing" / "g.json", tmp_path):
        code, out, err = invoke(capsys, ["induce", "--func", src, "--target-w", "3", "--out", str(path)])
        _assert_cannot_write(code, out, err, path)


def test_reduce_out_that_cannot_be_written_is_bad_file(tmp_path, capsys):
    src = _canonical_file(tmp_path, capsys)
    for path in (tmp_path / "missing" / "g.json", tmp_path):
        code, out, err = invoke(capsys, ["reduce", "--func", src, "--j1", "0", "--j2", "1",
                                         "--out", str(path)])
        _assert_cannot_write(code, out, err, path)


def _unreachable(*args, **kwargs):
    raise AssertionError("the build started before the --out path was checked")


def test_canonical_checks_its_out_path_before_the_build(tmp_path, capsys, monkeypatch):
    # the path used to be opened only after up to 10^6 terms had been built
    monkeypatch.setattr(cli, "build_canonical", _unreachable)
    path = tmp_path / "missing" / "f.json"
    code, out, err = invoke(capsys, ["canonical", "--n", "5", "--w", "2", "--i", "1",
                                     "--out", str(path)])
    _assert_cannot_write(code, out, err, path)


@pytest.mark.parametrize("target_w,build", [("3", "induce"), ("1", "induce_down_one")])
def test_induce_checks_its_out_path_before_the_build(tmp_path, capsys, monkeypatch, target_w, build):
    src = _canonical_file(tmp_path, capsys)
    monkeypatch.setattr(cli, build, _unreachable)
    path = tmp_path / "missing" / "g.json"
    code, out, err = invoke(capsys, ["induce", "--func", src, "--target-w", target_w,
                                     "--out", str(path)])
    _assert_cannot_write(code, out, err, path)


def test_reduce_checks_its_out_path_before_the_build(tmp_path, capsys, monkeypatch):
    src = _canonical_file(tmp_path, capsys)
    monkeypatch.setattr(cli, "reduce", _unreachable)
    path = tmp_path / "missing" / "g.json"
    code, out, err = invoke(capsys, ["reduce", "--func", src, "--j1", "0", "--j2", "1",
                                     "--out", str(path)])
    _assert_cannot_write(code, out, err, path)


def test_failed_build_leaves_an_existing_out_file_alone(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(b"kept")
    code, out, err = invoke(capsys, ["canonical", "--n", "40", "--w", "20", "--i", "0",
                                     "--out", str(path)])
    assert code == 2 and err.startswith("error[SIZE_LIMIT]")
    assert path.read_bytes() == b"kept"


def test_out_path_may_be_the_input_file(tmp_path, capsys):
    # the input is read before the output is written empty
    src = _canonical_file(tmp_path, capsys)
    assert invoke(capsys, ["reduce", "--func", src, "--j1", "0", "--j2", "1", "--out", src])[0] == 0
    code, out, _ = invoke(capsys, ["verify", "--func", src])
    assert code == 0 and out.startswith("holds: eigenfunction at lambda_0")


def test_table_csv_that_cannot_be_written_is_bad_file(tmp_path, capsys):
    for path in (tmp_path / "missing" / "t.csv", tmp_path):
        code, out, err = invoke(capsys, ["table", "--max-n", "3", "--threads", "1", "--csv", str(path)])
        _assert_cannot_write(code, out, err, path)


@pytest.mark.parametrize("argv", [
    ["canonical", "--n", "4", "--w", "2", "--i", "1", "--out"],
    ["induce", "--func", "FUNC", "--target-w", "3", "--out"],
    ["reduce", "--func", "FUNC", "--j1", "0", "--j2", "1", "--out"],
    ["table", "--max-n", "2", "--csv"],
], ids=["canonical", "induce", "reduce", "table"])
def test_an_empty_output_path_is_bad_file(tmp_path, capsys, argv):
    # an empty --out or --csv used to be taken as not given, so the output went to stdout
    argv = [_canonical_file(tmp_path, capsys) if a == "FUNC" else a for a in argv]
    code, out, err = invoke(capsys, argv + [""])
    _assert_cannot_write(code, out, err, "")


def test_table_checks_its_csv_path_before_the_sweep(tmp_path, capsys, monkeypatch):
    # the path used to be opened only after every cell had been verified
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep started before the csv path was checked")

    monkeypatch.setattr(cli, "verify_bound", unreachable)
    path = tmp_path / "missing" / "t.csv"
    code, out, err = invoke(capsys, ["table", "--max-n", "3", "--threads", "1", "--csv", str(path)])
    _assert_cannot_write(code, out, err, path)
