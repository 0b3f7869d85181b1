"""End-to-end CLI behavior: subcommands, exit codes, stable JSON."""

import csv
import json
from pathlib import Path

import pytest

from johnson_eigen import spectral
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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("minsupport_n6_w3_i2.json", "minsupport --n 6 --w 3 --i 2 --json"),
    ("minsupport_n6_w3_i2_bnb.json", "minsupport --n 6 --w 3 --i 2 --algo bnb --json"),
    ("minsupport_n6_w3_i1_hyperplane.json",
     "minsupport --n 6 --w 3 --i 1 --algo hyperplane --threads 2 --json"),
    ("table_max_n6.txt", "table --max-n 6 --threads 1"),
])
def test_stdout_matches_golden_bytes(capsys, name, argv):
    code, out, _ = invoke(capsys, argv.split())
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


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
