import json
import subprocess
import sys

import pytest

from formgaps.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repr_csv(capsys):
    code, out, _ = run(capsys, "repr", "--fn", "r2", "--n", "25")
    assert code == 0 and out.strip() == "25,12"


def test_repr_json(capsys):
    code, out, _ = run(capsys, "repr", "--fn", "R2", "--n", "7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"fn": "R2", "n": 7, "value": 12}


def test_member(capsys):
    code, out, _ = run(capsys, "member", "--set", "square2", "--n", "3")
    assert code == 0 and out.strip() == "square2,3,false"
    code, out, _ = run(capsys, "member", "--set", "diamond:-4", "--n", "5")
    assert code == 0 and out.strip() == "diamond:-4,5,true"


def test_eta_and_lambda(capsys):
    code, out, _ = run(capsys, "eta", "--a", "5", "--q", "5")
    assert code == 0 and out.strip() == "5,5,9,9/5"
    code, out, _ = run(capsys, "eta", "--a", "5", "--q", "5", "--brute")
    assert out.strip() == "5,5,9,9/5"
    code, out, _ = run(capsys, "lambda", "--p", "3", "--j", "1", "--a", "1")
    assert code == 0 and out.strip() == "3,1,1,4/3"
    code, out, _ = run(capsys, "lambda", "--a", "1", "--bar", "9")
    assert code == 0 and out.strip().splitlines()[1] == "1,9,0,0"


def test_beta_and_mainterm(capsys):
    code, out, _ = run(capsys, "beta", "--psi", "chi6", "--a", "1", "--eps", "1e-4")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "psi,a,value,error_bound,terms"
    fields = row.split(",")
    assert fields[0] == "chi6" and abs(float(fields[2]) - 0.954930) < 1e-3
    code, out, _ = run(capsys, "etastar", "--psi", "chi6", "--a", "1")
    assert out.strip().splitlines()[1].startswith("chi6,1,1/9,")


def test_exact_main_terms_meet_any_eps(capsys):
    code, out, _ = run(capsys, "mainterm", "--psi", "chi6", "--a", "1", "--eps", "1e-12")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[2] == "0.333333333333333"
    # kronecker:8 is even: the Euler product keeps its budget
    code, _, err = run(capsys, "beta", "--psi", "kronecker:8", "--a", "1", "--eps", "1e-12")
    assert code == 2 and "budget" in err


def test_correlate(capsys):
    code, out, _ = run(capsys, "correlate", "--kind", "j", "--psi", "chi6", "--a", "1",
                       "--x", "1000", "--eps", "1e-4")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "318"
    code, out, _ = run(capsys, "correlate", "--kind", "estermann", "--a", "1", "--x", "2")
    assert out.strip().splitlines()[1] == "r2,1,2,16,,"


def test_census(capsys):
    code, out, _ = run(capsys, "census", "--set1", "square2", "--set2", "square2",
                       "--a", "1", "--x", "1", "--len", "9")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "set1,set2,a,x,H,count"
    assert lines[1] == "square2,square2,1,1,9,4"
    assert lines[2:] == ["W,1", "W,4", "W,8", "W,9"]


def test_gap_json_only(capsys):
    code, out, _ = run(capsys, "gap", "--a", "3", "--x", "100", "--pair", "sq2")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 101 and data["branch"] == "SQ2_SQ2"
    code, out, _ = run(capsys, "gap", "--a", "2", "--x", "1000000", "--pair", "tri")
    data = json.loads(out)
    assert data["params"]["Qstar"] == 28


@pytest.mark.parametrize(
    "pair,a,x", [("tri", 2, 10 ** 30), ("sq2", -10, 10 ** 23), ("tri", -7, 10 ** 40 + 7)]
)
def test_gap_beyond_factorization(capsys, pair, a, x):
    # witnesses above 2^63 are checked by their certificates, not by factorize
    code, out, err = run(capsys, "gap", "--pair", pair, "--a", str(a), "--x", str(x))
    assert code == 0, err
    data = json.loads(out)
    assert data["x"] == x and data["n"] == x + data["offset"] > x


def test_exit_codes(capsys):
    assert run(capsys, "repr", "--fn", "bogus", "--n", "3")[0] == 1  # usage
    assert run(capsys, "repr", "--fn", "r2", "--n", "0")[0] == 1  # domain error
    code, _, err = run(capsys, "census", "--set1", "square2", "--set2", "square2",
                       "--a", "1", "--x", "0", "--len", "2000000000")
    assert code == 2 and "budget" in err  # budget guard


def test_verify_empty_budget(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracles", "--budget", "0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "summary,oracles,pass,0"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "row.csv"
    code, out, _ = run(capsys, "repr", "--fn", "r2", "--n", "25", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == "25,12\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "formgaps", "repr", "--fn", "r2", "--n", "25"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "25,12"


def test_csv_round_trip_census(capsys):
    _, out, _ = run(capsys, "census", "--set1", "triangle", "--set2", "square2",
                    "--a", "2", "--x", "10", "--len", "40")
    lines = out.strip().splitlines()
    set1, set2, a, x, H, count = lines[1].split(",")
    wits = [int(l.split(",")[1]) for l in lines[2:]]
    assert (set1, set2) == ("triangle", "square2")
    assert int(count) == len(wits)
    _, out2, _ = run(capsys, "census", "--set1", "triangle", "--set2", "square2",
                     "--a", "2", "--x", "10", "--len", "40", "--format", "json")
    data = json.loads(out2)
    assert data["count"] == int(count) and data["witnesses"] == wits
