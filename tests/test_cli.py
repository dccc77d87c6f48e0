import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from formgaps import cli
from formgaps.analytic_constants import main_term, muller_main
from formgaps.census import census_interval, correlation_J
from formgaps.characters import make_character
from formgaps.cli import main
from formgaps.gaps import gap_triangle_square2
from formgaps.repr_sets import parse_set
from formgaps.util import DEFAULT_CHUNK
from formgaps.verify import run_suite

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Every subcommand form with its exact stdout in CSV and in JSON.  Only
# integers, Fractions and closed forms rounded once appear, so no entry
# depends on the platform's summation order.
OUTPUT_FORMS = [
    ('repr --fn r2 --n 25',
     '25,12\n',
     '{"fn": "r2", "n": 25, "value": 12}\n'),
    ('repr --fn R2 --n 49 --mode enumerate',
     '49,18\n',
     '{"fn": "R2", "n": 49, "value": 18}\n'),
    ('repr --fn ideal --n 9 --disc -4',
     '9,1\n',
     '{"fn": "ideal", "n": 9, "value": 1}\n'),
    ('member --set square2 --n 3',
     'square2,3,false\n',
     '{"member": false, "n": 3, "set": "square2"}\n'),
    ('member --set triangle_star --n 28',
     'triangle_star,28,true\n',
     '{"member": true, "n": 28, "set": "triangle_star"}\n'),
    ('eta --a 5 --q 5',
     '5,5,9,9/5\n',
     '{"a": 5, "eta": 9, "lambda": "9/5", "q": 5}\n'),
    ('eta --a 12 --q 36 --brute',
     '12,36,0,0\n',
     '{"a": 12, "eta": 0, "lambda": "0", "q": 36}\n'),
    ('lambda --p 3 --j 1 --a 1',
     '3,1,1,4/3\n',
     '{"a": 1, "j": 1, "lambda": "4/3", "p": 3}\n'),
    ('lambda --a 3 --bar 15',
     'a,n,lambda_bar,f\n3,15,2/15,2\n',
     '{"a": 3, "f": "2", "lambda_bar": "2/15", "n": 15}\n'),
    ('beta --psi chi6 --a 1',
     'psi,a,value,error_bound,terms\nchi6,1,0.954929658551372,8.48147915056938e-16,0\n',
     '{"a": 1, "error_bound": 8.481479150569378e-16, "psi": "chi6", "terms": 0, "value": 0.954929658551372}\n'),
    ('etastar --psi chi6 --a 1',
     'psi,a,pi_coeff,value\nchi6,1,1/9,0.349065850398866\n',
     '{"a": 1, "pi_coeff": "1/9", "psi": "chi6", "value": 0.3490658503988659}\n'),
    ('mainterm --psi chi6 --a 1',
     'psi,a,value,error_bound\nchi6,1,0.333333333333333,2.96059473233375e-16\n',
     '{"a": 1, "error_bound": 2.9605947323337506e-16, "psi": "chi6", "value": 0.3333333333333333}\n'),
    ('muller --psi chi4 --rho chi4 --a 1',
     'psi,rho,a,value,error_bound\nchi4,chi4,1,0.5,4.44089209850063e-16\n',
     '{"a": 1, "error_bound": 4.440892098500626e-16, "psi": "chi4", "rho": "chi4", "value": 0.5}\n'),
    ('correlate --kind j --psi chi6 --a 1 --x 1000',
     'psi,a,x,J,main,ratio\nchi6,1,1000,318,0.333333333333333,0.954\n',
     '{"J": 318, "a": 1, "main": 0.3333333333333333, "psi": "chi6", "ratio": 0.9540000000000001, "x": 1000}\n'),
    ('correlate --kind j --psi chi4 --a 26 --x 100',
     'psi,a,x,J,main,ratio\nchi4,26,100,0,0,nan\n',
     '{"J": 0, "a": 26, "main": 0.0, "psi": "chi4", "ratio": null, "x": 100}\n'),
    ('correlate --kind general --psi chi4 --rho chi4 --a 2 --x 500',
     'psi,a,x,J,main,ratio\nchi4*chi4,2,500,123,0.25,0.984\n',
     '{"J": 123, "a": 2, "main": 0.25, "psi": "chi4*chi4", "ratio": 0.984, "x": 500}\n'),
    ('correlate --kind general --psi chi3 --rho chi4 --a 1 --x 500',
     'psi,a,x,J,main,ratio\nchi3*chi4,1,500,404,,\n',
     '{"J": 404, "a": 1, "main": null, "psi": "chi3*chi4", "ratio": null, "x": 500}\n'),
    ('correlate --kind estermann --a 1 --x 2',
     'psi,a,x,J,main,ratio\nr2,1,2,16,,\n',
     '{"J": 16, "a": 1, "main": null, "psi": "r2", "ratio": null, "x": 2}\n'),
    ('census --set1 square2 --set2 square2 --a 1 --x 1 --len 9',
     'set1,set2,a,x,H,count\nsquare2,square2,1,1,9,4\nW,1\nW,4\nW,8\nW,9\n',
     '{"H": 9, "a": 1, "count": 4, "set1": "square2", "set2": "square2", "witnesses": [1, 4, 8, 9], "x": 1}\n'),
    ('census --set1 square2 --set2 triangle --a 3 --x 0 --len 30 --witness-cap 0',
     'set1,set2,a,x,H,count\nsquare2,triangle,3,0,30,9\n',
     '{"H": 30, "a": 3, "count": 9, "set1": "square2", "set2": "triangle", "witnesses": [], "x": 0}\n'),
    ('gap --pair sq2 --a 3 --x 100',
     '{"a": 3, "branch": "SQ2_SQ2", "n": 101, "offset": 1, "params": {"base": 101, "odd_shift": 3, "s": 10, "sqrt_ratio": 0.1, "t": 0}, "x": 100}\n',
     '{"a": 3, "branch": "SQ2_SQ2", "n": 101, "offset": 1, "params": {"base": 101, "odd_shift": 3, "s": 10, "sqrt_ratio": 0.1, "t": 0}, "x": 100}\n'),
    ('verify --suite oracles --budget 0',
     'suite,invariant,status,checks\nsummary,oracles,pass,0\n',
     '{"failed": 0, "results": [], "suite": "oracles"}\n'),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command,csv_out,json_out", OUTPUT_FORMS)
def test_output_forms(capsys, command, csv_out, json_out, fmt):
    code, out, err = run(capsys, *command.split(), "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (csv_out if fmt == "csv" else json_out)

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
    # kronecker:8 is even: the L_value series meets eps far below the Euler budget
    code, out, _ = run(capsys, "beta", "--psi", "kronecker:8", "--a", "1", "--eps", "1e-9")
    assert code == 0 and out.splitlines()[1].startswith("kronecker(8),1,")
    for eps in ("0", "-1"):
        code, _, err = run(capsys, "beta", "--psi", "kronecker:8", "--a", "1", "--eps", eps)
        assert code == 2 and err.startswith("budget exceeded:"), eps


def test_nan_eps_is_a_usage_error(capsys):
    # no bound meets eps = nan, so it is a malformed flag, not a budget to exceed
    for argv in (("beta", "--psi", "chi4"), ("mainterm", "--psi", "chi4"),
                 ("muller", "--psi", "chi4", "--rho", "chi4"), ("correlate", "--x", "10")):
        code, out, err = run(capsys, *argv, "--a", "5", "--eps", "nan")
        assert (code, out) == (1, "") and err.startswith("usage error:"), argv
    code, out, _ = run(capsys, "beta", "--psi", "chi4", "--a", "5", "--eps", "inf")
    assert code == 0 and out.splitlines()[1].startswith("chi4,5,0.763943726841098,")


def test_correlate(capsys):
    code, out, _ = run(capsys, "correlate", "--kind", "j", "--psi", "chi6", "--a", "1",
                       "--x", "1000", "--eps", "1e-4")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "318"
    code, out, _ = run(capsys, "correlate", "--kind", "estermann", "--a", "1", "--x", "2")
    assert out.strip().splitlines()[1] == "r2,1,2,16,,"


def test_correlate_general_takes_eps(capsys):
    # the general main term is muller's at the same eps, and 1e-8 by default
    base = ["--psi", "kronecker:5", "--rho", "kronecker:5", "--a", "1"]
    mains = {}
    for eps in ("1e-3", "1e-8", "1e-12", None):
        tail = [] if eps is None else ["--eps", eps]
        code, out, _ = run(capsys, "correlate", "--kind", "general", *base, "--x", "1000", *tail)
        assert code == 0
        mains[eps] = out.splitlines()[1].split(",")[4]
        code, out, _ = run(capsys, "muller", *base, "--eps", eps or "1e-8")
        assert code == 0 and out.splitlines()[1].split(",")[3] == mains[eps], eps
    assert mains[None] == mains["1e-8"] and mains["1e-3"] != mains["1e-12"]


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


def test_the_ceiling_exits_2(capsys):
    # 2^63 - 1 is the largest integer any route takes; 318665857834031151167461
    # is a strong pseudoprime to the twelve prime bases 2..37
    top = 2 ** 63 - 1
    for argv in (
        ("repr", "--fn", "r2", "--n", str(top + 1)),
        ("member", "--set", "square2", "--n", str(top + 1)),
        ("member", "--set", "triangle_star", "--n", str(top + 1)),
        ("eta", "--a", "1", "--q", str(top + 1)),
        ("lambda", "--p", str(top + 1), "--j", "1", "--a", "1"),
        ("lambda", "--p", "318665857834031151167461", "--j", "1", "--a", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("budget exceeded:"), argv
    assert run(capsys, "repr", "--fn", "r2", "--n", str(top))[:2] == (0, f"{top},0\n")


def test_correlate_answers_at_any_height(capsys):
    code, out, err = run(capsys, "correlate", "--kind", "j", "--a", "2000000000", "--x", "10")
    assert code == 0, err
    assert out.splitlines()[1].startswith("chi6,2000000000,10,")


def test_correlate_takes_the_main_term_before_it_sums(capsys, monkeypatch):
    from formgaps import census

    def summed(*args, **kwargs):
        raise AssertionError("correlation_J ran before main_term")

    monkeypatch.setattr(census, "correlation_J", summed)
    code, out, err = run(capsys, "correlate", "--kind", "j", "--psi", "chi3", "--a", "1",
                         "--x", "30000000", "--threads", "1")
    assert (code, out) == (1, "") and err.startswith("usage error:"), err


def test_correlate_general_takes_the_main_term_before_it_sums(capsys, monkeypatch):
    from formgaps import census

    def summed(*args, **kwargs):
        raise AssertionError("correlation_general ran before muller_main")

    monkeypatch.setattr(census, "correlation_general", summed)
    code, out, err = run(capsys, "correlate", "--kind", "general", "--psi", "kronecker:8",
                         "--rho", "kronecker:8", "--a", "1", "--x", "10000000", "--eps", "1e-15",
                         "--threads", "1")
    assert (code, out) == (2, "") and err.startswith("budget exceeded:"), err


def test_verify_empty_budget(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracles", "--budget", "0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "summary,oracles,pass,0"


@pytest.mark.parametrize("budget", [1e-4, 0.01, 0.049])
def test_verify_small_budgets_pass(budget):
    # below 0.05 the scaled G_series sizes would fall under the 1000 terms its
    # tail fit starts at; they keep that floor, so every row still runs
    results = run_suite("all", budget)
    assert results and all(r.ok for r in results), [r.name for r in results if not r.ok]


def test_character_moduli_are_capped(capsys):
    for argv in (
        ("census", "--set1", "diamond:-1000003", "--set2", "square2", "--a", "1", "--x", "1",
         "--len", "9"),
        ("mainterm", "--psi", "kronecker:-400008", "--a", "1"),
        ("beta", "--psi", "trivial:100001", "--a", "1"),
        ("repr", "--fn", "ideal", "--n", "12345", "--disc", "-1000003"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("budget exceeded:"), argv


def test_enumerate_is_capped(capsys, monkeypatch):
    from formgaps import repr_sets

    for fn in ("r2", "R2"):
        for n in (10 ** 12 + 1, 10 ** 18, 2 ** 70):
            code, out, err = run(capsys, "repr", "--fn", fn, "--n", str(n), "--mode", "enumerate")
            assert (code, out) == (2, "") and err.startswith("budget exceeded:"), (fn, n)
    monkeypatch.setattr(repr_sets, "ENUMERATE_MAX", 100)
    assert run(capsys, "repr", "--fn", "r2", "--n", "100", "--mode", "enumerate")[:2] == (0, "100,12\n")
    assert run(capsys, "repr", "--fn", "R2", "--n", "100", "--mode", "enumerate")[:2] == (0, "100,6\n")
    assert run(capsys, "repr", "--fn", "R2", "--n", "101", "--mode", "enumerate")[0] == 2


def test_ideal_counts_take_no_enumerate_mode(capsys):
    code, out, err = run(capsys, "repr", "--fn", "ideal", "--n", "9", "--disc", "-23",
                         "--mode", "enumerate")
    assert (code, out) == (1, "") and err.startswith("usage error:"), err
    assert "r2" in err and "R2" in err
    ideal = ("repr", "--fn", "ideal", "--n", "9", "--disc", "-23")
    assert run(capsys, *ideal, "--mode", "formula")[:2] == (0, "9,3\n")


def test_help_is_for_users(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    out = " ".join(capsys.readouterr().out.split())  # argparse reflows the description
    assert done.value.code == 0 and "Exit codes: 0 success, 1 usage error" in out
    assert not any(word in out for word in ("_render", "entry", "os._exit")), out


@pytest.mark.parametrize("argv,spec,form", [
    ("member --set diamond: --n 3", "diamond:", "diamond:D"),
    ("member --set diamond:abc --n 3", "diamond:abc", "diamond:D"),
    ("beta --psi kronecker: --a 1", "kronecker:", "kronecker:D"),
    ("etastar --psi trivial:x --a 1", "trivial:x", "trivial:K"),
])
def test_malformed_spec_names_the_form_it_needs(capsys, argv, spec, form):
    message = f"usage error: {spec!r} is not of the form {form}, {form[-1]} an integer\n"
    assert run(capsys, *argv.split()) == (1, "", message)


@pytest.mark.parametrize("argv", ["correlate --kind j --a 0 --x 10", "mainterm --psi chi4 --a 0"])
def test_zero_shift_names_main_term(capsys, argv):
    assert run(capsys, *argv.split()) == (1, "", "usage error: main_term requires a != 0\n")


def parse_outcome(capsys, argv):
    """main's exit code (argparse's, for --help and --version), stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as done:
        code = done.code
    out = capsys.readouterr()
    return code, out.out, out.err


# For each command, a missing required argument and a bad choice or type;
# verify requires none, so it takes a bad choice and a bad type.
PARSE_ERRORS = {
    "repr": ("--n 5", "--fn r3 --n 5"),
    "member": ("--n 3", "--set square2 --n x"),
    "eta": ("--a 1", "--a 1 --q x"),
    "lambda": ("--p 3 --j 1", "--a x"),
    "beta": ("--a 1", "--psi chi4 --a 1 --eps nan"),
    "etastar": ("--psi chi4", "--psi chi4 --a x"),
    "mainterm": ("--a 1 --eps 1e-3", "--psi chi4 --a 1 --eps abc"),
    "muller": ("--psi chi4 --a 1", "--psi chi4 --rho chi4 --a 1 --format xml"),
    "correlate": ("--a 1", "--kind k --a 1 --x 5"),
    "census": ("--set1 square2 --set2 square2 --a 1 --x 1",
               "--set1 square2 --len 9 --witness-cap x"),
    "gap": ("--a 1", "--a 1 --x 5 --pair z"),
    "verify": ("--suite none", "--budget 1 --seed x"),
}
TOP_LEVEL = ["", "--help", "nosuch", "--version", "--format csv census"]


@pytest.mark.parametrize("command", [*PARSE_ERRORS, "top-level"])
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch, command):
    if command == "top-level":
        forms = [form.split() for form in TOP_LEVEL]
    else:
        forms = [[command, *tail.split()] for tail in ("--help", *PARSE_ERRORS[command])]
    mine = [parse_outcome(capsys, argv) for argv in forms]
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    assert [parse_outcome(capsys, argv) for argv in forms] == mine
    if command == "top-level":
        assert mine[1][0] == 0 and all(name in mine[1][1] for name in cli.COMMANDS)
    else:
        assert mine[0][0] == 0 and mine[0][1].startswith(f"usage: formgaps {command} [-h]")
        assert all(code == 1 and err.startswith("usage error:") for code, _, err in mine[1:])


def test_a_command_builds_its_own_subparser_alone(capsys, monkeypatch):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda command=None: built.append(command) or build(command))
    assert run(capsys, "repr", "--fn", "r2", "--n", "25")[:2] == (0, "25,12\n")
    assert run(capsys, "nosuch")[0] == 1
    assert built == ["repr", None]
    with pytest.raises(cli._UsageError, match="invalid choice: 'repr'"):
        build("census").parse_args(["repr", "--fn", "r2", "--n", "25"])


def test_verify_budget_is_finite_and_capped(capsys, monkeypatch):
    from formgaps import verify

    def ran(budget, seed):
        raise AssertionError(f"a suite ran at budget {budget}")

    monkeypatch.setattr(verify, "_SUITES", dict.fromkeys(verify._SUITES, ran))
    for budget in ("inf", "-inf", "nan"):
        code, out, err = run(capsys, "verify", "--budget", budget)
        assert (code, out) == (1, "") and err.startswith("usage error:"), budget
    for budget in ("1e300", str(verify.BUDGET_MAX * 1.01)):
        code, out, err = run(capsys, "verify", "--budget", budget)
        assert (code, out) == (2, "") and err.startswith("budget exceeded:"), budget
    assert run(capsys, "verify", "--budget", str(verify.BUDGET_MAX))[0] == 3  # runs


def test_out_file(tmp_path, capsys):
    path = tmp_path / "row.csv"
    code, out, _ = run(capsys, "repr", "--fn", "r2", "--n", "25", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == "25,12\n"


def launch(command, stdout=subprocess.PIPE, unbuffered=False):
    """`python -m formgaps` in a fresh process, by default with block-buffered
    stdout, as on a host without PYTHONUNBUFFERED: there, output that no one
    flushes is lost when entry ends the process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "formgaps", *command.split()], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env={**env, "PYTHONPATH": str(SRC)})


WIDE_CENSUS = "census --set1 square2 --set2 square2 --a 1 --x 1 --len 100000 --witness-cap -1"


def test_console_entry_point():
    proc = launch("repr --fn r2 --n 25")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "25,12\n", "")
    proc = launch(WIDE_CENSUS)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, len(lines), lines[1], lines[-1]) == (
        0, 5092, "square2,square2,1,1,100000,5090", "W,99985")
    proc = launch("--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0.1.0\n", "")
    proc = launch("beta --psi chi4 --a 5 --eps nan")
    assert (proc.returncode, proc.stdout) == (1, "") and proc.stderr.startswith("usage error:")
    proc = launch("census --set1 diamond:-1000003 --set2 square2 --a 1 --x 1 --len 9")
    assert (proc.returncode, proc.stdout) == (2, "") and proc.stderr.startswith("budget exceeded:")


# Forms that never touch an array: in a fresh interpreter, none of them may
# load numpy.  A census below 2^32 keeps its masks as bytes: a shared window,
# the x = 0 head, triangle_star, a diamond and two chunks.  A correlation up to
# n + a = BYTES_F_MAX sums F as bytes, up to the cap itself for the last.  The
# census above 2^32 after them loads numpy, and must still print what it did
# when the package imported numpy eagerly.
NUMPY_FREE_FORMS = [
    "repr --fn r2 --n 999999999999999989",
    "repr --fn R2 --n 999999999999999877",
    "repr --fn ideal --n 91 --disc -3",
    "member --set square2 --n 1000000000000000001",
    "member --set triangle_star --n 1000000000000000007",
    "member --set triangle --n 49",
    "member --set diamond:-23 --n 6",
    "eta --a 3 --q 45",
    "lambda --p 3 --j 2 --a 9",
    "beta --psi chi4 --a 5",
    "muller --psi chi4 --rho chi4 --a 3",
    "gap --pair sq2 --a 3 --x 1000000",
    "gap --pair tri --a 5 --x 1000000",
    "mainterm --psi chi6 --a 1",
    "etastar --psi chi4 --a 3",
    "eta --a 7 --q 90",
    "lambda --p 2 --j 3 --a 1",
    "lambda --a 3 --bar 15",
    "eta --a 0 --q 12",
    "lambda --p 3 --j 2 --a 0",
    "lambda --a 0 --bar 45",
    "census --set1 square2 --set2 diamond:-4 --a 3 --x 999999000 --len 300",
    "census --set1 square2 --set2 diamond:-4 --a 0 --x 0 --len 40 --witness-cap -1",
    "census --set1 triangle_star --set2 square2 --a 1 --x 1000000 --len 1000",
    "census --set1 diamond:-23 --set2 triangle --a 1 --x 1 --len 600",
    f"census --set1 triangle --set2 square2 --a 1 --x 999000000 --len {DEFAULT_CHUNK} --witness-cap 2",
    "correlate --kind j --psi chi6 --a 7 --x 100000",
    "correlate --kind j --psi chi4 --a -5 --x 300000",
    "correlate --kind estermann --a 3 --x 200000",
    "correlate --kind general --psi chi4 --rho chi4 --a 2 --x 1081077",
]
# argv: a module, the forms that must not load it, and one form run last
BOUNDARY_CHILD = """
import contextlib, io, sys
from formgaps.cli import main
module, *forms, last = sys.argv[1:]
for form in forms:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(form.split()) == 0, form
    assert module not in sys.modules, form
sys.exit(main(last.split()))
"""


def test_numpy_free_forms_do_not_import_numpy():
    census = "census --set1 triangle --set2 diamond:-23 --a -7 --x 999999999000 --len 300"
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARY_CHILD, "numpy", *NUMPY_FREE_FORMS, census],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "set1,set2,a,x,H,count\ntriangle,diamond:-23,-7,999999999000,300,7\n"
        + "".join(f"W,{n}\n" for n in (999999999013, 999999999057, 999999999100, 999999999133,
                                        999999999193, 999999999283, 999999999289))
    )


# Windows of one chunk run on the calling thread, so even with --threads 2
# they load no pool module.  The census of two chunks after them builds its
# pool, and must print what one thread prints.
POOL_FREE_FORMS = [
    "census --set1 triangle --set2 square2 --a 1 --x 999000000 --len 1000000 --threads 2",
    "correlate --kind general --psi chi4 --rho chi4 --a 2 --x 100000 --threads 2",
]


def test_one_chunk_windows_load_no_pool(capsys):
    census = ("census --set1 square2 --set2 square2 --a 1 --x 1 --witness-cap 0 "
              f"--len {DEFAULT_CHUNK + 1} --threads")
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARY_CHILD, "concurrent.futures", *POOL_FREE_FORMS,
         f"{census} 2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, *f"{census} 1".split())[1]


# Replaces main by a probe that imports numpy, then reports this process's
# thread count and whether the cyclic collector is on.
ENTRY_PROBE = """
import gc, os
import formgaps.cli as cli

def probe(argv=None):
    import numpy
    print(len(os.listdir("/proc/self/task")), gc.isenabled(), flush=True)
    return 0

assert "OPENBLAS_NUM_THREADS" not in os.environ  # importing the package sets nothing
assert gc.isenabled()  # nor turns the collector off
cli.main = probe
cli.entry()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="counts threads through /proc/self/task; one CPU starts no pool")
def test_entry_keeps_blas_at_one_thread():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", ENTRY_PROBE], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 False\n"


# Short output sits in stdout's buffer until the flush; --version and --help
# are printed by argparse, which exits; the wide census overflows the buffer
# while printing.  Unbuffered, the write itself fails.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["repr --fn r2 --n 25", "--version", "--help", WIDE_CENSUS])
def test_unwritable_stdout_is_a_usage_error(command, unbuffered):
    with open("/dev/full", "w") as full:
        proc = launch(command, stdout=full, unbuffered=unbuffered)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage error:") and len(proc.stderr.splitlines()) == 1


def test_closed_pipe_is_a_usage_error():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = launch("repr --fn r2 --n 25", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage error:") and len(proc.stderr.splitlines()) == 1


# entry runs main with the cyclic collector off, so a cycle the library made
# would stay in memory until the process ends.  No call is warmed up first:
# as the first call of a fresh process, after `import numpy`, each leaves none.
NO_CYCLE_CALLS = {
    "census_one_chunk": lambda: census_interval(parse_set("triangle"), parse_set("square2"), 1,
                                                10 ** 9, 10 ** 5, witness_cap=10, threads=1),
    "census_two_chunks": lambda: census_interval(parse_set("square2"), parse_set("square2"), 1,
                                                 1, DEFAULT_CHUNK + 1, witness_cap=0, threads=2),
    "correlation_J": lambda: correlation_J(make_character("chi6"), 1, 10 ** 5),
    "main_term": lambda: main_term(make_character("chi6"), 1, 1e-8),
    "muller_main": lambda: muller_main(make_character("kronecker:5"),
                                       make_character("kronecker:5"), 1, 1e-8),
    "gap_triangle_square2": lambda: gap_triangle_square2(1, 10 ** 6),
    "run_suite": lambda: run_suite("all", budget=0.3),
}


@pytest.mark.parametrize("name", NO_CYCLE_CALLS)
def test_library_leaves_no_cyclic_garbage(name):
    import numpy  # noqa: F401  (its import makes cycles of its own)

    gc.collect()
    gc.disable()
    try:
        NO_CYCLE_CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()


# CSV census and repr print no JSON and no Fraction, so they load neither module.
JSON_FREE_FORMS = [
    "repr --fn r2 --n 999999999999999989",
    "repr --fn R2 --n 49 --mode enumerate",
    "repr --fn ideal --n 91 --disc -3",
    "census --set1 square2 --set2 square2 --a 1 --x 1 --len 9",
    "census --set1 triangle --set2 diamond:-23 --a -7 --x 999999000 --len 300",
]


@pytest.mark.parametrize("module", ["json", "fractions"])
def test_csv_forms_load_no_json_or_fractions(module):
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARY_CHILD, module, *JSON_FREE_FORMS,
         "eta --a 5 --q 5 --format json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"a": 5, "eta": 9, "lambda": "9/5", "q": 5}\n'


def test_no_command_loads_dataclasses():
    forms = [*NUMPY_FREE_FORMS, *JSON_FREE_FORMS,
             "correlate --kind general --psi chi4 --rho chi4 --a 2 --x 500",
             "verify --suite all --budget 0.01"]
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARY_CHILD, "dataclasses", *forms, "repr --fn r2 --n 25"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "25,12\n"


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


# Values for the CLI sweep: small ones, 0 and negatives, one past 2^63 and one
# at 2^70; sweep_argv also leaves flags out and passes tokens that are no number.
HUGE = [2 ** 63 + 1, 2 ** 70]
ANY = st.one_of(st.integers(-5, 10 ** 6), st.sampled_from([0, -1, *HUGE]))
SMALL = st.integers(-5, 300)
PSI = st.sampled_from(["chi3", "chi4", "chi6", "kronecker:5", "kronecker:8", "kronecker:12", "chi9"])
SET = st.sampled_from(["square2", "triangle", "triangle_star", "diamond:-4", "diamond:-23",
                       "diamond:12", "circle"])
EPS = st.sampled_from([1e-3, 1e-2, 0, -1])

# (form, its flags and their values); enumeration stays small or passes its
# cap, brute counts, correlations and gap shifts stay small (the norm-form
# scan of gap runs over m <= sqrt(|a| / 2)), verify runs no check
SWEEP = [
    ("repr", {"--fn": st.sampled_from(["r2", "R2", "ideal", "r3"]), "--n": ANY,
              "--disc": st.sampled_from([-3, -4, 5, 12, 0])}),
    ("repr --mode enumerate", {"--fn": st.sampled_from(["r2", "R2"]),
                               "--n": st.one_of(SMALL, st.sampled_from([10 ** 12 + 1, *HUGE]))}),
    ("member", {"--set": SET, "--n": st.one_of(ANY, st.integers(0, 2 ** 63 - 1))}),
    ("eta", {"--a": ANY, "--q": ANY}),
    ("eta --brute", {"--a": ANY, "--q": SMALL}),
    ("lambda", {"--p": st.one_of(SMALL, st.sampled_from(HUGE)), "--j": st.integers(-2, 12),
                "--a": ANY}),
    ("lambda", {"--a": ANY, "--bar": ANY}),
    ("beta", {"--psi": PSI, "--a": ANY, "--eps": EPS}),
    ("etastar", {"--psi": PSI, "--a": ANY}),
    ("mainterm", {"--psi": PSI, "--a": ANY, "--eps": EPS}),
    ("muller", {"--psi": PSI, "--rho": PSI, "--a": ANY, "--eps": EPS}),
    ("correlate --eps 1e-3", {"--kind": st.sampled_from(["j", "general", "estermann"]),
                              "--psi": PSI, "--rho": PSI, "--a": ANY,
                              "--x": st.one_of(SMALL, st.sampled_from(HUGE))}),
    ("census", {"--set1": SET, "--set2": SET, "--a": ANY,
                "--x": st.one_of(st.integers(-5, 10 ** 6), st.sampled_from(HUGE)),
                "--len": st.one_of(SMALL, st.just(2 * 10 ** 9)),
                "--witness-cap": st.sampled_from([-1, 0, 5])}),
    ("gap", {"--a": st.integers(-10 ** 6, 10 ** 6), "--x": st.one_of(ANY, st.just(10 ** 40)),
             "--pair": st.sampled_from(["sq2", "tri"])}),
    ("verify --budget 0", {"--suite": st.sampled_from(["oracles", "all", "none"]),
                           "--seed": SMALL}),
]


@st.composite
def sweep_argv(draw):
    form, flags = draw(st.sampled_from(SWEEP))
    argv = form.split()
    for flag, values in flags.items():
        pick = draw(st.integers(0, 19))  # 0: leave the flag out, 1: no number
        if pick:
            argv += [flag, "x" if pick == 1 else str(draw(values))]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


# run() reads capsys empty after each call, so the shared fixture is safe
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(argv=sweep_argv())
def test_cli_sweep_exit_codes(capsys, argv):
    # 0 answers, 1 is a usage error, 2 a budget or input cap; 3 would be an
    # internal fault, and no exception may escape main
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2), (argv, err)
    assert err.startswith("usage error:") == (code == 1), (argv, err)
    assert err.startswith("budget exceeded:") == (code == 2), (argv, err)
    assert (out != "") == (code == 0), (argv, err)
