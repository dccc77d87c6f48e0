"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; they start subprocesses and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    p = _bench("bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name in result["metrics"]:
        assert name in p.stdout.split(json.dumps(result))[0]  # also in the readable table


def test_workload_lists_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        a = workloads.generate(w, 11, 2)
        assert a == workloads.generate(w, 11, 2)
        assert a != workloads.generate(w, 12, 2)


def test_census_bands_hold_each_set_once_per_side():
    cmds = workloads.generate("census", 5, 2)
    lengths = sorted(int(c.argv[c.argv.index("--len") + 1]) for c in cmds)
    for band in range(5):
        members = [c for c in cmds if int(c.argv[c.argv.index("--len") + 1])
                   in lengths[5 * band: 5 * band + 5]]
        assert {c.argv[2] for c in members} == set(workloads.CENSUS_SETS)
        assert {c.argv[4] for c in members} == set(workloads.CENSUS_SETS)


def _corrupt(workload: str, edit) -> run.Record:
    cmd = workloads.generate(workload, 3, 2, tiny=True)[1]
    launcher = run.Launcher(BENCH / "out" / "selftest")
    try:
        rec = launcher.run(run.formgaps_cmd(cmd.argv), cmd.argv)
    finally:
        launcher.close()
    checker = checks.Checker()
    run.judge([rec], [cmd], checker, None)
    assert rec.code == 0 and not rec.failed, rec.wrong
    rec.stdout = edit(rec.stdout.decode()).encode()
    run.judge([rec], [cmd], checker, None)
    return rec


def _bump_J(out: str) -> str:
    header, row = out.splitlines()[:2]
    fields = row.split(",")
    fields[3] = str(int(fields[3]) + 1)
    return "\n".join([header, ",".join(fields)])


@pytest.mark.parametrize("workload, edit", [
    ("census", lambda out: out.replace("\nW,", "\nW,1", 1)),
    ("correlate", _bump_J),
])
def test_corrupted_answer_counts_as_failed(workload, edit):
    rec = _corrupt(workload, edit)
    assert rec.wrong and rec.failed and rec.unexpected
    metrics = run.end_to_end([[rec]], workloads.generate(workload, 3, 2, tiny=True)[1:2], 0.1)
    assert metrics["ok_frac"][0] == 0.0


@pytest.mark.parametrize("kind", [("--kind", "estermann"), ("--kind", "j", "--psi", "chi4")])
def test_correlate_checks_accept_negative_shifts(kind):
    argv = ("correlate", *kind, "--a", "-30", "--x", "3000")
    out = subprocess.run(run.formgaps_cmd(argv), env=run.Launcher.child_env(),
                         capture_output=True, text=True, check=True).stdout
    assert checks.Checker().check(argv, out) == ""


def test_scalar_checks_reject_wrong_values():
    c = checks.Checker()
    assert c.check(("repr", "--fn", "r2", "--n", "25"), "25,12\n") == ""
    assert c.check(("repr", "--fn", "r2", "--n", "25"), "25,8\n")
    gap = {"a": 3, "x": 10, "n": 17, "offset": 7, "branch": "SQ2_SQ2",
           "params": {"s": 4, "t": 0, "odd_shift": 3, "base": 17, "sqrt_ratio": 2.2}}
    argv = ("gap", "--pair", "sq2", "--a", "3", "--x", "10")
    assert c.check(argv, json.dumps(gap)) == ""
    gap["n"] = gap["params"]["base"] = 18
    gap["offset"] = 8
    assert c.check(argv, json.dumps(gap))


def test_known_failure_counts_as_failed_but_expected():
    cmd = workloads.Command(("beta", "--psi", "chi4", "--a", "3", "--eps", "1e-9"), 1,
                            "budget", (2,))
    rec = run.Record(cmd.argv, 2, False, 0.2, 0.2, 30000, b"", b"budget exceeded")
    run.judge([rec], [cmd], None, None)
    assert rec.failed and rec.expected and not rec.unexpected
    rec = run.Record(cmd.argv, 3, False, 0.2, 0.2, 30000, b"", b"internal invariant failure")
    run.judge([rec], [cmd], None, None)
    assert rec.failed and rec.unexpected


def test_trace_fails_loudly_when_a_listed_function_is_missing():
    import formgaps.cli  # noqa: F401

    with pytest.raises(tracing.MissingLayer, match="no_such_function"):
        tracing.install(tracing.Recorder(), {"characters": ("F_window", "no_such_function")})


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "cli.main", 0.0, 10.0, False, None),
        (2, 1, "census.census_interval", 1.0, 5.0, False, None),
        (3, 1, "characters.F_window", 3.0, 7.0, False, None),  # overlaps span 2
        (4, 2, "characters.F_window", 2.0, 3.0, True, None),
    ]
    self_s = tracing.self_times(spans)
    assert self_s == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}
    totals = tracing.Totals()
    totals.add(spans)
    m = totals.metrics()
    assert m["characters.F_window.calls"][0] == 2 and m["characters.F_window.failed"][0] == 1
    assert m["trace.coverage"][0] == 0.6


def test_tail_keeps_ten_samples_above():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0


def test_fails_without_program_sources():
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = _bench("bench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
