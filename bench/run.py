"""formgaps benchmark: seeded lists of CLI commands, timed end to end or traced.

    python3 bench/run.py --workload census|correlate|scalar --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from anywhere inside a checkout; the program is taken from its src/.
One client runs the workload's command list as a closed loop, each command a
fresh `python -m formgaps` process, and repeats the list while another round
fits in --seconds (at least one round).  Every answer is checked after the
timed region; a command fails if it exits non-zero, times out or answers
wrong.  The last stdout line is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The traced run replays the list once untraced and
once in-process under timing wrappers (bench/trace_child.py).  The command
list, per-command records and spans go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 5  # fresh `--version` processes per run; setup_s is their median
COMMAND_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 140.0  # no command starts later than this into the run


@dataclass
class Record:
    argv: tuple[str, ...]
    code: int | None  # None: not started before the run deadline
    timed_out: bool
    wall: float
    cpu: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    wrong: str = ""
    expected: bool = False  # a documented baseline failure

    @property
    def failed(self) -> bool:
        return self.code != 0 or self.timed_out or bool(self.wrong)

    @property
    def unexpected(self) -> bool:
        return self.failed and not self.expected


class Launcher:
    """Runs one child at a time, timing it and reading its rusage from wait4."""

    def __init__(self, scratch: Path):
        scratch.mkdir(parents=True, exist_ok=True)
        self.env = self.child_env()
        self.out = open(scratch / "stdout.tmp", "w+b")
        self.err = open(scratch / "stderr.tmp", "w+b")
        self.started = time.perf_counter()

    @staticmethod
    def child_env() -> dict:
        """This environment with the checkout's src/ first on PYTHONPATH."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return env

    def close(self) -> None:
        self.out.close()
        self.err.close()

    def run(self, cmd: list[str], argv: tuple[str, ...]) -> Record:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            return Record(argv, None, True, 0.0, 0.0, 0, b"", b"run deadline passed")
        for fh in (self.out, self.err):
            fh.seek(0)
            fh.truncate()
        timed_out = threading.Event()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=self.out, stderr=self.err, env=self.env, cwd=ROOT)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(min(COMMAND_TIMEOUT_S, left), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.out.seek(0)
        self.err.seek(0)
        return Record(argv, proc.returncode, timed_out.is_set(), wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      self.out.read(), self.err.read())


def formgaps_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "formgaps", *argv]


def run_round(launcher: Launcher, commands, cmd_for) -> list[Record]:
    return [launcher.run(cmd_for(i, c.argv), c.argv) for i, c in enumerate(commands)]


def judge(records: list[Record], commands, checker, first: list[Record] | None) -> None:
    """Mark wrong answers and documented failures; repeats must match round one."""
    for i, (rec, cmd) in enumerate(zip(records, commands)):
        if rec.code is None or rec.timed_out:
            continue
        if rec.code != 0:
            rec.expected = bool(cmd.known_failure) and rec.code in cmd.allowed_codes
        elif first is not None and first[i].code == 0:
            if rec.stdout != first[i].stdout:
                rec.wrong = "output differs from the first run of this command"
        else:
            rec.wrong = checker.check(cmd.argv, rec.stdout.decode())


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that percentile."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    i = len(v) - 11
    return v[i], 100.0 * (i + 1) / len(v)


def end_to_end(rounds: list[list[Record]], commands, setup_s: float) -> dict:
    records = [r for rnd in rounds for r in rnd]
    walls = [r.wall for r in records]
    ints = sum(c.ints for c in commands) * len(rounds)
    failed = sum(r.failed for r in records)
    tail_s, tail_pct = tail(walls)
    return {
        "wall_s": (statistics.median(sum(r.wall for r in rnd) for rnd in rounds), "s"),
        "cmd_p50_s": (statistics.median(walls), "s"),
        "cmd_tail_s": (tail_s, "s", f"p{tail_pct:.0f} of {len(walls)} commands"),
        "ints_per_s": (ints / sum(walls), "1/s"),
        "cpu_s": (statistics.median(sum(r.cpu for r in rnd) for rnd in rounds), "s"),
        "peak_rss_mb": (statistics.median(r.rss_kb / 1024 for r in records), "MB"),
        "setup_s": (setup_s, "s", f"median of {SETUP_LAUNCHES} launches"),
        "ok_frac": (1 - failed / len(records), "ratio",
                    f"fail_frac {failed / len(records):.4f}: {failed} of {len(records)} failed"),
    }


def exit_counts(records: list[Record]) -> dict:
    return {
        "cli.exit1": (sum(r.code == 1 for r in records), "count"),
        "cli.exit2": (sum(r.code == 2 for r in records), "count"),
        "cli.exit3": (sum(r.code == 3 for r in records), "count"),
        "cli.timeout": (sum(r.timed_out for r in records), "count"),
        "cli.wrong": (sum(bool(r.wrong) for r in records), "count"),
    }


def measure_setup(launcher: Launcher, version: str) -> float:
    times = []
    for _ in range(SETUP_LAUNCHES):
        rec = launcher.run(formgaps_cmd(["--version"]), ("--version",))
        if rec.code != 0 or rec.stdout.decode().strip() != version:
            raise SystemExit(f"formgaps --version failed: {rec.stderr.decode()[-400:]}")
        times.append(rec.wall)
    return statistics.median(times)


def write_records(path: Path, rounds: list[list[Record]], commands) -> None:
    rows = []
    for n, rnd in enumerate(rounds):
        for rec, cmd in zip(rnd, commands):
            rows.append({
                "round": n, "argv": list(rec.argv), "exit_code": rec.code,
                "timed_out": rec.timed_out, "wrong": rec.wrong,
                "known_failure": cmd.known_failure if rec.expected else "",
                "wall_s": rec.wall, "cpu_s": rec.cpu, "peak_rss_kb": rec.rss_kb,
                "stdout_sha256": hashlib.sha256(rec.stdout).hexdigest(),
                "stderr_tail": rec.stderr.decode(errors="replace")[-300:],
            })
    path.write_text(json.dumps(rows, indent=1) + "\n")


def report(title: str, metrics: dict, records: list[Record]) -> None:
    print(title)
    for name, (value, unit, *note) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note[0] if note else ''}")
    for rec in records:
        if rec.failed:
            kind = ("known failure" if rec.expected else
                    "timeout" if rec.timed_out else
                    f"wrong: {rec.wrong}" if rec.wrong else f"exit {rec.code}")
            msg = rec.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            print(f"  FAILED ({kind}) formgaps {shlex.join(rec.argv)}  {msg[0][:120]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    args = ap.parse_args()
    # SIGTERM becomes SystemExit, so a running child is killed and reaped first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "formgaps" / "cli.py").is_file():
        print(f"bench: no formgaps sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import formgaps

    if Path(formgaps.__file__).resolve().parent != SRC / "formgaps":
        print(f"bench: formgaps imported from {formgaps.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks

    threads = len(os.sched_getaffinity(0))
    commands = workloads.generate(args.workload, args.seed, threads, args.tiny)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "") + \
        ("-tiny" if args.tiny else "")
    out = BENCH / "out" / tag
    out.mkdir(parents=True, exist_ok=True)
    (out / "commands.txt").write_text(
        "".join(f"formgaps {shlex.join(c.argv)}\n" for c in commands))
    launcher = Launcher(out)
    checker = checks.Checker()
    try:
        if args.trace:
            metrics, rounds, correct = traced_run(launcher, commands, checker, out)
        else:
            metrics, rounds, correct = timed_run(launcher, commands, checker, args.seconds,
                                                 formgaps.__version__)
    finally:
        launcher.close()
    records = [r for rnd in rounds for r in rnd]
    write_records(out / "results.json", rounds, commands)
    report(f"{args.workload} seed={args.seed} threads={threads} commands={len(commands)} "
           f"rounds={len(rounds)} trace={args.trace}" + (" tiny" if args.tiny else ""),
           metrics, records)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def timed_run(launcher: Launcher, commands, checker, seconds: float, version: str):
    setup_s = measure_setup(launcher, version)
    rounds, t0 = [], time.perf_counter()
    while True:
        rounds.append(run_round(launcher, commands, lambda i, argv: formgaps_cmd(argv)))
        if time.perf_counter() - t0 + sum(r.wall for r in rounds[-1]) > seconds:
            break
    t_check = time.perf_counter()
    for rnd in rounds:
        judge(rnd, commands, checker, None if rnd is rounds[0] else rounds[0])
    print(f"answers checked in {time.perf_counter() - t_check:.1f} s")
    correct = not any(r.unexpected for rnd in rounds for r in rnd)
    return end_to_end(rounds, commands, setup_s), rounds, correct


def traced_run(launcher: Launcher, commands, checker, out: Path):
    import trace_child
    import tracing

    plain = run_round(launcher, commands, lambda i, argv: formgaps_cmd(argv))
    judge(plain, commands, checker, None)
    spans_dir = out / "spans"
    spans_dir.mkdir(exist_ok=True)
    for stale in spans_dir.glob("*.json"):
        stale.unlink()

    def traced_cmd(i, argv):
        return [sys.executable, str(BENCH / "trace_child.py"),
                str(spans_dir / f"{i:03d}.json"), "--", *argv]

    traced = run_round(launcher, commands, traced_cmd)
    judge(traced, commands, checker, None)
    totals = tracing.Totals()
    for i, rec in enumerate(traced):
        path = spans_dir / f"{i:03d}.json"
        if rec.timed_out:
            continue
        if rec.code == trace_child.MISSING_LAYER_EXIT or not path.is_file():
            raise SystemExit(f"bench: trace failed for formgaps {shlex.join(rec.argv)}: "
                             f"{rec.stderr.decode(errors='replace')[-400:]}")
        totals.add([tuple(s) for s in json.loads(path.read_text())])
    metrics = totals.metrics()
    metrics.update(exit_counts(traced))
    metrics["trace.overhead_s"] = (sum(r.wall for r in traced) - sum(r.wall for r in plain), "s")
    correct = not any(r.unexpected for r in plain + traced)
    return metrics, [traced], correct


if __name__ == "__main__":
    sys.exit(main())
