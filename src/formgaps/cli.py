"""Command-line front end.

One subcommand per library capability.  Each builds one record, an ordered
map from field name to value, which _render prints once as CSV (default) or
JSON.  CSV is a header of the field names (repr, member, eta and lambda
--p/--j print none) and one row: floats as .15g, booleans as true/false, None
as an empty cell, anything else by str.  JSON is json.dumps(record,
sort_keys=True), strict: a non-finite float is null there (CSV keeps nan);
Fractions enter records as str.  census adds a `W,<n>` line
per witness to CSV and a `witnesses` list to JSON, repr's `fn` key is in JSON
only, verify prints one row per check, and gap prints JSON only.  Output is
deterministic for fixed flags, whatever the thread count.  Each handler
imports what it calls, so a process loads only its command's modules; a
census below 2^32 keeps its masks as bytes and loads no numpy.

COMMANDS declares each command once: its help line, handler and arguments.
main builds the subparser of the command that argv names, and no other:
argparse takes about 0.25 ms to add one subparser, so the twelve cost about
3 ms of every command's start-up, and a command's parse never reads the
others.  Any other argv (no command, --help, --version, an unknown name)
gets the parser of every command, so each help text, usage line and error
message is the one the full parser prints.

entry is the process entry point (`python -m formgaps` and the console
script) and owns its process: it keeps numpy's BLAS at one thread, turns the
cyclic garbage collector off before main runs, and ends the process with
os._exit, skipping interpreter finalization.  That is safe because _write
flushes stdout itself, inside main, as _Parser._print_message does for
--help and --version, so an unwritable stdout is a usage error (exit 1).
main leaves the environment, the collector and the interpreter alone, so a
host program that calls it or imports the library keeps its own settings.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import __version__
from .errors import BudgetError, InvariantError


EPS_HELP = (
    "error bound asked of the constant; odd real characters take the exact closed form, rounded "
    "once, and other characters a truncated series; exit 2 when the bound would exceed eps"
)
PSI_HELP = "chi3, chi4, chi6, trivial:K or kronecker:D, with K and |D| at most 10^5 (exit 2 above)"
SHIFT_HELP = "the shift a: any integer, 0 included"
SET_HELP = "square2, triangle, triangle_star or diamond:D, with |D| at most 10^5 (exit 2 above)"
WINDOW_HELP = "the window holds at most 10^9 integers (exit 2 above), at any height to 2^63 - 1"
DESCRIPTION = ("Exact counts, densities, constants, correlation sums, censuses and gap witnesses "
               "for the values of x^2 + y^2 and x^2 + xy + y^2. Exit codes: 0 success, 1 usage "
               "error, 2 budget exceeded, 3 internal invariant failure.")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _print_message(self, message, file=None):
        # argparse's own swallows OSError; here --help or --version into a full disk exits 1
        file = file or sys.stderr
        file.write(message)
        file.flush()


def _eps(text: str) -> float:
    """The --eps type: a float, inf included, but not NaN, which no bound meets."""
    try:
        eps = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if math.isnan(eps):
        raise argparse.ArgumentTypeError(f"eps must be a number, got {text!r}")
    return eps


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.15g}"
    return "" if v is None else str(v)


def _render(args, record: dict, header: bool = True, tail=(), extra=None) -> str:
    """record in args.format: JSON with the JSON-only fields of extra, or CSV
    with the field names (if header), the row, then the lines of tail."""
    if args.format == "json":
        import json
        record = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                  for k, v in {**record, **(extra or {})}.items()}
        return json.dumps(record, sort_keys=True, allow_nan=False)
    lines = [",".join(record)] if header else []
    return "\n".join([*lines, ",".join(map(_cell, record.values())), *tail])


def _run_repr(args):
    from . import repr_sets
    if args.fn != "ideal":
        v = getattr(repr_sets, args.fn)(args.n, args.mode)  # r2 or R2
    elif args.mode == "enumerate":
        raise ValueError("--mode enumerate applies to r2 and R2 only")
    else:
        v = repr_sets.ideal_count(args.n, args.disc)
    return _render(args, {"n": args.n, "value": v}, header=False, extra={"fn": args.fn})


def _run_member(args):
    from .repr_sets import is_member, parse_set
    s = parse_set(args.set1)
    return _render(args, {"set": str(s), "n": args.n, "member": is_member(s, args.n)},
                   header=False)


def _run_eta(args):
    from fractions import Fraction

    from .local_densities import eta, eta_brute
    e = (eta_brute if args.brute else eta)(args.a, args.q)
    return _render(args, {"a": args.a, "q": args.q, "eta": e, "lambda": str(Fraction(e, args.q))},
                   header=False)


def _run_lambda(args):
    from .local_densities import lambda_bar, lambda_prime_power
    if args.bar is not None:
        lam = lambda_bar(args.a, args.bar)
        return _render(args, {"a": args.a, "n": args.bar, "lambda_bar": str(lam),
                              "f": str(args.bar * lam)})
    if args.p is None or args.j is None:
        raise ValueError("lambda requires --p and --j (or --bar N)")
    lam = lambda_prime_power(args.p, args.j, args.a)
    return _render(args, {"p": args.p, "j": args.j, "a": args.a, "lambda": str(lam)},
                   header=False)


def _run_beta(args):
    from .analytic_constants import beta
    from .characters import make_character
    psi = make_character(args.psi)
    tv = beta(psi, args.a, args.eps)
    return _render(args, {"psi": psi.name, "a": args.a, "value": tv.value,
                          "error_bound": tv.error_bound, "terms": tv.terms_used})


def _run_etastar(args):
    from .analytic_constants import eta_star
    from .characters import make_character
    psi = make_character(args.psi)
    coeff = eta_star(psi, args.a)
    return _render(args, {"psi": psi.name, "a": args.a, "pi_coeff": str(coeff),
                          "value": float(coeff) * math.pi})


def _run_mainterm(args):
    from .analytic_constants import main_term
    from .characters import make_character
    psi = make_character(args.psi)
    tv = main_term(psi, args.a, args.eps)
    return _render(args, {"psi": psi.name, "a": args.a, "value": tv.value,
                          "error_bound": tv.error_bound})


def _run_muller(args):
    from .analytic_constants import muller_main
    from .characters import make_character
    psi, rho = make_character(args.psi), make_character(args.rho)
    tv = muller_main(psi, rho, args.a, args.eps)
    return _render(args, {"psi": psi.name, "rho": rho.name, "a": args.a, "value": tv.value,
                          "error_bound": tv.error_bound})


def _run_correlate(args):
    from .analytic_constants import main_term, muller_main
    from .census import correlation_J, correlation_general, estermann_correlation
    from .characters import make_character
    from .util import resolve_threads
    threads = resolve_threads(args.threads)
    m = None
    if args.kind == "j":
        psi = make_character(args.psi)
        m = main_term(psi, args.a, args.eps).value  # a psi without one fails before the sum
        name, J = psi.name, correlation_J(psi, args.a, args.x, threads=threads)
    elif args.kind == "general":
        psi, rho = make_character(args.psi), make_character(args.rho)
        name = f"{psi.name}*{rho.name}"
        try:  # before the sum, so an eps out of reach fails at once
            m = muller_main(psi, rho, args.a, args.eps).value
        except ValueError:  # the pair has no Müller main term
            pass
        J = correlation_general(psi, rho, args.a, args.x, threads=threads)
    else:
        name, J = "r2", estermann_correlation(args.a, args.x, threads=threads)
    ratio = None
    if m is not None:
        ratio = J / (m * args.x) if m > 0 and args.x > 0 else float("nan")
    return _render(args, {"psi": name, "a": args.a, "x": args.x, "J": J, "main": m,
                          "ratio": ratio})


def _run_census(args):
    from .census import census_interval
    from .repr_sets import parse_set
    from .util import resolve_threads
    cap = None if args.witness_cap < 0 else args.witness_cap
    rec = census_interval(parse_set(args.set1), parse_set(args.set2), args.a, args.x,
                          args.length, witness_cap=cap, threads=resolve_threads(args.threads))
    return _render(args, {"set1": str(rec.set1), "set2": str(rec.set2), "a": rec.a, "x": rec.x,
                          "H": rec.H, "count": rec.count},
                   tail=[f"W,{w}" for w in rec.witnesses],
                   extra={"witnesses": list(rec.witnesses)})


def _run_gap(args):
    import json

    from .gaps import gap_square2_square2, gap_triangle_square2

    fn = gap_square2_square2 if args.pair == "sq2" else gap_triangle_square2
    w = fn(args.a, args.x)  # gap output is JSON only
    return json.dumps({"a": w.a, "x": w.x, "n": w.n, "offset": w.offset, "branch": w.branch,
                       "params": w.params}, sort_keys=True)


def _run_verify(args):
    from .verify import run_suite
    results = run_suite(args.suite, budget=args.budget, seed=args.seed)
    failed = sum(not r.ok for r in results)
    if args.format == "json":
        import json
        text = json.dumps({"suite": args.suite, "failed": failed, "results": [
            {"suite": r.suite, "name": r.name, "ok": r.ok, "checks": r.checks} for r in results
        ]}, sort_keys=True)
    else:
        rows = [
            f"{r.suite},{r.name},{'pass' if r.ok else 'FAIL'},{r.checks}"
            + (f",{r.detail}" if not r.ok and r.detail else "")
            for r in results
        ]
        rows.append(f"summary,{args.suite},{'pass' if failed == 0 else 'FAIL'},{len(results)}")
        text = "\n".join(["suite,invariant,status,checks", *rows])
    return text, 3 if failed else 0


# Each command's help line, handler and arguments, as (flag, add_argument
# keywords); every command also takes COMMON, ahead of its own.
COMMON = (
    ("--format", dict(choices=("csv", "json"), default="csv")),
    ("--out", dict(default=None, help="write output to a file instead of stdout")),
    ("--threads", dict(type=int, default=None,
                       help="worker threads; none or a value below 1 means all CPUs this "
                            "process may use. Below 2^32 a census walks its masks over bytes "
                            "and holds the GIL, so a second thread buys nothing there")),
)
COMMANDS = {
    "repr": ("representation counts r2 / R2 / ideal", _run_repr, (
        ("--fn", dict(choices=("r2", "R2", "ideal"), required=True)),
        ("--n", dict(type=int, required=True)),
        ("--mode", dict(choices=("formula", "enumerate"), default="formula",
                        help="enumerate counts lattice points, for r2 and R2 only "
                             "(exit 1 with ideal)")),
        ("--disc", dict(type=int, default=-3, help="fundamental discriminant for ideal counts")),
    )),
    "member": ("set membership test", _run_member, (
        ("--set", dict(dest="set1", required=True, help=SET_HELP)),
        ("--n", dict(type=int, required=True)),
    )),
    "eta": ("local density eta_a(q) and lambda_a(q)", _run_eta, (
        ("--a", dict(type=int, required=True, help=SHIFT_HELP)),
        ("--q", dict(type=int, required=True)),
        ("--brute", dict(action="store_true", help="use the direct-count oracle")),
    )),
    "lambda": ("lambda_a(p^j), or the convolution (lambda_a * mu)(n)", _run_lambda, (
        ("--p", dict(type=int)),
        ("--j", dict(type=int)),
        ("--a", dict(type=int, required=True, help=SHIFT_HELP)),
        ("--bar", dict(type=int, metavar="N",
                       help="emit (lambda_a * mu)(N) with its companion f = N * value")),
    )),
    "beta": ("series coefficient beta(psi, a)", _run_beta, (
        ("--psi", dict(required=True, help=PSI_HELP)),
        ("--a", dict(type=int, required=True)),
        ("--eps", dict(type=_eps, default=1e-6, help=EPS_HELP)),
    )),
    "etastar": ("eta*(psi, a), an exact multiple of pi", _run_etastar, (
        ("--psi", dict(required=True, help=PSI_HELP)),
        ("--a", dict(type=int, required=True)),
    )),
    "mainterm": ("main-term coefficient beta * eta*", _run_mainterm, (
        ("--psi", dict(required=True, help=PSI_HELP)),
        ("--a", dict(type=int, required=True)),
        ("--eps", dict(type=_eps, default=1e-6, help=EPS_HELP)),
    )),
    "muller": ("main-term coefficient for primitive pairs", _run_muller, (
        ("--psi", dict(required=True, help=PSI_HELP)),
        ("--rho", dict(required=True, help=PSI_HELP)),
        ("--a", dict(type=int, required=True)),
        ("--eps", dict(type=_eps, default=1e-8, help=EPS_HELP)),
    )),
    "correlate": ("exact shifted correlation sums", _run_correlate, (
        ("--kind", dict(choices=("j", "general", "estermann"), default="j")),
        ("--psi", dict(default="chi6", help=PSI_HELP)),
        ("--rho", dict(default="chi4", help=PSI_HELP)),
        ("--a", dict(type=int, required=True)),
        ("--x", dict(type=int, required=True, help=f"n runs up to x; {WINDOW_HELP}")),
        ("--eps", dict(type=_eps, default=1e-8, help=EPS_HELP)),
    )),
    "census": ("interval census of a shifted pair set", _run_census, (
        ("--set1", dict(required=True, help=SET_HELP)),
        ("--set2", dict(required=True, help=SET_HELP)),
        ("--a", dict(type=int, required=True)),
        ("--x", dict(type=int, required=True)),
        ("--len", dict(type=int, required=True, dest="length",
                       help=f"H, so [x, x + H] holds H + 1 integers; {WINDOW_HELP}")),
        ("--witness-cap", dict(type=int, default=10_000,
                               help="witnesses to print; a negative value prints every witness")),
    )),
    "gap": ("explicit gap witness (JSON output)", _run_gap, (
        ("--a", dict(type=int, required=True)),
        ("--x", dict(type=int, required=True)),
        ("--pair", dict(choices=("sq2", "tri"), default="tri")),
    )),
    "verify": ("run named invariant suites", _run_verify, (
        ("--suite", dict(choices=("oracles", "lemmas", "constants", "gaps", "all"), default="all")),
        ("--budget", dict(type=float, default=1.0, help="work scale; 0 runs nothing")),
        ("--seed", dict(type=int, default=20250810, help="seed for sampled suites")),
    )),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of every command, or, given a command name, of that one alone."""
    p = _Parser(prog="formgaps", description=DESCRIPTION)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in [command] if command else COMMANDS:
        summary, run, arguments = COMMANDS[name]
        s = sub.add_parser(name, help=summary)
        s.set_defaults(run=run)
        for flag, keywords in COMMON + arguments:
            s.add_argument(flag, **keywords)
    return p


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
        # Inside main's try, so that a full disk or a closed pipe is a usage
        # error, and so that entry's os._exit drops no output.
        sys.stdout.flush()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a command's parse reads only its own subparser; anything else needs them all
        args = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        result = args.run(args)
        text, code = result if isinstance(result, tuple) else (result, 0)
        _write(text, args.out)
        return code
    except (_UsageError, ValueError, OSError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    except (InvariantError, AssertionError) as e:
        first = str(e)
        if first:
            print(first, file=sys.stderr)
        print("internal invariant failure", file=sys.stderr)
        return 3


def entry() -> None:
    # Every array of the package is an integer array and no command calls
    # BLAS, so the OpenBLAS thread pool that `import numpy` starts only costs
    # start-up CPU time (its workers spin before they sleep).  Set before
    # main, so before the first `import numpy`.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # Reference counting frees every array.  The library leaves no cyclic
    # garbage (tests/test_cli.py checks it), and argparse's parser, built
    # once, lives to the end; the collector would only walk what imports
    # leave behind.
    gc.disable()
    try:
        code = main()
    except SystemExit as done:  # --help and --version print and flush, then exit 0
        code = done.code
    # main's output is flushed (by _write or _Parser._print_message), so finalization
    # would only tear down modules and objects the process is about to drop.
    sys.stderr.flush()
    os._exit(code)
