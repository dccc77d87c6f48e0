"""Command-line front end.

One subcommand per library capability; output is CSV (default) or JSON,
deterministic for fixed flags and seed regardless of thread count.

Exit codes: 0 success, 1 usage error, 2 budget/overflow guard,
3 internal invariant failure (including verify-suite failures).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .analytic_constants import (
    L_value,
    beta,
    eta_star,
    main_term,
    muller_main,
)
from .census import census_interval, correlation_J, correlation_general, estermann_correlation
from .characters import make_character
from .errors import BudgetError, InvariantError
from .gaps import gap_square2_square2, gap_triangle_square2
from .local_densities import eta, eta_brute, lambda_bar, lambda_prime_power, local_density
from .repr_sets import R2, ideal_count, is_member, parse_set, r2
from .util import resolve_threads
from .verify import run_suite


EPS_HELP = (
    "error bound asked of the constant; odd real characters take the exact closed form, "
    "which meets any eps, and other characters a truncated series (exit 2 past its budget)"
)


@dataclass
class RunConfig:
    fmt: str
    out: str | None
    threads: int
    seed: int


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt_float(v: float) -> str:
    return f"{v:.15g}"


def _emit(cfg: RunConfig, header: str, rows: list[str], payload) -> str:
    if cfg.fmt == "json":
        return json.dumps(payload, sort_keys=True)
    return "\n".join(([header] if header else []) + rows)


def _build_parser() -> _Parser:
    p = _Parser(prog="formgaps", description=__doc__, add_help=True)
    p.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (env FORMGAPS_THREADS)")
    common.add_argument("--seed", type=int, default=20250810, help="seed for sampled suites")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    s = add("repr", "representation counts r2 / R2 / ideal")
    s.add_argument("--fn", choices=("r2", "R2", "ideal"), required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--mode", choices=("formula", "enumerate"), default="formula")
    s.add_argument("--disc", type=int, default=-3, help="fundamental discriminant for ideal counts")

    s = add("member", "set membership test")
    s.add_argument("--set", dest="set1", required=True)
    s.add_argument("--n", type=int, required=True)

    s = add("eta", "local density eta_a(q) and lambda_a(q)")
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--brute", action="store_true", help="use the direct-count oracle")

    s = add("lambda", "lambda_a(p^j), or the convolution (lambda_a * mu)(n)")
    s.add_argument("--p", type=int)
    s.add_argument("--j", type=int)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--bar", type=int, metavar="N",
                   help="emit (lambda_a * mu)(N) with its companion f = N * value")

    s = add("beta", "series coefficient beta(psi, a)")
    s.add_argument("--psi", required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--eps", type=float, default=1e-6, help=EPS_HELP)

    s = add("etastar", "eta*(psi, a), an exact multiple of pi")
    s.add_argument("--psi", required=True)
    s.add_argument("--a", type=int, required=True)

    s = add("mainterm", "main-term coefficient beta * eta*")
    s.add_argument("--psi", required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--eps", type=float, default=1e-6, help=EPS_HELP)

    s = add("muller", "main-term coefficient for primitive pairs")
    s.add_argument("--psi", required=True)
    s.add_argument("--rho", required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--eps", type=float, default=1e-8, help=EPS_HELP)

    s = add("correlate", "exact shifted correlation sums")
    s.add_argument("--kind", choices=("j", "general", "estermann"), default="j")
    s.add_argument("--psi", default="chi6")
    s.add_argument("--rho", default="chi4")
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--eps", type=float, default=1e-6, help=EPS_HELP)

    s = add("census", "interval census of a shifted pair set")
    s.add_argument("--set1", required=True)
    s.add_argument("--set2", required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--len", type=int, required=True, dest="length")
    s.add_argument("--witness-cap", type=int, default=10_000)

    s = add("gap", "explicit gap witness (JSON output)")
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--pair", choices=("sq2", "tri"), default="tri")

    s = add("verify", "run named invariant suites")
    s.add_argument("--suite", choices=("oracles", "lemmas", "constants", "gaps", "all"), default="all")
    s.add_argument("--budget", type=float, default=1.0, help="work scale; 0 runs nothing")
    return p


def _run_repr(args, cfg):
    if args.fn == "r2":
        v = r2(args.n, args.mode)
    elif args.fn == "R2":
        v = R2(args.n, args.mode)
    else:
        v = ideal_count(args.n, args.disc)
    return _emit(cfg, "", [f"{args.n},{v}"], {"n": args.n, "fn": args.fn, "value": v})


def _run_member(args, cfg):
    s = parse_set(args.set1)
    v = is_member(s, args.n)
    return _emit(
        cfg, "", [f"{s},{args.n},{str(v).lower()}"], {"set": str(s), "n": args.n, "member": v}
    )


def _run_eta(args, cfg):
    if args.brute:
        e = eta_brute(args.a, args.q)
        lam = Fraction(e, args.q)
    else:
        d = local_density(args.a, args.q)
        e, lam = d.eta, d.lam
    return _emit(
        cfg,
        "",
        [f"{args.a},{args.q},{e},{lam}"],
        {"a": args.a, "q": args.q, "eta": e, "lambda": str(lam)},
    )


def _run_lambda(args, cfg):
    if args.bar is not None:
        lam = lambda_bar(args.a, args.bar)
        f = args.bar * lam
        return _emit(
            cfg,
            "a,n,lambda_bar,f",
            [f"{args.a},{args.bar},{lam},{f}"],
            {"a": args.a, "n": args.bar, "lambda_bar": str(lam), "f": str(f)},
        )
    if args.p is None or args.j is None:
        raise ValueError("lambda requires --p and --j (or --bar N)")
    lam = lambda_prime_power(args.p, args.j, args.a)
    return _emit(
        cfg,
        "",
        [f"{args.p},{args.j},{args.a},{lam}"],
        {"p": args.p, "j": args.j, "a": args.a, "lambda": str(lam)},
    )


def _run_beta(args, cfg):
    psi = make_character(args.psi)
    tv = beta(psi, args.a, args.eps)
    row = f"{psi.name},{args.a},{_fmt_float(tv.value)},{_fmt_float(tv.error_bound)},{tv.terms_used}"
    return _emit(
        cfg,
        "psi,a,value,error_bound,terms",
        [row],
        {"psi": psi.name, "a": args.a, "value": tv.value, "error_bound": tv.error_bound,
         "terms": tv.terms_used},
    )


def _run_etastar(args, cfg):
    psi = make_character(args.psi)
    es = eta_star(psi, args.a)
    row = f"{psi.name},{args.a},{es.coeff},{_fmt_float(es.value)}"
    return _emit(
        cfg,
        "psi,a,pi_coeff,value",
        [row],
        {"psi": psi.name, "a": args.a, "pi_coeff": str(es.coeff), "value": es.value},
    )


def _run_mainterm(args, cfg):
    psi = make_character(args.psi)
    tv = main_term(psi, args.a, args.eps)
    row = f"{psi.name},{args.a},{_fmt_float(tv.value)},{_fmt_float(tv.error_bound)}"
    return _emit(
        cfg,
        "psi,a,value,error_bound",
        [row],
        {"psi": psi.name, "a": args.a, "value": tv.value, "error_bound": tv.error_bound},
    )


def _run_muller(args, cfg):
    psi, rho = make_character(args.psi), make_character(args.rho)
    tv = muller_main(psi, rho, args.a, args.eps)
    row = f"{psi.name},{rho.name},{args.a},{_fmt_float(tv.value)},{_fmt_float(tv.error_bound)}"
    return _emit(
        cfg,
        "psi,rho,a,value,error_bound",
        [row],
        {"psi": psi.name, "rho": rho.name, "a": args.a, "value": tv.value,
         "error_bound": tv.error_bound},
    )


def _run_correlate(args, cfg):
    threads = cfg.threads
    if args.kind == "j":
        psi = make_character(args.psi)
        J = correlation_J(psi, args.a, args.x, threads=threads)
        m = main_term(psi, args.a, args.eps).value
        ratio = J / (m * args.x) if m > 0 and args.x > 0 else float("nan")
        name, mtxt, rtxt = psi.name, _fmt_float(m), _fmt_float(ratio)
    elif args.kind == "general":
        psi, rho = make_character(args.psi), make_character(args.rho)
        J = correlation_general(psi, rho, args.a, args.x, threads=threads)
        try:
            m = muller_main(psi, rho, args.a).value
            ratio = J / (m * args.x) if m > 0 and args.x > 0 else float("nan")
            mtxt, rtxt = _fmt_float(m), _fmt_float(ratio)
        except ValueError:
            m, ratio, mtxt, rtxt = None, None, "", ""
        name = f"{psi.name}*{rho.name}"
    else:
        J = estermann_correlation(args.a, args.x, threads=threads)
        name, m, ratio, mtxt, rtxt = "r2", None, None, "", ""
    return _emit(
        cfg,
        "psi,a,x,J,main,ratio",
        [f"{name},{args.a},{args.x},{J},{mtxt},{rtxt}"],
        {"psi": name, "a": args.a, "x": args.x, "J": J, "main": m, "ratio": ratio},
    )


def _run_census(args, cfg):
    s1, s2 = parse_set(args.set1), parse_set(args.set2)
    cap = None if args.witness_cap < 0 else args.witness_cap
    rec = census_interval(s1, s2, args.a, args.x, args.length, witness_cap=cap,
                          threads=cfg.threads)
    rows = [f"{rec.set1},{rec.set2},{rec.a},{rec.x},{rec.H},{rec.count}"]
    rows.extend(f"W,{w}" for w in rec.witnesses)
    return _emit(
        cfg,
        "set1,set2,a,x,H,count",
        rows,
        {"set1": str(rec.set1), "set2": str(rec.set2), "a": rec.a, "x": rec.x,
         "H": rec.H, "count": rec.count, "witnesses": list(rec.witnesses)},
    )


def _run_gap(args, cfg):
    fn = gap_square2_square2 if args.pair == "sq2" else gap_triangle_square2
    w = fn(args.a, args.x)
    payload = {"a": w.a, "x": w.x, "n": w.n, "offset": w.offset, "branch": w.branch,
               "params": w.params}
    return json.dumps(payload, sort_keys=True)  # gap output is JSON only


def _run_verify(args, cfg):
    results = run_suite(args.suite, budget=args.budget, seed=cfg.seed)
    rows = [
        f"{r.suite},{r.name},{'pass' if r.ok else 'FAIL'},{r.checks}"
        + (f",{r.detail}" if not r.ok and r.detail else "")
        for r in results
    ]
    failed = sum(1 for r in results if not r.ok)
    rows.append(f"summary,{args.suite},{'pass' if failed == 0 else 'FAIL'},{len(results)}")
    payload = {
        "suite": args.suite,
        "failed": failed,
        "results": [
            {"suite": r.suite, "name": r.name, "ok": r.ok, "checks": r.checks} for r in results
        ],
    }
    text = _emit(cfg, "suite,invariant,status,checks", rows, payload)
    return (text, 3 if failed else 0)


_HANDLERS = {
    "repr": _run_repr,
    "member": _run_member,
    "eta": _run_eta,
    "lambda": _run_lambda,
    "beta": _run_beta,
    "etastar": _run_etastar,
    "mainterm": _run_mainterm,
    "muller": _run_muller,
    "correlate": _run_correlate,
    "census": _run_census,
    "gap": _run_gap,
    "verify": _run_verify,
}


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig(
            fmt=args.format,
            out=args.out,
            threads=resolve_threads(args.threads),
            seed=args.seed,
        )
        result = _HANDLERS[args.command](args, cfg)
        text, code = result if isinstance(result, tuple) else (result, 0)
        _write(text, cfg.out)
        return code
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
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
    sys.exit(main())
