"""Seeded command lists for the three workloads.

Every list is a pure function of (workload, seed, tiny).  Parameters that
drive the cost of a command are drawn by stratified sampling: the range is
cut into as many equal strata as there are draws and each stratum gets one
draw, in shuffled order.  The marginal distribution is the stated one
(log-uniform, uniform), but the total work of a list hardly depends on the
seed, which keeps run-to-run spread small on a 25-command list.

census     25 `census` commands.  The 5 x 5 ordered pairs of sets form a
           Latin square against 5 window-length bands, so every band holds
           each set once on each side (a census costs about one sieve per
           side, so the bands cost about the same for every seed).  Lengths
           are log-uniform over [2^14, 2^21]: every window fits one 2^22
           chunk, so the thread pool gets one item per call.
correlate  25 `correlate` commands, 5 kinds x 5 bands of x, log-uniform over
           [2^15, 2^21.7]; like census, one chunk per call.
scalar     single-answer commands (one `verify --suite all`, then blocks of
           beta, mainterm, muller, eta --brute, lambda --bar, repr r2/R2,
           gap sq2/tri).  Known baseline failures stay in the draws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("census", "correlate", "scalar")

CENSUS_SETS = ("square2", "triangle", "triangle_star", "diamond:-4", "diamond:-23")

CORRELATE_KINDS = (
    ("--kind", "j", "--psi", "chi6"),
    ("--kind", "j", "--psi", "chi4"),
    ("--kind", "general", "--psi", "kronecker:5", "--rho", "kronecker:5"),
    ("--kind", "general", "--psi", "chi4", "--rho", "chi4"),
    ("--kind", "estermann"),
)

SCALAR_BLOCKS = 4  # blocks of 12 commands after the single verify; one eps decade each

MULLER_PAIRS = (("chi4", "chi4"), ("kronecker:5", "kronecker:5"), ("chi3", "chi3"))

ETA_PRIMES = (2, 3, 5, 7, 11, 13, 47)

# highly composite numbers, one lambda --bar draw per stratum of this list
HIGHLY_COMPOSITE = (
    5040, 55440, 720720, 1441440, 4324320, 8648640, 21621600,
    36756720, 61261200, 245044800, 367567200, 735134400,
)

# `gap` re-verifies through factorize, which refuses n > 2^63 (exit 1 today).
# The constructed n sits at most O(x^(5/8)) above x, far below 2^44 there.
GAP_FACTORIZE_LIMIT = (1 << 63) - (1 << 44)
# beta's Euler product refuses P = ceil(8 / eps) > 1e8 (exit 2); mainterm
# asks beta for eps / (2 eta*), which reaches that cap below eps ~ 5e-7.
BETA_EPS_LIMIT = 1e-7
MAINTERM_EPS_LIMIT = 5e-7


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the arguments after `python -m formgaps`."""

    argv: tuple[str, ...]
    ints: int
    known_failure: str = ""  # documented baseline failure, "" if none
    allowed_codes: tuple[int, ...] = ()  # exit codes the known failure may give


def strata(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one per stratum [i/n, (i+1)/n), in shuffled order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(i + rng.random()) / n for i in order]


def _shift(rng: random.Random, positive: bool = False) -> int:
    a = rng.randint(1, 60)
    return a if positive or rng.random() < 0.5 else -a


def _log2_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(2 ** (lo + u * (hi - lo))))


def census(rng: random.Random, threads: int, tiny: bool) -> list[Command]:
    k = len(CENSUS_SETS)
    lo, hi = (8.0, 11.0) if tiny else (14.0, 21.0)
    rows, cols = list(range(k)), list(range(k))
    rng.shuffle(rows)
    rng.shuffle(cols)
    xs = strata(rng, k * k)
    sub = [strata(rng, k) for _ in range(k)]  # sub-stratum of each cell in its band
    cells = [(i, j) for i in range(k) for j in range(k)]
    if tiny:
        cells = [(i, i) for i in range(k)]
    out = []
    for n, (i, j) in enumerate(cells):
        band = (i + j) % k
        u = (band + sub[band][i]) / k
        H = _log2_uniform(u, lo, hi)
        x = 500_000_000 + int(xs[n] * 500_000_000)
        argv = (
            "census", "--set1", CENSUS_SETS[rows[i]], "--set2", CENSUS_SETS[cols[j]],
            "--a", str(_shift(rng)), "--x", str(x), "--len", str(H), "--threads", str(threads),
        )
        out.append(Command(argv, H + 1))
    rng.shuffle(out)
    return out


def correlate(rng: random.Random, threads: int, tiny: bool) -> list[Command]:
    k = len(CORRELATE_KINDS)
    lo, hi = (10.0, 13.0) if tiny else (15.0, 21.7)
    sub = [strata(rng, k) for _ in range(k)]
    out = []
    for kind_i, kind in enumerate(CORRELATE_KINDS):
        for band in range(1 if tiny else k):
            b = (band + kind_i) % k if tiny else band
            x = _log2_uniform((b + sub[b][kind_i]) / k, lo, hi)
            a = _shift(rng, positive=kind[1] == "general")
            argv = ("correlate", *kind, "--a", str(a), "--x", str(x), "--threads", str(threads))
            out.append(Command(argv, x))
    rng.shuffle(out)
    return out


def _eps(u: float, lo_exp: float, hi_exp: float) -> str:
    return f"{10 ** (lo_exp + u * (hi_exp - lo_exp)):.3e}"


def _prime_power(rng: random.Random, u: float, lo: float, hi: float) -> int:
    target = lo + u * (hi - lo)  # log2 of the wanted modulus
    p = rng.choice(ETA_PRIMES)
    j = max(1, int(round(target / math.log2(p))))
    while p ** j > 1 << 23:
        j -= 1
    return p ** j


def _mirror(u: float, n: int) -> float:
    """The antithetic partner of a draw u from strata(rng, n), in the same stratum."""
    i, r = divmod(u * n, 1.0)
    return (i + 1.0 - r) / n


def scalar(rng: random.Random, threads: int, tiny: bool) -> list[Command]:
    B = 1 if tiny else SCALAR_BLOCKS
    t = ("--threads", str(threads))
    eps_lo, eps_hi = (-6.0, -5.0) if tiny else (-9.0, -5.0)
    q_lo, q_hi = (6.0, 12.0) if tiny else (10.0, 23.0)
    x_lo, x_hi = (6.0, 9.0) if tiny else (6.0, 27.0)
    n_hcn = 3 if tiny else len(HIGHLY_COMPOSITE)
    draws = {name: strata(rng, B) for name in
             ("beta", "mainterm", "muller", "eta", "lambda", "repr", "sq2", "tri")}
    budget = ("--budget", "0.05") if tiny else ()
    out = [Command(("verify", "--suite", "all", *budget, *t), 1)]
    for b in range(B):
        # beta, mainterm and gap tri cost up to 100x more at one end of their
        # range, so each comes as an antithetic pair inside its stratum
        for u in (draws["beta"][b], _mirror(draws["beta"][b], B)):
            eps = _eps(u, eps_lo, eps_hi)
            fail = float(eps) < BETA_EPS_LIMIT
            out.append(Command(("beta", "--psi", rng.choice(("chi4", "chi6")), "--a",
                                str(_shift(rng)), "--eps", eps, *t), 1,
                               "beta: Euler-product budget" if fail else "", (2,) if fail else ()))
        for u in (draws["mainterm"][b], _mirror(draws["mainterm"][b], B)):
            eps = _eps(u, eps_lo, eps_hi)
            fail = float(eps) < MAINTERM_EPS_LIMIT
            out.append(Command(("mainterm", "--psi", rng.choice(("chi4", "chi6")), "--a",
                                str(_shift(rng)), "--eps", eps, *t), 1,
                               "mainterm: Euler-product budget" if fail else "",
                               (2,) if fail else ()))
        psi, rho = rng.choice(MULLER_PAIRS)
        eps = _eps(draws["muller"][b], eps_lo, eps_hi)
        out.append(Command(("muller", "--psi", psi, "--rho", rho, "--a",
                            str(_shift(rng, positive=True)), "--eps", eps, *t), 1))
        q = _prime_power(rng, draws["eta"][b], q_lo, q_hi)
        out.append(Command(("eta", "--brute", "--a", str(_shift(rng)), "--q", str(q), *t), 1))
        n = HIGHLY_COMPOSITE[int(draws["lambda"][b] * n_hcn)]
        out.append(Command(("lambda", "--bar", str(n), "--a", str(_shift(rng)), *t), 1))
        base = 10 ** (12 if tiny else 18)
        for fn in ("r2", "R2"):
            n = base + int((draws["repr"][b] - 0.5) * 2 * base // 1000) + rng.randrange(1000)
            out.append(Command(("repr", "--fn", fn, "--n", str(n), *t), 1))
        gaps = [("sq2", draws["sq2"][b]), ("tri", draws["tri"][b]),
                ("tri", _mirror(draws["tri"][b], B))]
        for pair, u in gaps:
            x = int(round(10 ** (x_lo + u * (x_hi - x_lo))))
            fail = x > GAP_FACTORIZE_LIMIT
            out.append(Command(("gap", "--pair", pair, "--a", str(_shift(rng)), "--x", str(x), *t),
                               1, "gap: factorize requires n <= 2^63" if fail else "",
                               (1, 2) if fail else ()))
    rng.shuffle(out)
    return out


_GENERATORS = {"census": census, "correlate": correlate, "scalar": scalar}


def generate(workload: str, seed: int, threads: int, tiny: bool = False) -> list[Command]:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, threads, tiny)
