"""Named invariant suites behind the CLI `verify` command.

Each check re-runs one contract of the library at a budget-scaled size and
reports (name, pass/fail, number of comparisons, detail).  Output is fully
deterministic for a fixed (suite, budget, seed), independent of thread count.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import _np as np
from . import analytic_constants as ac
from . import arith, census, characters, gaps, local_densities as ld, repr_sets as rs
from .errors import BudgetError
from .record import Record

BUDGET_MAX = 5.0  # `verify --suite all` runs about 40 s at this scale on a 2-vCPU host


class CheckResult(Record):
    suite: str
    name: str
    ok: bool
    checks: int
    detail: str = ""


def _scaled(n: int, budget: float, floor: int = 8) -> int:
    return max(floor, int(n * budget))


# ---------------------------------------------------------------- oracles

def _oracle_checks(budget: float, seed: int) -> list[CheckResult]:
    out = []
    qmax, amax = _scaled(120, budget), _scaled(25, budget)
    bad = []
    n = 0
    for q in range(1, qmax + 1):
        for a in range(-amax, amax + 1):
            n += 1
            if ld.eta(a, q) != ld.eta_brute(a, q):
                bad.append((a, q))
    out.append(CheckResult("oracles", "eta_multiplicative_vs_brute", not bad, n, str(bad[:3])))

    nmax = _scaled(2500, budget)
    bad = [n for n in range(1, nmax + 1) if rs.r2(n, "formula") != rs.r2(n, "enumerate")]
    out.append(CheckResult("oracles", "r2_formula_vs_enumeration", not bad, nmax, str(bad[:3])))
    bad = [n for n in range(1, nmax + 1) if rs.R2(n, "formula") != rs.R2(n, "enumerate")]
    out.append(CheckResult("oracles", "R2_formula_vs_enumeration", not bad, nmax, str(bad[:3])))
    bad = [n for n in range(1, nmax + 1) if rs.R2(n, "enumerate") != 6 * rs.ideal_count(n, -3)]
    out.append(CheckResult("oracles", "R2_equals_six_ideal_counts", not bad, nmax, str(bad[:3])))

    nmax = _scaled(2000, budget)
    ok = True
    for psi in (characters.chi3(), characters.chi4(), characters.chi6()):
        sv = characters.F_sieve(psi, nmax)
        ok &= all(int(sv[n]) == characters.F(psi, n) for n in range(1, nmax + 1))
    out.append(CheckResult("oracles", "F_sieve_matches_per_n_F", ok, 3 * nmax))

    rng = random.Random(seed)
    ok, n = True, 0
    for s in (rs.SQUARE2, rs.TRIANGLE, rs.TRIANGLE_STAR, rs.diamond(-4)):
        lo = rng.randrange(0, 50_000)
        hi = lo + _scaled(400, budget)
        mask = rs.sieve_members(s, lo, hi)
        for m in range(lo, hi + 1):
            n += 1
            if bool(mask[m - lo]) != rs.is_member(s, m):
                ok = False
    out.append(CheckResult("oracles", "sieve_members_matches_is_member", ok, n))

    rec = census.census_interval(rs.SQUARE2, rs.SQUARE2, 1, 1, 9, witness_cap=None)
    ok = rec.count == 4 and rec.witnesses == (1, 4, 8, 9)
    ok &= all(
        rs.is_member(rec.set1, w) and rs.is_member(rec.set2, w + rec.a) for w in rec.witnesses
    )
    out.append(CheckResult("oracles", "census_example_and_witness_reverify", ok, 2))

    x = _scaled(3000, budget)
    direct = 0
    for n in range(1, x + 1):
        if math.gcd(n, 6) == 1:
            direct += characters.F(characters.chi6(), n) * characters.F(characters.chi4(), n + 1)
    ok = census.correlation_J(characters.chi6(), 1, x) == direct
    out.append(CheckResult("oracles", "correlation_J_vs_direct_sum", ok, x))
    return out


# ---------------------------------------------------------------- lemmas

def _lemma_checks(budget: float, seed: int) -> list[CheckResult]:
    out = []
    pmax, amax = _scaled(30, budget), _scaled(15, budget)
    bad, n = [], 0
    for p in [int(p) for p in arith.primes(pmax) if p > 2]:
        for j in range(1, 4):
            q = p ** j
            for a in range(-amax, amax + 1):
                n += 1
                if ld.lambda_prime_power(p, j, a) != Fraction(ld.eta_brute(a, q), q):
                    bad.append((p, j, a))
    out.append(CheckResult("lemmas", "odd_prime_power_closed_forms", not bad, n, str(bad[:3])))

    bad, n = [], 0
    for j in range(1, _scaled(12, budget, floor=4) + 1):
        for a in range(-50, 51):
            n += 1
            lam = ld.lambda_prime_power(2, j, a)
            if not (0 <= lam <= 4):
                bad.append((j, a))
    out.append(CheckResult("lemmas", "two_power_bound_0_to_4", not bad, n, str(bad[:3])))

    nmax = _scaled(20_000, budget)
    psi = characters.chi6()
    bad = [n for n in range(1, nmax + 1) if psi(n) == -1 and characters.F(psi, n) != 0]
    out.append(CheckResult("lemmas", "F_vanishes_when_psi_is_minus_one", not bad, nmax, str(bad[:3])))
    bad = [
        n
        for n in range(1, nmax + 1)
        if psi(n) == 1 and characters.sqrt_trick_F(psi, n) != characters.F(psi, n)
    ]
    out.append(CheckResult("lemmas", "sqrt_trick_matches_F", not bad, nmax, str(bad[:3])))

    nmax = _scaled(100_000, budget)
    star = np.zeros(nmax + 1, dtype=bool)  # the lattice points c^2 + 3d^2, one d at a time
    for d in range(math.isqrt(nmax // 3) + 1):
        star[np.arange(math.isqrt(nmax - 3 * d * d) + 1) ** 2 + 3 * d * d] = True
    tri = np.frombuffer(rs.sieve_members(rs.TRIANGLE, 0, nmax), dtype=bool)
    ok = bool(np.all(tri[star]))
    out.append(CheckResult("lemmas", "triangle_star_subset_of_triangle", ok, nmax + 1))

    ok, n = True, 0
    for a in (3, 9, 21, -15, 49):
        for p, _ in arith.factorize(abs(a)).factors:
            if p == 2:
                continue
            v = arith.nu(p, a)
            for j in range(v + 2, v + 7):
                n += 1
                ok &= ld.lambda_bar(a, p ** j) == 0
    out.append(CheckResult("lemmas", "lambda_bar_vanishing_tail", ok, n))

    ok, n = True, 0
    for a in (1, 2, 5, 12):
        Da = max(abs(ld.lambda_bar(a, d)) for d in arith.divisors(arith.factorize(a * a)))
        bound = a * a * Da
        for z in range(1, _scaled(1200, budget), 2):
            n += 1
            ok &= abs(z * ld.lambda_bar(a, z)) <= bound
    out.append(CheckResult("lemmas", "lambda_bar_odd_support_bound", ok, n))

    rng = random.Random(seed + 1)
    ok, n = True, 0
    for _ in range(_scaled(60, budget)):
        m1, m2 = rng.randrange(1, 400), rng.randrange(1, 400)
        if math.gcd(m1, m2) != 1:
            continue
        a = rng.choice([1, 2, 3, 5, 7])
        n += 1
        # the residue count is multiplicative and agrees with the product of
        # closed forms; eta itself is multiplicative by construction
        brute = ld.eta_brute(a, m1 * m2)
        ok &= brute == ld.eta_brute(a, m1) * ld.eta_brute(a, m2) == ld.eta(a, m1 * m2)
    out.append(CheckResult("lemmas", "eta_multiplicative_on_coprime_pairs", ok, n))
    return out


# ---------------------------------------------------------------- constants

def _constant_checks(budget: float, seed: int) -> list[CheckResult]:
    out = []
    psi = characters.chi6()
    L4 = ac.L_value(characters.chi4(), 1.0, 1e-9)
    L3 = ac.L_value(characters.chi3(), 1.0, 1e-9)
    ok = abs(L4.value - math.pi / 4) <= L4.error_bound + 1e-12
    ok &= abs(L3.value - math.pi / (3 * math.sqrt(3))) <= L3.error_bound + 1e-12
    out.append(CheckResult("constants", "L_values_match_closed_forms", ok, 2))

    amax = _scaled(10, budget)
    bad = []
    for a in range(-amax, amax + 1):
        if a == 0:
            continue
        tv = ac.beta(psi, a, 1e-5)
        if not tv.value - tv.error_bound > 0:
            bad.append(a)
    out.append(CheckResult("constants", "beta_positive", not bad, 2 * amax, str(bad[:3])))

    bad = []
    for a in (1, 2, 5):
        e = ac.beta_euler(psi, a, 1e-6)
        d = ac.G_series(psi, a, 1.0, _scaled(20_000, budget, floor=1000))
        if abs(e.value - d.value) > e.error_bound + d.error_bound:
            bad.append(a)
    out.append(CheckResult("constants", "beta_euler_vs_direct_series", not bad, 3, str(bad)))

    bad = []  # primes(8e6) is already cached by the row above
    for chi in (psi, characters.kronecker_character(8), characters.kronecker_character(12)):
        for a in (1, 3, -7):
            b, e = ac.beta(chi, a, 1e-6), ac.beta_euler(chi, a, 1e-6)
            if abs(b.value - e.value) > b.error_bound + e.error_bound:
                bad.append((chi.name, a))
    out.append(CheckResult("constants", "beta_vs_euler_oracle", not bad, 9, str(bad)))

    bad, n = [], 0
    for p in [int(p) for p in arith.primes(_scaled(200, budget)) if p > 2]:
        for s in (1.0, 1.5, 2.0):
            n += 1
            if not ac.euler_factor_Gp(psi, 1, p, s) > 0:
                bad.append((p, s))
        n += 1
        if p >= 5 and not abs(ac.euler_factor_Gp(psi, 2, p, 1.0)) >= 1 - 2 / (p - 1):
            bad.append((p, "lower"))
    out.append(CheckResult("constants", "euler_factors_positive_and_bounded", not bad, n, str(bad[:3])))

    etas = [ld.eta(j, 6) for j in range(6)]
    ok = etas == [2, 8, 8, 2, 8, 8]
    stars = [ac.eta_star(psi, a) for a in range(6)]
    ok &= all(s > 0 for s in stars)
    ok &= ac.eta_star(psi, 1) == Fraction(1, 9)
    out.append(CheckResult("constants", "eta_star_table", ok, 7))

    n2 = _scaled(20_000, budget, floor=1000)
    g2 = ac.G_series(psi, 1, 2.0, n2)
    partial = sum(
        psi(n) * (int(e) / n) / n ** 2
        for n, e in enumerate(ld.eta_table(1, n2)[1:], start=1)
    )
    ok = abs(g2.value - partial) < 1e-9
    g1 = ac.G_series(psi, 1, 1.0, _scaled(50_000, budget, floor=1000))
    b = ac.beta(psi, 1, 1e-6)
    ok &= abs(g1.value - b.value) <= g1.error_bound + b.error_bound
    out.append(CheckResult("constants", "G_series_consistency", ok, 2))

    ok = ac.P_part(12, 6) == 12 and ac.P_part(5, 6) == 1 and ac.P_part(18, 4) == 2
    out.append(CheckResult("constants", "P_part_cases", ok, 3))

    chi5 = characters.kronecker_character(5)
    m = ac.muller_main(chi5, chi5, 1, 1e-8)
    c = ac.muller_C(chi5, chi5, 1, 1e-8)
    bracket = sum(chi5(j) * chi5((1 + j) % 5) for j in range(1, 6)) / 5
    ok = abs(m.value - (c.value + bracket * c.value)) <= m.error_bound + 1e-9
    out.append(CheckResult("constants", "muller_single_term_bracket", ok, 1))
    return out


# ---------------------------------------------------------------- gaps

def _gap_checks(budget: float, seed: int) -> list[CheckResult]:
    out = []
    rng = random.Random(seed)
    n_samples = _scaled(200, budget)
    bad = 0
    for _ in range(n_samples):
        a = rng.choice([v for v in range(-50, 51) if v])
        x = int(10 ** rng.uniform(0, 10))
        try:
            w1 = gaps.gap_square2_square2(a, max(x, 1))
            w2 = gaps.gap_triangle_square2(a, max(x, 1))
        except Exception:
            bad += 1
            continue
        if w1.offset <= 0 or w2.offset <= 0:
            bad += 1
    out.append(CheckResult("gaps", "sampled_witnesses_verify", bad == 0, n_samples, f"bad={bad}"))

    bad, n = [], 0
    for a in range(-_scaled(300, budget), _scaled(300, budget) + 1):
        if a == 0:
            continue
        n += 1
        mine = gaps.represent_norm_form(a) is not None
        M = 10 * math.isqrt(abs(a)) + 10
        oracle = any(
            (lambda t: t >= 0 and math.isqrt(t) ** 2 == t)(a + 3 * m * m) for m in range(M + 1)
        )
        if mine != oracle:
            bad.append(a)
    out.append(CheckResult("gaps", "norm_form_vs_exhaustive_oracle", not bad, n, str(bad[:3])))

    ok, n = True, 0
    for a in (2, 5, 7, -4):
        for x in (10 ** 4, 10 ** 6, 10 ** 8):
            st = gaps._generic_state(a, x)
            n += 1
            q, qs = st["Q"], st["Qstar"]
            ok &= gaps._f0_times4(q, a) > 4 * x
            if q >= 2:
                ok &= gaps._f0_times4(q - 2, a) <= 4 * x
            w = gaps.gap_triangle_square2(a, x)
            if w.branch == gaps.BRANCH_GENERIC and "vstar" in w.params:
                v, w_star = w.params["vstar"], w.params["wstar"]
                ok &= v * v < 2 * w_star <= (v + 2) * (v + 2)
    out.append(CheckResult("gaps", "Q_minimality_and_vstar_sandwich", ok, n))

    ok, n = True, 0
    for a in (2, 5, -4):
        for x in (10 ** 5, 10 ** 7):
            qs = gaps._generic_state(a, x)["Qstar"]
            ys = range(0, qs, max(1, qs // 6))
            # finite differences on 4*f(y, Q*), exact in integers
            f4 = [(y * y - 3 * qs * qs - a + 1) ** 2 + 12 * qs * qs for y in ys]
            n += 1
            ok &= all(f4[i] > f4[i + 1] for i in range(len(f4) - 1))
    out.append(CheckResult("gaps", "h_decreasing_on_window", ok, n))

    ok, n = True, 0
    for a in (2, 5, 7):
        for x in (10 ** 5, 10 ** 7, 10 ** 9):
            st = gaps._generic_state(a, x)
            n += 1
            ok &= 0.5 <= st["Qstar"] / x ** 0.25 <= 2.5
            w = gaps.gap_triangle_square2(a, x)
            if w.branch == gaps.BRANCH_GENERIC and "wstar" in w.params:
                ok &= 0.05 <= w.params["wstar"] / x ** 0.25 <= 40.0
                ok &= 0.2 <= w.params["vstar"] / x ** 0.125 <= 10.0
                ok &= w.offset <= 60.0 * x ** 0.625
    out.append(CheckResult("gaps", "scaling_brackets", ok, n))

    ok, n = True, 0
    for a in (1, 3, -3, 8):
        ratios = [gaps.gap_square2_square2(a, x).params["sqrt_ratio"] for x in (10 ** 4, 10 ** 6, 10 ** 8)]
        C = max(ratios) + 1e-9
        for x in (10 ** 4, 10 ** 6):
            n += 1
            rec = census.census_interval(rs.SQUARE2, rs.SQUARE2, a, x + 1, int(C * math.sqrt(x)) + 1)
            ok &= rec.count >= 1
    out.append(CheckResult("gaps", "census_contains_sq2_witness", ok, n))
    return out


_SUITES = {
    "oracles": _oracle_checks,
    "lemmas": _lemma_checks,
    "constants": _constant_checks,
    "gaps": _gap_checks,
}


def run_suite(suite: str, budget: float = 1.0, seed: int = 20250810) -> list[CheckResult]:
    """Run one suite (or `all`); budget <= 0 yields an empty report.  A
    non-finite budget is a ValueError, one above BUDGET_MAX a BudgetError."""
    if suite not in _SUITES and suite != "all":
        raise ValueError(f"unknown suite {suite!r}")
    if not math.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget}")
    if budget > BUDGET_MAX:
        raise BudgetError(f"verify budget {budget} exceeds {BUDGET_MAX}")
    if budget <= 0:
        return []
    names = list(_SUITES) if suite == "all" else [suite]
    out = []
    for name in names:
        out.extend(_SUITES[name](budget, seed))
    return out
