"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines with timings.
Every tolerance is pinned here; nothing is deferred to later calibration.

Criteria 08 and 11 check J(x) ~ m*x through r(x) = J(x) / (m x).  The error
J - m*x changes sign, so r at two single points need not approach 1 in order.
Both criteria instead build the exact J(t) for every integer t <= 1e6 as one
prefix sum of F_sieve products, tie that curve to the library's own route
(correlation_J at 1e4, 1e5, 1e6 for 08; correlation_general at 1e4, 1e6 for 11),
and require the maximum of |r - 1| over each decade [1e3, 1e4], [1e4, 1e5],
[1e5, 1e6] to strictly decrease, with the last below the criterion's cap.

Frozen constants (measured once on this implementation, then asserted):
  * TOLEV_ENVELOPE_BOUND: observed sup of the normalized progression-sum
    remainder over the full grid is 6.4e-5; frozen at 1e-3 (15x headroom).
  * GAP_D_*: observed worst offset ratios over 10k seeded samples are
    SQ2 624, REPRESENTABLE 74, GENERIC 48 (dominated by x = O(1) samples
    where the shift-sized base point is the whole offset); frozen with
    roughly 2x headroom.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from lattice_oracle import form_counts, reduced_forms, triangle_star_window

from formgaps import analytic_constants as ac
from formgaps import arith, census, gaps
from formgaps import local_densities as ld
from formgaps import repr_sets as rs
from formgaps.characters import F, F_sieve, chi3, chi4, chi6, kronecker_character

TOLEV_ENVELOPE_BOUND = 1e-3
GAP_D_SQ2 = 1500.0
GAP_D_REPRESENTABLE = 200.0
GAP_D_GENERIC = 150.0
DECADES = ((10 ** 3, 10 ** 4), (10 ** 4, 10 ** 5), (10 ** 5, 10 ** 6))

_t0 = None


def _start():
    global _t0
    _t0 = time.time()


def _report(num, name, ok, detail=""):
    dt = time.time() - _t0 if _t0 else 0.0
    status = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"\nACCEPT {num:02d} {name}: {status} ({dt:.1f}s){tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def _dense_J(f_left, f_right, a, x):
    """J[t] = sum over 1 <= n <= t of f_left[n] * f_right[n + a], for every t <= x.

    Both arrays are indexed by n (index 0 a zero pad), as F_sieve returns them.
    """
    terms = f_left[1 : x + 1].astype(np.int64) * f_right[1 + a : x + 1 + a]
    return np.concatenate([[0], np.cumsum(terms, dtype=np.int64)])


def _decade_maxima(J, m):
    """Per decade [lo, hi] of DECADES: (max of |J(t)/(m t) - 1| over lo <= t <= hi, argmax t)."""
    out = []
    for lo, hi in DECADES:
        t = np.arange(lo, hi + 1)
        dev = np.abs(J[lo : hi + 1] / (m * t) - 1)
        i = int(np.argmax(dev))
        out.append((float(dev[i]), lo + i))
    return out


def _shrinks_below(maxima, cap):
    """Decade maxima strictly decrease and the last one is below cap."""
    devs = [d for d, _ in maxima]
    return all(b < a for a, b in zip(devs, devs[1:])) and devs[-1] < cap


def _format_maxima(maxima):
    return ", ".join(f"[1e{round(math.log10(lo))},1e{round(math.log10(hi))}] {d:.5f} at x={t}"
                     for (lo, hi), (d, t) in zip(DECADES, maxima))


@pytest.fixture(scope="module")
def chi4_sieve_1e6():
    return F_sieve(chi4(), 10 ** 6)


def test_criterion_01_eta_oracle_equivalence():
    _start()
    bad = []
    for q in range(1, 201):
        for a in range(-50, 51):
            if a == 0:
                continue
            if ld.eta(a, q) != ld.eta_brute(a, q):
                bad.append((a, q))
    _report(1, "eta multiplicative vs brute (q<=200, |a|<=50)", not bad, str(bad[:3]))


def test_criterion_02_closed_form_lemmas():
    _start()
    bad = []
    n = 0
    for p in [int(p) for p in arith.primes(49) if p > 2]:
        for j in range(1, 5):
            q = p ** j
            for a in range(-30, 31):
                if a == 0:
                    continue
                n += 1
                if ld.lambda_prime_power(p, j, a) != Fraction(ld.eta_brute(a, q), q):
                    bad.append((p, j, a))
    _report(2, f"odd prime-power closed forms ({n} exact rationals)", not bad, str(bad[:3]))


def test_criterion_03_two_power_bound():
    _start()
    bad = []
    for j in range(1, 17):
        for a in range(-100, 101):
            if a == 0:
                continue
            lam = ld.lambda_prime_power(2, j, a)
            if not (0 <= lam <= 4):
                bad.append((j, a))
    _report(3, "two-power bound 0 <= lambda_a(2^j) <= 4 (j<=16, |a|<=100)", not bad, str(bad[:3]))


def test_criterion_04_representation_formulas():
    _start()
    N = 10 ** 5
    r2_formula = 4 * F_sieve(chi4(), N)
    R2_formula = 6 * F_sieve(chi3(), N)
    ok = bool(np.array_equal(r2_formula[1:], form_counts(1, 0, 1, N)[1:]))
    ok &= bool(np.array_equal(R2_formula[1:], form_counts(1, 1, 1, N)[1:]))
    # class number 3: the three reduced forms of -23 share 2 * I_{-23}(n)
    forms = sum(form_counts(*f, N) for f in reduced_forms(-23))
    ok &= bool(np.array_equal(forms[1:], 2 * F_sieve(kronecker_character(-23), N)[1:]))
    _report(4, "r2/R2 formula = lattice enumeration, ideal counts = reduced forms of -23 (n<=1e5)",
            ok)


def test_criterion_05_triangle_star_subset():
    _start()
    N = 10 ** 6
    star = np.frombuffer(rs.sieve_members(rs.TRIANGLE_STAR, 0, N), dtype=bool)
    tri = np.frombuffer(rs.sieve_members(rs.TRIANGLE, 0, N), dtype=bool)
    ok = bool(np.all(tri[star]))
    ok &= bool(np.array_equal(star, triangle_star_window(0, N)))
    _report(5, "triangle_star = lattice points, subset of triangle (n<=1e6)", ok)


def test_criterion_06_beta_positivity_and_series():
    _start()
    psi = chi6()
    bad = []
    for a in range(-20, 21):
        if a == 0:
            continue
        tv = ac.beta(psi, a, 1e-6)
        if not tv.value - tv.error_bound > 0:
            bad.append(a)
    for a in (1, 2, 3, 5, 8):
        e = ac.beta(psi, a, 1e-6)
        d = ac.G_series(psi, a, 1.0, 10 ** 5)
        if abs(e.value - d.value) > e.error_bound + d.error_bound:
            bad.append(("series", a))
    _report(6, "beta > 0 (|a|<=20) and Euler = direct series (a in {1,2,3,5,8})",
            not bad, str(bad[:3]))


def test_criterion_07_eta_star_table():
    _start()
    table = [ld.eta_brute(j, 6) for j in range(6)]
    ok = table == [2, 8, 8, 2, 8, 8]
    ok &= ac.eta_star(chi6(), 1) == Fraction(1, 9)
    ok &= all(ac.eta_star(chi6(), a) > 0 for a in range(6))
    _report(7, "eta_j(6) table and eta*(chi6,1) = pi/9 exactly", ok, str(table))


def test_criterion_08_main_theorem_trend():
    _start()
    x = DECADES[-1][1]
    f_chi6 = F_sieve(chi6(), x)
    f_chi4 = F_sieve(chi4(), x + 5)
    coprime = np.gcd(np.arange(x + 1), 6) == 1
    bad = []
    details = []
    for a in (1, 2, 5):
        m = ac.main_term(chi6(), a).value
        J = _dense_J(f_chi6 * coprime, f_chi4, a, x)
        tied = all(int(J[t]) == census.correlation_J(chi6(), a, t)
                   for t in (10 ** 4, 10 ** 5, 10 ** 6))
        maxima = _decade_maxima(J, m)
        details.append(f"a={a}: {_format_maxima(maxima)}" + ("" if tied else " J untied"))
        if not (tied and _shrinks_below(maxima, 0.15)):
            bad.append(a)
    _report(8, "correlation ratio trend toward 1 (a in {1,2,5})", not bad,
            "; ".join(details))


def test_criterion_09_tolev_remainder_envelope(chi4_sieve_1e6):
    _start()
    sv = chi4_sieve_1e6
    cum = np.cumsum(sv)

    def S(q, a, x):
        start = a % q if a % q else q
        return int(sv[start : x + 1 : q].sum())

    rng = random.Random(20250810)
    spot = [(rng.randrange(1, 51), rng.choice([1, 2, 5]), rng.choice([10 ** 3, 10 ** 5]))
            for _ in range(25)]
    # the strides against F by factorization, independent of the sieve
    ok = all(S(q, a, x) == sum(F(chi4(), n) for n in range(a % q or q, x + 1, q))
             for q, a, x in spot)
    worst, where = 0.0, None
    for q in range(1, 51):
        t4 = len(arith.divisors(arith.factorize(q))) ** 4
        for a in (1, 2, 5):
            g = math.sqrt(math.gcd(a, q))
            e = ld.eta(a, q)
            for x in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
                rem = abs(S(q, a, x) - math.pi * e * x / (4 * q * q))
                norm = (math.sqrt(q) + x ** (1 / 3)) * g * t4 * math.log(x) ** 4
                if rem / norm > worst:
                    worst, where = rem / norm, (q, a, x)
    ok &= worst <= TOLEV_ENVELOPE_BOUND
    _report(9, "Tolev normalized remainder bounded by one constant", ok,
            f"sup={worst:.2e} at {where}, bound={TOLEV_ENVELOPE_BOUND}")


def test_criterion_10_gap_witnesses():
    _start()
    rng = random.Random(20250810)
    frozen = {
        gaps.BRANCH_SQ2_SQ2: GAP_D_SQ2,
        gaps.BRANCH_REPRESENTABLE: GAP_D_REPRESENTABLE,
        gaps.BRANCH_GENERIC: GAP_D_GENERIC,
    }
    observed = {k: 0.0 for k in frozen}
    bad = 0
    for _ in range(1000):
        a = rng.choice([v for v in range(-50, 51) if v])
        x = max(int(10 ** rng.uniform(0, 10)), 1)
        w1 = gaps.gap_square2_square2(a, x)  # membership re-verified inside
        if w1.offset <= 0:
            bad += 1
        observed[w1.branch] = max(observed[w1.branch], w1.offset / math.sqrt(x))
        w2 = gaps.gap_triangle_square2(a, x)
        if w2.offset <= 0:
            bad += 1
        u = 0.5 if gaps.represent_norm_form(a) is not None else 0.625  # upsilon(a)
        observed[w2.branch] = max(observed[w2.branch], w2.offset / x ** u)
    ok = bad == 0 and all(observed[k] <= frozen[k] for k in frozen)
    _report(10, "gap witnesses verify with per-branch offset envelopes", ok,
            ", ".join(f"{k}: D={observed[k]:.1f}<={frozen[k]:g}" for k in frozen))


def test_criterion_11_muller_cross_check():
    _start()
    chi5 = kronecker_character(5)
    x = DECADES[-1][1]
    f_chi5 = F_sieve(chi5, x + 2)
    bad = []
    details = []
    for a in (1, 2):
        M = ac.muller_main(chi5, chi5, a, 1e-8).value
        J = _dense_J(f_chi5, f_chi5, a, x)
        tied = all(int(J[t]) == census.correlation_general(chi5, chi5, a, t)
                   for t in (10 ** 4, 10 ** 6))
        maxima = _decade_maxima(J, M)
        details.append(f"a={a}: {_format_maxima(maxima)}" + ("" if tied else " J untied"))
        if not (tied and _shrinks_below(maxima, 0.2)):
            bad.append(a)
    _report(11, "general correlation matches its main term (k=5)", not bad,
            "; ".join(details))


def test_criterion_12_determinism_across_threads():
    _start()
    def run(threads):
        return subprocess.run(
            [sys.executable, "-m", "formgaps", "verify", "--suite", "all",
             "--threads", str(threads), "--seed", "20250810"],
            capture_output=True,
        )

    p1, p4 = run(1), run(4)
    ok = p1.returncode == 0 and p4.returncode == 0 and p1.stdout == p4.stdout
    _report(12, "verify --suite all is byte-identical across thread counts", ok,
            f"{len(p1.stdout)} bytes")
