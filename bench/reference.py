"""Independent reference routes for checking formgaps answers.

Nothing here calls the divisor-sum kernel or the sieves under test:

- ``F_psi`` on a window comes from a multiplicative reconstruction.  Every
  prime p <= sqrt(hi) contributes its exponent through strided counts over
  p, p^2, ...; the cofactor left after removing those primes is 1 or a single
  large prime.
- Membership of square2, triangle and diamond:D is ``F > 0`` for chi4, chi3
  and the Kronecker character of D (the divisor formulas r2 = 4 F_chi4,
  R2 = 6 F_chi3, ideal counts = F_chiD).  triangle_star comes from direct
  enumeration of c^2 + 3 d^2.
- Main-term constants use mpmath's Dirichlet L-values to 30 digits, with the
  local factors counted by ``eta_brute``.
- Integer factorizations of scalar answers come from sympy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def small_primes(n: int) -> np.ndarray:
    """Primes <= n by a plain Eratosthenes sieve."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for n >= 1, by reciprocity."""
    t = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            t = -t
    a, m = D % n, n
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                t = -t
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            t = -t
        a %= m
    return t if m == 1 else 0


CHARACTERS = {
    "chi3": (0, 1, -1),
    "chi4": (0, 1, 0, -1),
    "chi6": (0, 1, 0, 0, 0, -1),
}


def character_table(spec: str) -> tuple[int, ...]:
    """Residue table of a real character spec: chi3 | chi4 | chi6 | kronecker:D."""
    if spec in CHARACTERS:
        return CHARACTERS[spec]
    if spec.startswith("kronecker:"):
        D = int(spec.split(":", 1)[1])
        return tuple(kronecker(D, r) if math.gcd(r, abs(D)) == 1 else 0 for r in range(abs(D)))
    raise ValueError(f"no reference table for {spec!r}")


def F_windows(tables, lo: int, hi: int) -> list[np.ndarray]:
    """F(n) = sum over d | n of psi(d) for each real psi in tables, lo <= n <= hi.

    One pass over the primes <= sqrt(hi) serves every table.
    """
    if lo < 1 or hi < lo:
        raise ValueError("window must satisfy 1 <= lo <= hi")
    width = hi - lo + 1
    outs = [np.ones(width, dtype=np.int64) for _ in tables]
    smooth = np.ones(width, dtype=np.int64)
    for p in small_primes(math.isqrt(hi)).tolist():
        start = (-lo) % p
        if start >= width:
            continue
        e = np.ones(len(range(start, width, p)), dtype=np.int64)
        pk = p * p
        while pk <= hi:
            s = (-lo) % pk
            if s < width:
                e[(s - start) // p :: pk // p] += 1
            pk *= p
        smooth[start::p] *= np.power(p, e)
        for out, table in zip(outs, tables):
            v = table[p % len(table)]
            if v == 1:
                out[start::p] *= e + 1
            elif v == -1:
                out[start::p] *= 1 - (e & 1)
    cof = np.arange(lo, hi + 1, dtype=np.int64) // smooth
    big = cof > 1
    for out, table in zip(outs, tables):
        tab = np.asarray(table, dtype=np.int64)
        out[big] *= 1 + tab[cof[big] % len(table)]
    return outs


def triangle_star_window(lo: int, hi: int) -> np.ndarray:
    """Mask of n = c^2 + 3 d^2 on [lo, hi], by enumerating d."""
    out = np.zeros(hi - lo + 1, dtype=bool)
    for d in range(math.isqrt(hi // 3) + 1):
        base = 3 * d * d
        c_lo = math.isqrt(max(lo - base, 0))
        if c_lo * c_lo + base < lo:
            c_lo += 1
        c_hi = math.isqrt(hi - base)
        if c_lo <= c_hi:
            c = np.arange(c_lo, c_hi + 1, dtype=np.int64)
            out[c * c + base - lo] = True
    return out


_SET_CHARACTER = {"square2": "chi4", "triangle": "chi3"}


def member_windows(sets, lo: int, hi: int) -> dict[str, np.ndarray]:
    """Membership masks on [lo, hi] (lo >= 1) of formgaps set specs, by spec."""
    out = {}
    if "triangle_star" in sets:
        out["triangle_star"] = triangle_star_window(lo, hi)
    by_F = sorted({s for s in sets if s != "triangle_star"})
    specs = ["kronecker:" + s.split(":", 1)[1] if s.startswith("diamond:") else _SET_CHARACTER[s]
             for s in by_F]
    for s, F in zip(by_F, F_windows([character_table(c) for c in specs], lo, hi)):
        out[s] = F > 0
    return out


def census(set1: str, set2: str, a: int, x: int, H: int, cap: int) -> tuple[int, list[int]]:
    """(count, first cap witnesses) of n in [x, x+H] with n in set1, n+a in set2."""
    lo, hi = max(x, -a, 1), x + H
    if lo > hi:
        return 0, []
    u_lo, u_hi = lo + min(a, 0), hi + max(a, 0)  # both shifted windows
    masks = member_windows({set1, set2}, u_lo, u_hi)
    both = masks[set1][lo - u_lo : hi - u_lo + 1] & masks[set2][lo + a - u_lo : hi + a - u_lo + 1]
    found = np.flatnonzero(both)
    return int(found.size), [lo + int(i) for i in found[:cap]]


# ------------------------------------------------------------ factorization


def factor(n: int) -> dict[int, int]:
    import sympy

    return {int(p): int(e) for p, e in sympy.factorint(n).items()}


def F_int(table: tuple[int, ...], n: int) -> int:
    """F(n) from the prime factorization of n."""
    k = len(table)
    total = 1
    for p, e in factor(n).items():
        v = table[p % k]
        total *= e + 1 if v == 1 else (1 - e % 2 if v == -1 else 1)
    return total


def in_square2(n: int) -> bool:
    return n == 0 or F_int(CHARACTERS["chi4"], n) > 0


def in_triangle(n: int) -> bool:
    return n == 0 or F_int(CHARACTERS["chi3"], n) > 0


# ------------------------------------------------------------ local densities


def lam(eta_brute, a: int, p: int, j: int) -> Fraction:
    """lambda_a(p^j) = eta_a(p^j) / p^j, brute-counted at a small modulus.

    For odd p the density is constant once j > nu_p(a); at p = 2, once
    j >= nu_2(a) + 3.  Both stabilization points are asserted, not assumed.
    """
    if j == 0:
        return Fraction(1)
    v = 0
    b = abs(a)
    while b % p == 0:
        b //= p
        v += 1
    j0 = min(j, v + (3 if p == 2 else 1))
    val = Fraction(eta_brute(a, p ** j0), p ** j0)
    if j > j0 and Fraction(eta_brute(a, p ** (j0 + 1)), p ** (j0 + 1)) != val:
        raise AssertionError(f"lambda_{a}({p}^j) is not constant beyond j = {j0}")
    return val


def lambda_bar(eta_brute, a: int, n: int) -> Fraction:
    """(lambda_a * mu)(n) as the product of lambda_a(p^e) - lambda_a(p^(e-1))."""
    total = Fraction(1)
    for p, e in factor(n).items():
        total *= lam(eta_brute, a, p, e) - lam(eta_brute, a, p, e - 1)
    return total


# ------------------------------------------------------------ main terms


@lru_cache(maxsize=None)
def L(s: int, table: tuple[int, ...]):
    import mpmath

    mpmath.mp.dps = 30
    return mpmath.dirichlet(s, list(table))


def _mpq(q: Fraction):
    import mpmath

    return mpmath.mpf(q.numerator) / q.denominator


def _product_table(t1, t2):
    k = math.lcm(len(t1), len(t2))
    return tuple(t1[r % len(t1)] * t2[r % len(t2)] for r in range(k))


def beta(eta_brute, spec: str, a: int):
    """beta(psi, a) = L(1, psi) / L(2, chi4 psi) times the exact p | a factors."""
    psi = character_table(spec)
    chi4 = CHARACTERS["chi4"]
    k = len(psi)
    val = L(1, psi) / L(2, _product_table(chi4, psi))
    for p, v in factor(abs(a)).items():
        if p == 2:
            continue
        r = Fraction(psi[p % k], p)
        G = Fraction(1)
        for d in range(1, v + 1):
            G += lam(eta_brute, a, p, d) * r ** d
        G += lam(eta_brute, a, p, v + 1) * r ** (v + 1) / (1 - r)
        local = G * (1 - r) / (1 - Fraction(chi4[p % 4] * psi[p % k], p * p))
        val *= _mpq(local)
    return val


def eta_star_coeff(eta_brute, spec: str, a: int) -> Fraction:
    """eta*(psi, a) / pi = sum of eta_j(b) / (2 b^2) over j in [1, b], psi(j - a) = 1."""
    psi = character_table(spec)
    b = len(psi)
    return sum(
        (Fraction(eta_brute(j, b), 2 * b * b) for j in range(1, b + 1) if psi[(j - a) % b] == 1),
        Fraction(0),
    )


def main_term(eta_brute, spec: str, a: int):
    import mpmath

    c = eta_star_coeff(eta_brute, spec, a)
    if c == 0:
        return mpmath.mpf(0)
    return beta(eta_brute, spec, a) * mpmath.pi * _mpq(c)


def muller_main(spec_psi: str, spec_rho: str, a: int):
    """Mueller's main-term coefficient M(a) for real primitive psi, rho mod k, a >= 1."""
    psi, rho = character_table(spec_psi), character_table(spec_rho)
    k = len(psi)
    dsum = Fraction(0)
    for d in range(1, a + 1):
        if a % d == 0:
            dsum += Fraction(psi[d % k] * rho[d % k], d)
    C = L(1, rho) * L(1, psi) / L(2, _product_table(psi, rho)) * _mpq(dsum)
    kpart = 1
    for p, e in factor(a).items():
        if k % p == 0:
            kpart *= p ** e
    bracket = Fraction(0)
    for t in range(1, kpart + 1):
        if kpart % t == 0:
            inner = sum(psi[j % k] * rho[(a // t + j) % k] for j in range(1, k + 1))
            bracket += Fraction(inner, t)
    bracket /= k
    return C * (1 + _mpq(bracket))
