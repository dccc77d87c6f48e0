"""Local densities of sums of two squares in residue classes.

    eta_a(q)    = #{ 1 <= alpha, beta <= q : alpha^2 + beta^2 = a (mod q) }
    lambda_a(q) = eta_a(q) / q        (multiplicative in q, for every fixed a)

The value of lambda_a(p^j) is in closed form, branching on p mod 4 and the
valuation v = nu_p(a):

    a = 0:                v = infinity (p^j | 0), so only the j <= v rows apply
    p = 1 mod 4, p | a:   1 + j(1 - 1/p)         for 1 <= j <= v
                          (1 + v)(1 - 1/p)       for j >= v + 1
    p = 3 mod 4, p | a:   1/p  (j odd) or 1 (j even)   for 1 <= j <= v
                          1 + 1/p  (v even) or 0 (v odd)  for j >= v + 1
    p odd, p does not divide a:   1 - chi4(p)/p  for every j >= 1
    p = 2:                1 for j <= v + 1, then 1 + chi4(a / 2^v) (2 or 0)

`eta_brute` counts residues directly; it is the closed forms' oracle only.
The rest is read off these prime powers, with lambda_a(1) = 1:

    eta_a(q)        = prod_{p^e || q} eta_a(p^e), an integer in [0, q^2]
    lambda_bar_a(n) = (lambda_a * mu)(n) = prod_{p^e || n} (lambda_a(p^e) - lambda_a(p^(e-1)))

Each eta_a(p^e) must be an exact integer and each eta_a(q) lie in [0, q^2]: enforced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

from . import _np as np
from .arith import factorize, is_prime, nu, primes
from .characters import _strided_prime, chi4
from .errors import BudgetError, InvariantError
from .util import chunk_ranges

ETA_BRUTE_MAX = 1 << 23  # direct residue counting cap (memory: a few arrays of q)


@lru_cache(maxsize=8)
def _square_counts(q: int) -> np.ndarray:
    """counts[r] = #{1 <= alpha <= q : alpha^2 = r (mod q)} (treat as read-only)."""
    counts = np.zeros(q, dtype=np.int64)
    for lo, hi in chunk_ranges(1, q):
        alpha = np.arange(lo, hi + 1, dtype=np.int64)
        counts += np.bincount((alpha * alpha) % q, minlength=q)
    return counts


def eta_brute(a: int, q: int) -> int:
    """Direct count of ordered pairs in [1,q]^2 with alpha^2 + beta^2 = a (mod q).

    Counted through squares-per-residue tables in O(q); this is the oracle the
    multiplicative route is checked against, so it never consults the closed
    forms.
    """
    if q < 1:
        raise ValueError("eta_brute requires q >= 1")
    if q > ETA_BRUTE_MAX:
        raise BudgetError(f"eta_brute modulus {q} exceeds {ETA_BRUTE_MAX}")
    counts = _square_counts(q)
    # sum over r of counts[r] counts[(a - r) % q]: the reversal rolled by a + 1
    return int(counts @ np.roll(counts[::-1], (a + 1) % q))


def lambda_prime_power(p: int, j: int, a: int) -> Fraction:
    """lambda_a(p^j) as an exact rational, for prime p, j >= 1 and any a."""
    if j < 1:
        raise ValueError("lambda_prime_power requires j >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = nu(p, a) if a else j  # every p^j divides 0
    if p == 2:
        return Fraction(1 if j <= v + 1 else 1 + chi4()(a >> v))
    chi = chi4()(p)
    if v == 0:
        return 1 - Fraction(chi, p)
    if chi == 1:
        if j <= v:
            return 1 + j * (1 - Fraction(1, p))
        return (1 + v) * (1 - Fraction(1, p))
    if j <= v:
        return Fraction(1, p) if j % 2 == 1 else Fraction(1)
    return 1 + Fraction(1, p) if v % 2 == 0 else Fraction(0)


def _eta_prime_power(a: int, p: int, e: int) -> int:
    """eta_a(p^e) = p^e lambda_a(p^e), which must be an exact integer."""
    pe = p ** e
    val = lambda_prime_power(p, e, a) * pe
    if val.denominator != 1:
        raise InvariantError(f"eta({a}, {pe}) came out as the non-integer {val}")
    return int(val)


def eta(a: int, q: int) -> int:
    """eta_a(q) assembled multiplicatively over the prime powers of q.

    Each prime-power factor must be an exact integer and the product must lie
    in [0, q^2], or the assembly is reported as faulty.
    """
    if q < 1:
        raise ValueError("eta requires q >= 1")
    total = 1
    for p, e in factorize(q).factors:
        total *= _eta_prime_power(a, p, e)
    if not 0 <= total <= q * q:
        raise InvariantError(f"eta({a}, {q}) came out as {total}, outside [0, q^2]")
    return total


def lambda_bar(a: int, n: int) -> Fraction:
    """(lambda_a * mu)(n) = prod_{p^e || n} (lambda_a(p^e) - lambda_a(p^(e-1))),
    with lambda_a(1) = 1."""
    if n < 1:
        raise ValueError("lambda_bar requires n >= 1")
    total = Fraction(1)
    for p, e in factorize(n).factors:
        below = lambda_prime_power(p, e - 1, a) if e > 1 else 1
        total *= lambda_prime_power(p, e, a) - below
    return total


@lru_cache(maxsize=16)
def eta_table(a: int, n_max: int) -> np.ndarray:
    """eta_a(n) for n = 0..n_max (entry 0 unused), as a multiplicative sieve.

    The primes p <= isqrt(n_max), and the prime factors of a up to n_max, go
    through characters._strided_prime with the factor eta_a(p^e) at p^e || n,
    which also collects the smooth part of n.  What is left of n is 1 or one
    prime q that does not divide a (a != 0), where eta_a(q) = q - chi4(q), or
    q + chi4(q) (q - 1) when a = 0.  Treat the result as read-only: it is
    cached.
    """
    out = np.ones(n_max + 1, dtype=np.int64)
    out[0] = 0
    smooth = np.ones(n_max + 1, dtype=np.int64)
    root = math.isqrt(n_max)
    ps = primes(root).tolist()
    if a:
        ps += [p for p, _ in factorize(abs(a)).factors if root < p <= n_max]
    for p in ps:
        _strided_prime(out[1:], smooth[1:], 1, n_max, p, partial(_eta_prime_power, a, p))
    q = np.arange(n_max + 1, dtype=np.int64) // smooth
    chi = chi4().table[q % 4]
    out *= np.where(q > 1, q - chi, 1) if a else q + chi * (q - 1)
    return out
