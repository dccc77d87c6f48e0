"""Exact integer arithmetic: factorization, p-adic valuations, divisor functions.

Everything here is pure and deterministic.  MAX_INPUT = 2^63 - 1 is the largest
integer any route of the package takes (BudgetError past it).  Below it
factorization is trial division with a 2-3-5 wheel (complete for n <= 10^8)
backed by Brent's rho for larger cofactors, and primality is the deterministic
Miller-Rabin base set for 64-bit integers.  Python integers keep all
intermediate products exact, so quartic expressions downstream never overflow.
Two odd-only sieves cover disjoint ranges: `small_primes`, a bytearray sieve
below SMALL_PRIME_LIMIT = 2^16 that needs no numpy, and `_odd_primes` above
it.  The first seeds the `primes` cache, which the second grows, and the cache
feeds `prime_blocks` and `spf_table`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import chain, compress, cycle

from . import _np as np
from .errors import BudgetError
from .record import Record

MAX_INPUT = (1 << 63) - 1  # int64's maximum, which the numpy routes need

_TRIAL_LIMIT = 10_000  # trial division alone is complete up to its square

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)  # increments from 7 through the 2-3-5 wheel

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n <= MAX_INPUT; BudgetError above."""
    if n > MAX_INPUT:
        raise BudgetError(f"is_prime requires n <= {MAX_INPUT}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 37 * 37:  # a composite below 37^2 has a prime factor <= 31, tried above
        return True
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Factorization(Record):
    """Prime-power decomposition: value == prod(p**e for p, e in factors).

    Primes are strictly increasing and individually primality-checked;
    exponents are positive.  factorize(1) carries an empty factor tuple.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prod *= p ** e
            last = p
        if prod != self.value:
            raise ValueError("factor product does not reconstruct value")


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n (n odd, not a prime power of 2)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def _split(n: int, out: dict) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _split(d, out)
    _split(n // d, out)


def factorize(n: int) -> Factorization:
    """Prime-power decomposition of n, for 1 <= n <= MAX_INPUT."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > MAX_INPUT:
        raise BudgetError(f"factorize requires n <= {MAX_INPUT}")
    m, p, fac = n, 2, []
    steps = chain((1, 2, 2), cycle(_WHEEL))  # 2, 3, 5, then the wheel from 7
    while p * p <= m and p <= _TRIAL_LIMIT:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fac.append((p, e))
        p += next(steps)
    if p * p > m > 1:
        fac.append((m, 1))
    elif m > 1:
        extra: dict[int, int] = {}
        _split(m, extra)  # its first step decides whether m is prime
        fac.extend(sorted(extra.items()))
    return Factorization(n, tuple(fac))


def nu(p: int, w: int) -> int:
    """Largest t with p^t | w, for prime p and w != 0."""
    if not is_prime(p):
        raise ValueError(f"nu requires a prime p, got {p}")
    if w == 0:
        raise ValueError("nu requires w != 0")
    w = abs(w)
    t = 0
    while w % p == 0:
        w //= p
        t += 1
    return t


def divisors(f: Factorization) -> list[int]:
    """All divisors of f.value in increasing order."""
    out = [1]
    for p, e in f.factors:
        pk = 1
        block = list(out)
        for _ in range(e):
            pk *= p
            out.extend(d * pk for d in block)
    out.sort()
    return out


SMALL_PRIME_LIMIT = 1 << 16  # small_primes holds every prime below it

PRIME_CACHE_MAX = 1 << 24  # the cache doubles up to here and no further

PRIME_SEGMENT = 1 << 21  # integers per block of the segmented sieve past the cache: 2^20 odd flags

# (limit, primes <= limit): one assignment, so no thread sees a mismatched pair;
# the first call builds it, so importing arith loads no numpy
_prime_cache = (0, None)


@lru_cache(maxsize=None)
def small_primes() -> tuple:
    """Every prime below SMALL_PRIME_LIMIT as a tuple of ints, from one flag
    per odd number in a bytearray: the base primes of any window below 2^32,
    without numpy."""
    half = SMALL_PRIME_LIMIT // 2
    odd = bytearray(b"\1") * half  # flag i stands for the odd number 2i + 1
    odd[0] = 0
    for i in range(1, math.isqrt(SMALL_PRIME_LIMIT) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = bytes(len(range(p * p // 2, half, p)))
    return (2, *compress(range(1, SMALL_PRIME_LIMIT, 2), odd))


def _odd_primes(o: int, e: int, base: np.ndarray) -> np.ndarray:
    """The odd primes in [o, e], o odd, as an int64 array, from one flag per odd
    number; base holds every odd prime up to isqrt(e), and isqrt(e) < o."""
    prime = np.ones((e - o) // 2 + 1, dtype=bool)  # flag i stands for the odd number o + 2i
    for p in base[: int(np.searchsorted(base, math.isqrt(e), side="right"))].tolist():
        j = (-o) % p  # o + j is the first multiple of p from o on; odd iff j is even
        prime[(j + p * (j % 2)) // 2 :: p] = False  # p < o, so p itself is never struck
    odd = np.flatnonzero(prime)
    odd *= 2
    odd += o
    return odd


def primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array: a slice of the cache, grow-only up
    to PRIME_CACHE_MAX; larger limits join the blocks of `prime_blocks` and
    leave the cache as it is.  The first call takes `small_primes` as it is;
    the cache grows by `_odd_primes` over each new range, in one step, as
    PRIME_CACHE_MAX is below (2^16 - 1)^2: the table holds its base primes."""
    global _prime_cache
    if limit > PRIME_CACHE_MAX:
        return np.concatenate(list(prime_blocks(2, limit)))
    top, cache = _prime_cache
    if top == 0:
        top = min(SMALL_PRIME_LIMIT - 1, PRIME_CACHE_MAX)
        small = small_primes()
        cache = np.array(small[: bisect_right(small, top)], dtype=np.int64)
        _prime_cache = (top, cache)
    if limit > top:
        end = min(max(limit, 2 * top), PRIME_CACHE_MAX)
        top, cache = end, np.concatenate((cache, _odd_primes(top + 1 | 1, end, cache[1:])))
        _prime_cache = (top, cache)
    return cache[: int(np.searchsorted(cache, limit, side="right"))]


def prime_blocks(lo: int, hi: int):
    """The primes in [lo, hi] as increasing int64 arrays, one block at a time: a
    slice of the primes() cache up to PRIME_CACHE_MAX, then `_odd_primes` over
    PRIME_SEGMENT integers at a time, so memory stays bounded whatever hi."""
    if lo <= PRIME_CACHE_MAX:
        ps = primes(min(hi, PRIME_CACHE_MAX))
        ps = ps[int(np.searchsorted(ps, lo)) :]
        if ps.size:
            yield ps
    if hi <= PRIME_CACHE_MAX:
        return
    base = primes(math.isqrt(hi))[1:]  # the odd primes
    for s in range(max(lo, PRIME_CACHE_MAX + 1), hi + 1, PRIME_SEGMENT):
        yield _odd_primes(s | 1, min(s + PRIME_SEGMENT - 1, hi), base)


@lru_cache(maxsize=8)
def spf_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..limit (spf[0] = spf[1] = 0): n starts
    as itself, and each cached prime p <= isqrt(limit), largest first, writes p
    on its multiples from p^2, so the least prime of n is written last."""
    spf = np.arange(limit + 1, dtype=np.int64)
    spf[:2] = 0
    for p in primes(math.isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p
    return spf
