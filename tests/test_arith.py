import math
import random
import sys
import threading

import numpy as np
import pytest

from formgaps import arith
from formgaps.arith import (
    Factorization,
    divisors,
    factorize,
    is_prime,
    nu,
    primes,
)
from formgaps.errors import BudgetError


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1).factors == ()
    assert factorize(9991).factors == ((97, 1), (103, 1))


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(BudgetError):  # an input cap, reported as exit 2
        factorize((1 << 63) + 1)


def test_the_ceiling_is_int64_max():
    # 2^63 - 1 is the largest integer any route takes.  318665857834031151167461
    # = 399165290221 * 798330580441 is the least strong pseudoprime to the twelve
    # prime bases 2..37 (Sorenson & Webster, Math. Comp. 86, 2017), which the
    # Miller-Rabin test would call prime
    assert arith.MAX_INPUT == np.iinfo(np.int64).max
    assert factorize(2 ** 63 - 1).factors == (
        (7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1))
    assert not is_prime(2 ** 63 - 1) and is_prime(2 ** 61 - 1)
    for n in (2 ** 63, 318665857834031151167461):
        with pytest.raises(BudgetError):
            factorize(n)
        with pytest.raises(BudgetError):
            is_prime(n)


def test_factorize_product_reconstruction():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randrange(1, 10 ** 6)
        f = factorize(n)
        assert math.prod(p ** e for p, e in f.factors) == n
    # past the trial-division limit 10^4: products of primes in (10^4, 10^6),
    # squares and cubes among them, some times small prime powers, up to 2^63
    small = [int(p) for p in primes(100)]
    big = [int(p) for p in primes(10 ** 6) if p > 10 ** 4]
    for _ in range(400):
        want, n = {}, 1
        for p in rng.sample(small, rng.randrange(3)) + rng.sample(big, rng.randrange(1, 4)):
            e = rng.randrange(1, 4)
            if n * p ** e <= 1 << 63:
                want[p] = e
                n *= p ** e
        assert factorize(n).factors == tuple(sorted(want.items())), n


def test_factorize_large_semiprime():
    # above the trial-division range, exercises the rho fallback
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_tests_each_cofactor_once(monkeypatch):
    # the cofactor past trial division takes one Miller-Rabin test, prime or not
    seen = []

    def counted(n):
        seen.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    p, q = 1_000_003, 1_000_033
    assert factorize(7 * p * q).factors == ((7, 1), (p, 1), (q, 1))
    assert seen.count(p * q) == 1
    seen.clear()
    r = 1_000_000_000_039  # prime, past the square of the trial limit
    assert factorize(11 * r).factors == ((11, 1), (r, 1))
    assert seen.count(r) == 2  # factorize's one test, then Factorization's invariant check


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # not increasing
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2), (3, 0)))  # zero exponent
    with pytest.raises(ValueError):
        Factorization(8, ((4, 1), (2, 1)))  # 4 is not prime
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1), (3, 1)))  # wrong product


def test_nu():
    assert nu(3, 18) == 2
    assert nu(7, 10) == 0
    assert nu(2, -24) == 3
    with pytest.raises(ValueError):
        nu(6, 12)
    with pytest.raises(ValueError):  # the valuation of 0 is no integer
        nu(5, 0)


def test_divisors():
    assert divisors(factorize(6)) == [1, 2, 3, 6]
    assert divisors(factorize(1)) == [1]
    assert divisors(factorize(12)) == [1, 2, 3, 4, 6, 12]


def test_divisors_length_equals_tau():
    # tau(n) = prod (e + 1) over p^e || n
    assert [len(divisors(factorize(n))) for n in (1, 12, 64)] == [1, 6, 7]
    for n in range(1, 10_001):
        assert len(divisors(factorize(n))) == math.prod(e + 1 for _, e in factorize(n).factors)


def test_is_prime_against_sieve():
    # covers the shortcut below 37^2 and Miller-Rabin above it
    ps = set(int(p) for p in primes(200_000))
    for n in range(200_000):
        assert is_prime(n) == (n in ps), n


def test_small_primes_are_every_prime_below_two_to_the_16():
    # the numpy-free table, which also seeds the primes() cache
    assert arith.small_primes() == tuple(n for n in range(arith.SMALL_PRIME_LIMIT) if is_prime(n))
    assert arith.SMALL_PRIME_LIMIT == 1 << 16


def test_primes_cache_grows():
    assert list(primes(10)) == [2, 3, 5, 7]
    assert int(primes(100)[-1]) == 97


@pytest.mark.parametrize("segment", [1 << 10, 1001])
def test_prime_blocks_past_the_cache_match_is_prime(monkeypatch, segment):
    # a small cache and segment, so most of [lo, 2^18] comes from the segmented
    # sieve; segments start on odd numbers only from an odd lo with an even
    # segment, on even ones only from an even lo, and alternate with 1001
    monkeypatch.setattr(arith, "PRIME_CACHE_MAX", 1 << 12)
    monkeypatch.setattr(arith, "PRIME_SEGMENT", segment)
    monkeypatch.setattr(arith, "_prime_cache", (0, None))
    hi = 1 << 18
    expected = [n for n in range(hi + 1) if is_prime(n)]
    for lo in (0, 2, 3, 1000, 4096, 4097, 4098, 5001, 77777, 200000, hi - 1, hi):
        blocks = list(arith.prime_blocks(lo, hi))
        assert all(b.dtype == np.int64 for b in blocks)
        got = [int(p) for b in blocks for p in b]
        assert got == [p for p in expected if p >= lo], lo
        assert lo > hi - segment or len(blocks) > 1
    for lo, top in ((4098, 4098), (4097, 4097), (4099, 4100), (9_000_002, 9_000_002 + 3 * segment)):
        got = [int(p) for b in arith.prime_blocks(lo, top) for p in b]
        assert got == [n for n in range(lo, top + 1) if is_prime(n)], (lo, top)


def _plain_sieve(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


@pytest.mark.parametrize("cache_max", [arith.PRIME_CACHE_MAX, 1 << 12])
def test_primes_cache_grows_in_any_order(monkeypatch, cache_max):
    # the cache grows by the odd-only sieve over each new range, from the
    # import-time (0, None); every order of limits must give the full sieve.
    # The prime 1_000_003 becomes the cache's limit, so the next growth must
    # start past it
    monkeypatch.setattr(arith, "PRIME_CACHE_MAX", cache_max)
    expected = _plain_sieve(1 << 24)
    up = (10, 100, 70_000, 1_000_003, 5 * 10 ** 6, 1 << 24)
    for order in (up, up[::-1], (1 << 24,)):
        monkeypatch.setattr(arith, "_prime_cache", (0, None))
        for limit in order:
            got = primes(limit)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected[: np.searchsorted(expected, limit, side="right")])
            top, cache = arith._prime_cache
            assert top <= cache_max
            assert np.array_equal(cache, expected[: np.searchsorted(expected, top, side="right")])


def test_spf_table_matches_a_plain_reference():
    def reference(limit):
        spf = np.zeros(limit + 1, dtype=np.int64)
        for p in range(2, limit + 1):
            if spf[p] == 0:  # no smaller prime divides p
                multiples = spf[p::p]
                multiples[multiples == 0] = p
        return spf

    for limit in list(range(101)) + [10 ** 5, 10 ** 6 + 3]:
        got = arith.spf_table(limit)
        assert got.dtype == np.int64 and np.array_equal(got, reference(limit)), limit


def test_prime_blocks_straddle_the_cache_max():
    # windows across PRIME_CACHE_MAX join a slice of the cache to sieved
    # segments; the widest also crosses a segment boundary, checked by the full sieve
    top, wide = arith.PRIME_CACHE_MAX, arith.PRIME_CACHE_MAX + arith.PRIME_SEGMENT + 7
    full = _plain_sieve(wide)
    for lo, hi in ((top - 1000, top + 1000), (top, top + 1), (top - 1, top + 3), (top - 5 * 10 ** 4, wide)):
        blocks = list(arith.prime_blocks(lo, hi))
        assert all(b.dtype == np.int64 for b in blocks)
        got = np.concatenate(blocks)
        assert np.array_equal(got, full[(full >= lo) & (full <= hi)]), (lo, hi)
        if hi - lo < 10 ** 4:
            assert got.tolist() == [n for n in range(lo, hi + 1) if is_prime(n)], (lo, hi)


def test_primes_cache_under_threads(monkeypatch):
    # four threads grow an empty cache at once; every later call in every
    # thread must still see all primes up to its limit
    limits = (70_000, 150_000, 300_000, 600_000)
    expected = {n: int(primes(n).size) for n in limits}
    seen = []

    def grow(limit):
        primes(limit)
        seen.extend((n, int(primes(n).size)) for n in limits)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(arith, "_prime_cache", (0, np.array([], dtype=np.int64)))
            threads = [threading.Thread(target=grow, args=(n,)) for n in limits]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert len(seen) == 10 * len(limits) ** 2
    assert all(count == expected[n] for n, count in seen)
