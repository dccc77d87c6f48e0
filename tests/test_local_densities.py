import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from formgaps import local_densities
from formgaps.arith import divisors, factorize, nu, primes
from formgaps.characters import F, F_sieve, chi4
from formgaps.errors import BudgetError, InvariantError
from formgaps.local_densities import (
    eta,
    eta_brute,
    eta_table,
    lambda_bar,
    lambda_prime_power,
)

# the highly composite numbers of bench/workloads.py, where lambda --bar is timed
HIGHLY_COMPOSITE = (
    5040, 55440, 720720, 1441440, 4324320, 8648640, 21621600,
    36756720, 61261200, 245044800, 367567200, 735134400,
)


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)^(number of primes)."""
    f = factorize(n)
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def lambda_bar_divisor_sum(a: int, n: int) -> Fraction:
    """The oracle (lambda_a * mu)(n) = sum_{d | n} mu(n/d) eta_a(d) / d, term by term
    (the terms with mu(n/d) = 0 skipped)."""
    ds = [d for d in divisors(factorize(n)) if mobius(n // d)]
    return sum((mobius(n // d) * Fraction(eta(a, d), d) for d in ds), Fraction(0))


def test_eta_brute_examples():
    assert eta_brute(5, 5) == 9
    assert eta_brute(7, 1) == 1
    assert eta_brute(0, 2) == 2


def test_eta_brute_matches_pair_count_and_eta():
    # shifts below 0 and beyond q; a plain double loop where q is small
    for q in (1, 2, 8, 3 ** 7, 5 ** 5):
        for a in (0, 1, 2, 3, -1, -5, q - 1, q, q + 3, -q - 2, 7 * q + 5):
            got = eta_brute(a, q)
            if q <= 8:
                pairs = sum((x * x + y * y - a) % q == 0
                            for x in range(1, q + 1) for y in range(1, q + 1))
                assert got == pairs, (a, q)
            assert got == eta(a, q), (a, q)


def test_eta_brute_budget():
    with pytest.raises(BudgetError):
        eta_brute(1, (1 << 23) + 1)


def test_lambda_prime_power_examples():
    assert lambda_prime_power(5, 1, 5) == Fraction(9, 5)
    assert lambda_prime_power(3, 1, 3) == Fraction(1, 3)
    assert lambda_prime_power(3, 1, 1) == Fraction(4, 3)


def test_lambda_prime_power_validation():
    with pytest.raises(ValueError):
        lambda_prime_power(4, 1, 1)
    with pytest.raises(ValueError):
        lambda_prime_power(3, 0, 1)
    with pytest.raises(ValueError):
        lambda_prime_power(4, 1, 0)
    assert lambda_prime_power(3, 1, 0) == Fraction(1, 3)


def test_lambda_prime_power_matches_brute_small_grid():
    for p, js in [(2, range(1, 13))] + [(p, (1, 2, 3)) for p in (3, 5, 7, 11, 13)]:
        for j in js:
            q = p ** j
            for a in range(-12, 13):
                assert lambda_prime_power(p, j, a) == Fraction(eta_brute(a, q), q), (p, j, a)


def test_lambda_two_power_bound():
    for j in range(1, 13):
        for a in range(-40, 41):
            lam = lambda_prime_power(2, j, a)
            assert 0 <= lam <= 4


def test_eta_examples_and_multiplicativity():
    assert eta(5, 5) == 9
    assert eta(1, 3) == 4
    assert eta(1, 15) == eta(1, 3) * eta(1, 5) == eta_brute(1, 15)


def test_eta_matches_brute_sweep():
    for q in range(1, 80):
        for a in range(-15, 16):
            assert eta(a, q) == eta_brute(a, q), (a, q)


def test_eta_zero_shift_closed_form():
    # v = nu_p(0) is infinite: every p^j <= 2^21 with p < 60 against the direct count
    for p in primes(59).tolist():
        q = p
        while q <= 1 << 21:
            assert eta(0, q) == eta_brute(0, q), q
            q *= p
    # moduli past the direct count's cap
    assert eta(0, 10000019) == 1
    assert eta(0, 5 ** 10) == 9 * 5 ** 10
    assert lambda_bar(0, 5 ** 10) == Fraction(4, 5)


def test_eta_rejects_a_product_outside_its_range(monkeypatch):
    assert eta(5, 5) == 9
    monkeypatch.setattr(local_densities, "_eta_prime_power", lambda a, p, e: p ** (2 * e) + 1)
    with pytest.raises(InvariantError):
        eta(5, 5)  # 26 > 5^2
    monkeypatch.setattr(local_densities, "_eta_prime_power", lambda a, p, e: -1)
    with pytest.raises(InvariantError):
        eta(1, 3)


def test_lambda_bar_examples():
    assert lambda_bar(7, 1) == 1
    assert lambda_bar(1, 3) == Fraction(1, 3)
    assert lambda_bar(1, 9) == 0


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_mobius_multiplicative_on_coprime_pairs():
    for m in range(1, 40):
        for n in range(1, 1000 // max(m, 1)):
            if math.gcd(m, n) == 1:
                assert mobius(m * n) == mobius(m) * mobius(n)


def test_lambda_bar_matches_divisor_sum():
    for a in range(-30, 31):
        for n in range(1, 400):
            assert lambda_bar(a, n) == lambda_bar_divisor_sum(a, n), (a, n)


@pytest.mark.parametrize("n", HIGHLY_COMPOSITE)
def test_lambda_bar_matches_divisor_sum_at_highly_composite(n):
    for a in range(-30, 31):
        assert lambda_bar(a, n) == lambda_bar_divisor_sum(a, n), (a, n)


def test_lambda_bar_is_mobius_inverse():
    # lambda_a(n) = sum_{d | n} lambda_bar_a(d)
    for a in (1, 2, 5):
        for n in (1, 2, 6, 12, 45, 90):
            total = sum(lambda_bar(a, d) for d in divisors(factorize(n)))
            assert total == Fraction(eta(a, n), n)


def test_lambda_bar_vanishing_tail():
    for a in (3, 9, 21, -15, 49):
        for p, _ in factorize(abs(a)).factors:
            if p == 2:
                continue
            v = nu(p, a)
            for j in range(v + 2, v + 7):
                assert lambda_bar(a, p ** j) == 0


def test_lambda_bar_odd_support_bound():
    for a in (1, 2, 5, 12):
        D = max(abs(lambda_bar(a, d)) for d in divisors(factorize(a * a)))
        for z in range(1, 1501, 2):
            assert abs(z * lambda_bar(a, z)) <= a * a * D


def S_qa(q, a, x):
    """The progression sum of F_chi4(n) over n <= x with n = a (mod q): a
    stride of F_sieve, whose entry 0 is a zero pad."""
    return int(F_sieve(chi4(), x)[a % q :: q].sum())


def test_tolev_main_examples():
    # the main term pi eta_a(q) x / (4 q^2) of S_qa(x) at three points
    def tolev_main(q, a, x):
        return math.pi * eta(a, q) * x / (4 * q * q)

    assert abs(tolev_main(1, 0, 100.0) - math.pi * 25) < 1e-12
    assert abs(tolev_main(5, 5, 100.0) - 9 * math.pi) < 1e-12
    assert abs(tolev_main(2, 0, 8.0) - math.pi) < 1e-12


def test_S_qa_values():
    # chi4 divisor-sum values over n = 1..10 sum to 9
    assert S_qa(1, 0, 10) == 9
    assert S_qa(4, 3, 100) == 0
    assert S_qa(2, 1, 10) == 4


def test_S_qa_splits_by_residue():
    # each class against F by factorization, independent of the sieve
    x = 5000
    parts = [S_qa(7, r, x) for r in range(7)]
    assert parts == [sum(F(chi4(), n) for n in range(r or 7, x + 1, 7)) for r in range(7)]
    assert sum(parts) == S_qa(1, 0, x)


def test_eta_table_matches_brute():
    et = eta_table(2, 400)
    for n in range(1, 401):
        assert int(et[n]) == eta_brute(2, n)


@pytest.mark.parametrize("a", [0, 1, -7, 60, 2 * 1009])
def test_eta_table_matches_eta(a):
    # 2 * 1009 has a prime factor above sqrt(n_max); a = 0 checks the closed
    # form q + chi4(q) (q - 1) at the large primes q against eta_brute
    n_max = 20_000
    table = eta_table(a, n_max)
    assert table.dtype == np.int64 and table[0] == 0
    assert table.tolist()[1:] == [eta(a, n) for n in range(1, n_max + 1)]
