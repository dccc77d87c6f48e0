import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from formgaps import analytic_constants, arith
from formgaps.analytic_constants import (
    G_series,
    L_value,
    L_value_exact,
    P_part,
    TruncatedValue,
    _beta_parts,
    _L_ratio_exact,
    _muller_bracket,
    _muller_parts,
    _sqrt_fraction,
    beta,
    beta_euler,
    eta_star,
    euler_factor_Gp,
    main_term,
    muller_C,
    muller_main,
)
from formgaps.arith import PRIME_CACHE_MAX, factorize
from formgaps.characters import (
    chi3,
    chi4,
    chi6,
    kronecker_character,
    product_character,
    trivial_character,
)
from formgaps.errors import BudgetError, InvariantError
from formgaps.local_densities import eta_brute


def test_L_value_closed_forms():
    L4 = L_value(chi4(), 1.0, 1e-9)
    assert abs(L4.value - math.pi / 4) <= L4.error_bound + 1e-12
    L3 = L_value(chi3(), 1.0, 1e-9)
    assert abs(L3.value - math.pi / (3 * math.sqrt(3))) <= L3.error_bound + 1e-12
    # L(2, chi4) is Catalan's constant
    L42 = L_value(chi4(), 2.0, 1e-10)
    assert abs(L42.value - 0.915965594177219) <= L42.error_bound + 1e-12


def _principal_L2(k):
    """L(2) of the principal character mod k, the literal series with zeros
    retained, from mpmath: zeta(2) prod_{p | k} (1 - p^-2)."""
    return float(mpmath.zeta(2) * mpmath.fprod(1 - mpmath.mpf(p) ** -2
                                               for p, _ in factorize(k).factors))


def test_L_value_principal():
    # L(2) of a principal character is exact; the series route refuses it
    for k in (1, 2, 5, 6, 12, 60):
        c, f = L_value_exact(trivial_character(k), 2)
        assert f == 1 and float(c) * math.pi ** 2 == pytest.approx(_principal_L2(k), rel=1e-15)
    for s in (1.0, 2.0):
        with pytest.raises(ValueError):
            L_value(trivial_character(5), s)


def test_L_value_refinement():
    a = L_value(chi6(), 1.0, 1e-4)
    b = L_value(chi6(), 1.0, 1e-10)
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_L_value_sums_in_bounded_blocks():
    # 10485760 terms: one array of that length would peak near 240 MB
    tracemalloc.start()
    try:
        tv = L_value(kronecker_character(5), 1.0, 1e-13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    # the single-array sum of the same series
    assert abs(tv.value - 0.4304089409640002) <= tv.error_bound
    with pytest.raises(BudgetError):  # N stops below 2^28
        L_value(kronecker_character(5), 1.0, 1e-18)


GOLDEN_L1 = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)  # L(1, (5/.))


def test_L_value_stops_at_a_whole_period(monkeypatch):
    # 2^14 - 3 = 1 mod 5: a sum cut there keeps chi(N) / N ~ 6e-5 of a partial
    # period that neither the tail bound nor the S1/k term counts
    monkeypatch.setattr(analytic_constants, "L_TERMS_MAX", (1 << 14) - 3)
    tv = L_value(kronecker_character(5), 1.0, 2e-8)
    assert tv.terms_used % 5 == 0 and tv.terms_used > 1 << 13
    assert abs(tv.value - GOLDEN_L1) <= tv.error_bound <= 2e-8


def test_L_value_refuses_an_eps_past_its_rounding_up_front():
    # the rounding allowance alone is 1e-14, so no term is summed
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            L_value(kronecker_character(8), 1.0, 1e-15 / 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_euler_factor_examples():
    assert euler_factor_Gp(chi6(), 1, 5, 1) == 1 - Fraction(2, 15)
    assert euler_factor_Gp(chi6(), 1, 5, 1.0) == 1 - Fraction(2, 15)  # exact at integer s
    assert euler_factor_Gp(chi6(), 3, 3, 1) == 1
    assert euler_factor_Gp(chi6(), 5, 7, 2) == 1 + Fraction(8, 7) / 48  # lambda = 8/7, r = 1/49
    g = euler_factor_Gp(chi6(), 1, 5, 1.5)
    assert isinstance(g, float) and g == pytest.approx(1 - 0.8 * 5 ** -1.5 / (1 + 5 ** -1.5))
    with pytest.raises(ValueError):
        euler_factor_Gp(chi6(), 0, 5, 1)  # nu rejects a = 0


def test_euler_factor_lower_bound():
    for p in (5, 7, 11, 13, 101):
        for a in (1, 2, 12):
            g = euler_factor_Gp(chi6(), a, p, 1)
            assert isinstance(g, Fraction) and abs(g) >= 1 - Fraction(2, p - 1)


def test_euler_factor_positive_for_real_characters():
    for p in (3, 5, 7, 97, 997):
        for s in (1, 1.5, 2):
            assert euler_factor_Gp(chi6(), 1, p, s) > 0


def test_beta_positive_and_consistent():
    b6 = beta(chi6(), 1, 1e-6)
    assert b6.value - b6.error_bound > 0
    # beta(chi6, 1) agrees with 3/pi to within its bound (observed closed form)
    assert abs(b6.value - 3 / math.pi) < 1e-6
    coarse = beta(chi6(), 1, 1e-3)
    assert abs(coarse.value - b6.value) <= 2e-3


def test_beta_against_direct_series():
    for a in (1, 2, 5, -7):
        e = beta(chi6(), a, 1e-6)
        d = G_series(chi6(), a, 1.0, 50_000)
        assert abs(e.value - d.value) <= e.error_bound + d.error_bound, a


def test_beta_validation():
    with pytest.raises(ValueError):
        beta(chi6(), 0)
    with pytest.raises(ValueError):
        beta(chi3(), 1)  # odd modulus
    with pytest.raises(ValueError):
        beta(trivial_character(6), 1)  # trivial
    # odd characters take the closed form, which meets any eps
    b6 = beta(chi6(), 1, 1e-12)
    assert abs(b6.value - 3 / math.pi) <= b6.error_bound
    # the Euler-product oracle keeps its budget
    with pytest.raises(BudgetError):
        beta_euler(kronecker_character(8), 1, 1e-12)


def test_eta_star_values():
    assert [eta_brute(j, 6) for j in range(6)] == [2, 8, 8, 2, 8, 8]
    assert eta_star(chi6(), 1) == Fraction(1, 9)
    assert eta_star(chi6(), 0) == Fraction(1, 9)
    assert eta_star(chi6(), 3) == Fraction(1, 9)
    for a in range(6):
        es = eta_star(chi6(), a)
        assert isinstance(es, Fraction) and es > 0
        assert es.denominator <= 2 * 36
    # periodicity in the shift
    assert eta_star(chi6(), 1) == eta_star(chi6(), 7)


def test_main_term():
    m = main_term(chi6(), 1, 1e-6)
    b = beta(chi6(), 1, 1e-7)
    assert m.value == pytest.approx(b.value * math.pi / 9, rel=1e-6)
    assert m.value > 0 and m.error_bound < 1e-6


def test_P_part():
    assert P_part(12, 6) == 12
    assert P_part(5, 6) == 1
    assert P_part(18, 4) == 2
    with pytest.raises(ValueError):
        P_part(0, 6)
    with pytest.raises(ValueError):
        P_part(4, 1)


def test_muller_C_closed_form():
    chi5 = kronecker_character(5)
    C = muller_C(chi5, chi5, 1, 1e-9)
    L1 = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    L2 = (math.pi ** 2 / 6) * (1 - 1 / 25)
    assert C.value == pytest.approx(L1 * L1 / L2, abs=1e-7)


def test_muller_main_single_bracket_term():
    chi5 = kronecker_character(5)
    # P(1, 5) = 1, so the bracket is k^-1 sum_j psi(j) rho(1 + j)
    M = muller_main(chi5, chi5, 1, 1e-9)
    C = muller_C(chi5, chi5, 1, 1e-9)
    bracket = sum(chi5(j) * chi5(1 + j) for j in range(1, 6)) / 5
    assert M.value == pytest.approx(C.value * (1 + bracket), abs=1e-8)
    assert isinstance(M.value, float)  # real-valued for real characters


def test_muller_validation():
    chi5 = kronecker_character(5)
    with pytest.raises(ValueError):
        muller_main(chi5, chi5, 0)
    with pytest.raises(ValueError):
        muller_main(chi5, chi5, -2)
    with pytest.raises(ValueError):
        muller_C(chi6(), chi6(), 1)  # chi6 is imprimitive


def test_G_series_consistency():
    g2 = G_series(chi6(), 1, 2.0, 20_000)
    b = beta(chi6(), 1, 1e-6)
    g1 = G_series(chi6(), 1, 1.0, 80_000)
    assert abs(g1.value - b.value) <= g1.error_bound + b.error_bound
    assert g2.error_bound < g1.error_bound
    # partial sums stay bounded in the critical strip (diagnostic)
    vals = [G_series(chi6(), 1, 0.6, n).value for n in (1000, 10_000, 100_000)]
    assert all(abs(v) < 10 for v in vals)
    with pytest.raises(ValueError):
        G_series(chi6(), 1, 0.0, 100)
    with pytest.raises(ValueError):
        G_series(trivial_character(6), 1, 1.0, 100)


def test_G_series_refuses_fewer_terms_than_its_fit():
    # the tail constant K is fitted over n >= 1000, so fewer terms leave nothing to fit
    with pytest.raises(ValueError, match="n_max >= 1000"):
        G_series(chi6(), 1, 1.0, 999)
    assert G_series(chi6(), 1, 1.0, 1000).terms_used == 1000


@pytest.mark.parametrize("fn, extra", [(beta, ()), (beta_euler, ()), (G_series, (1.0,)), (main_term, ())],
                         ids=["beta", "beta_euler", "G_series", "main_term"])
def test_zero_shift_names_the_function_called(fn, extra):
    with pytest.raises(ValueError, match=f"^{fn.__name__} requires a != 0$"):
        fn(chi4(), 0, *extra)


def test_truncated_value_guard():
    with pytest.raises(ValueError):
        TruncatedValue(1.0, -1.0, 3)
    with pytest.raises(ValueError):
        TruncatedValue(1.0, math.inf, 3)


ODD_BETA_CHARACTERS = (chi4(), chi6(), kronecker_character(-8), kronecker_character(-24))


def test_L_value_exact_matches_series():
    # odd characters at s = 1, even ones (principal and imprimitive included) at s = 2
    cases = [(chi, 1) for chi in (chi3(), chi4(), chi6(), kronecker_character(-8),
                                   kronecker_character(-24), kronecker_character(-7))]
    cases += [(product_character(chi4(), psi), 2) for psi in ODD_BETA_CHARACTERS]
    chi5 = kronecker_character(5)
    cases += [(chi, 2) for chi in (chi5, kronecker_character(8), trivial_character(1),
                                   trivial_character(6), product_character(chi5, chi5))]
    for chi, s in cases:
        c, f = L_value_exact(chi, s)
        exact = float(c) * math.pi ** s / f ** (s - 0.5)
        if chi.is_trivial:  # chi4 * chi4 among them; no series, the mpmath oracle
            assert exact == pytest.approx(_principal_L2(chi.modulus), rel=1e-15), chi.name
            continue
        series = L_value(chi, float(s), 1e-12)
        assert abs(exact - series.value) <= series.error_bound + 1e-15, (chi.name, s)
    with pytest.raises(ValueError):
        L_value_exact(chi4(), 2)  # odd character at s = 2
    with pytest.raises(ValueError):
        L_value_exact(kronecker_character(5), 1)  # even character at s = 1


def test_sqrt_fraction_enforces_squares():
    assert _sqrt_fraction(Fraction(576, 49)) == Fraction(24, 7)
    with pytest.raises(InvariantError):
        _sqrt_fraction(Fraction(3, 4))


def _closed(ones, two, factor) -> Fraction:
    """The exact ratio of an odd route: prod L(1) / L(2) * factor over pi^(len(ones) - 2)."""
    return _L_ratio_exact(ones, two) * factor


def test_beta_closed_form_values():
    # pi * beta(psi, 1)
    assert [_closed(*_beta_parts(psi, 1)) for psi in ODD_BETA_CHARACTERS] == [2, 3, 4, 4]
    with pytest.raises(ValueError):  # even: the L_value series only
        _closed(*_beta_parts(kronecker_character(8), 1))


def test_main_term_closed_form_chi6():
    shifts = (1, 2, 5, -5, 10, 25, 13)
    want = [Fraction(1, 3), Fraction(1, 12), Fraction(1, 15), Fraction(4, 15),
            Fraction(4, 15), Fraction(7, 25), Fraction(14, 39)]
    assert [_closed(*_beta_parts(chi6(), a)) * eta_star(chi6(), a) for a in shifts] == want
    for a, w in zip(shifts, want):
        m = main_term(chi6(), a, 1e-15)
        assert m.terms_used == 0 and abs(m.value - float(w)) <= m.error_bound < 1e-15


def test_closed_form_refuses_an_eps_below_its_rounding():
    b = beta(chi6(), 1, 1e-15)  # 3 / pi, its rounding bound 8.5e-16
    assert b.terms_used == 0 and b.error_bound <= 1e-15
    for eps in (1e-16, 0.0):
        with pytest.raises(BudgetError):
            beta(chi6(), 1, eps)
        with pytest.raises(BudgetError):
            muller_main(chi4(), chi4(), 1, eps)
    assert main_term(chi4(), 26, 0.0) == TruncatedValue(0.0, 0.0, 0)  # eta* = 0: exactly 0


def _muller_closed(psi, rho, a) -> Fraction:
    return _closed(*_muller_parts(psi, rho, a)) * (1 + _muller_bracket(psi, rho, a))


def test_muller_main_closed_form_chi4():
    got = [16 * _muller_closed(chi4(), chi4(), a) for a in (1, 2, 3, 5, 12)]
    assert got == [8, 4, Fraction(32, 3), Fraction(48, 5), Fraction(40, 3)]
    for a, w in zip((1, 2, 3, 5, 12), got):
        M = muller_main(chi4(), chi4(), a, 1e-15)
        assert M.terms_used == 0 and abs(M.value - float(w / 16)) <= M.error_bound < 1e-15
    with pytest.raises(ValueError):  # even pair: the L_value series only
        _muller_closed(kronecker_character(5), kronecker_character(5), 1)


def test_beta_closed_form_matches_euler_oracle():
    for psi in ODD_BETA_CHARACTERS:
        for a in [s * v for v in range(1, 61) for s in (1, -1)]:
            closed = beta(psi, a, 1e-6)
            euler = beta_euler(psi, a, 1e-6)
            assert closed.error_bound < 1e-15 * max(1.0, abs(closed.value))
            assert abs(closed.value - euler.value) <= euler.error_bound + closed.error_bound, (
                psi.name, a)
    # even characters take the L_value series, past the Euler product's budget
    for psi in (kronecker_character(D) for D in (8, 12, 24, 40)):
        for a in [s * v for v in (1, 2, 3, 5, 7, 9, 15, 25, 45, 60) for s in (1, -1)]:
            series = beta(psi, a, 1e-9)
            euler = beta_euler(psi, a, 1e-6)
            assert series.error_bound <= 1e-9
            assert abs(series.value - euler.value) <= euler.error_bound + series.error_bound, (
                psi.name, a)


def test_muller_C_odd_pairs_match_series():
    for chi in (chi4(), chi3()):
        for a in (1, 2, 3, 6, 12):
            C = muller_C(chi, chi, a, 1e-9)
            L1 = L_value(chi, 1.0, 1e-12)
            dsum = sum(Fraction(chi(d) ** 2, d) for d in range(1, a + 1) if a % d == 0)
            series = L1.value ** 2 / _principal_L2(chi.modulus) * float(dsum)
            assert C.terms_used == 0 and C.value == pytest.approx(series, abs=1e-11), (chi.name, a)


def test_muller_C_even_pairs_match_class_number_formula():
    # L(1, chi_D) = 2 h log(epsilon) / sqrt(D) with h = 1 for D = 5 (epsilon the
    # golden ratio) and D = 8 (epsilon = 1 + sqrt 2); L(2) of chi_D^2 is principal
    for D, unit in ((5, (1 + mpmath.sqrt(5)) / 2), (8, 1 + mpmath.sqrt(2))):
        chi = kronecker_character(D)
        L1 = float(2 * mpmath.log(unit) / mpmath.sqrt(D))
        for a in (1, 2, 5, 6):
            dsum = sum(Fraction(chi(d) ** 2, d) for d in range(1, a + 1) if a % d == 0)
            C = muller_C(chi, chi, a, 1e-10)
            want = L1 ** 2 / _principal_L2(D) * float(dsum)
            assert abs(C.value - want) <= C.error_bound + 1e-15, (D, a)
            assert C.error_bound <= 1e-10


def test_beta_euler_counts_the_odd_primes():
    # P = 8 / eps = 8000; pi(8000) = 1007, less p = 2, plus the odd primes 3, 5 of a
    assert beta_euler(chi4(), 15, 1e-3).terms_used == 1006 + 2


def test_beta_euler_memory_bounded_past_the_prime_cache():
    # P = 8e7 > PRIME_CACHE_MAX: the Euler product walks segments of primes
    # and leaves the prime cache at most PRIME_CACHE_MAX long
    tracemalloc.start()
    try:
        euler = beta_euler(chi6(), 1, 1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert arith._prime_cache[0] <= PRIME_CACHE_MAX
    assert euler.terms_used == 4_669_382 - 1  # pi(8e7), less p = 2
    closed = beta(chi6(), 1)
    assert abs(euler.value - closed.value) <= euler.error_bound + closed.error_bound


# The odd and even families of the CLI sweep's PSI list (tests/test_cli.py)
# that each constant admits; chi6 is imprimitive, so it has no Mueller term.
BETA_FAMILIES = (chi4(), chi6(), kronecker_character(8), kronecker_character(12))
MULLER_FAMILIES = (chi3(), chi4(), kronecker_character(5), kronecker_character(8),
                   kronecker_character(12))
CONTRACT_EPS = [10.0 ** -e for e in range(5, 16)]


@pytest.fixture
def cached_L_value(monkeypatch):
    """L_value is a pure function: the sweeps below sum each series once, not
    once per constant and shift (1e-13 costs up to 5e7 terms)."""
    monkeypatch.setattr(analytic_constants, "L_value", functools.lru_cache(L_value))


def _class_number_L1(chi):
    """L(1, (D/.)) for the fundamental discriminants D here, all of class number 1:
    2 pi / (w sqrt |D|) for D < 0, 2 log(unit) / sqrt D for D > 0."""
    D, sq = chi.disc, mpmath.sqrt(abs(chi.disc))
    unit = {5: (1 + sq) / 2, 8: 1 + sq / 2, 12: 2 + sq / 2}
    return 2 * mpmath.pi / ({-3: 6, -4: 4}[D] * sq) if D < 0 else 2 * mpmath.log(unit[D]) / sq


def _mpq(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _muller_oracle(chi, a):
    """M_{chi,chi}(a) from the definition: L(1)^2 over zeta(2) prod_{p | k} (1 - p^-2)."""
    k = chi.modulus
    L2 = mpmath.zeta(2) * mpmath.fprod(1 - mpmath.mpf(p) ** -2 for p, _ in factorize(k).factors)
    C = _class_number_L1(chi) ** 2 / L2 * _mpq(
        sum(Fraction(chi(d) ** 2, d) for d in range(1, a + 1) if a % d == 0))
    kpart = math.prod(p ** e for p, e in factorize(a).factors if k % p == 0)
    bracket = sum(Fraction(sum(chi(j) * chi(a // t + j) for j in range(1, k + 1)), t)
                  for t in range(1, kpart + 1) if kpart % t == 0) / k
    return C, C * (1 + _mpq(bracket))


def _meets_contract(compute, eps, oracle, oracle_bound=0.0) -> bool:
    """Whether compute(eps) keeps the contract: its bound is at most eps and its
    value lies within that bound (and the oracle's) of the oracle; False when
    it raises BudgetError instead."""
    try:
        tv = compute(eps)
    except BudgetError:
        return False
    assert tv.error_bound <= eps
    assert abs(mpmath.mpf(tv.value) - oracle) <= tv.error_bound + oracle_bound
    return True


def test_beta_and_main_term_keep_the_eps_contract(cached_L_value):
    for psi in BETA_FAMILIES:
        for a in (1, -15):
            euler = beta_euler(psi, a, 1e-6)
            eta = eta_star(psi, a)
            answered = [
                (_meets_contract(lambda e: beta(psi, a, e), eps, euler.value, euler.error_bound),
                 _meets_contract(lambda e: main_term(psi, a, e), eps,
                                 euler.value * math.pi * eta,
                                 euler.error_bound * math.pi * eta + 1e-15))
                for eps in CONTRACT_EPS]
            # the closed form answers every eps; the series at least down to 1e-12
            assert all(all(pair) for pair in answered[:8]), (psi.name, a, answered)
            if psi.disc < 0:
                assert all(all(pair) for pair in answered), (psi.name, a, answered)


def test_muller_keeps_the_eps_contract(cached_L_value):
    with mpmath.workdps(30):
        for chi in MULLER_FAMILIES:
            for a in (1, 12):
                C, M = _muller_oracle(chi, a)
                answered = [
                    (_meets_contract(lambda e: muller_C(chi, chi, a, e), eps, C),
                     _meets_contract(lambda e: muller_main(chi, chi, a, e), eps, M))
                    for eps in CONTRACT_EPS]
                assert all(all(pair) for pair in answered[:8]), (chi.name, a, answered)
                if chi.disc < 0:
                    assert all(all(pair) for pair in answered), (chi.name, a, answered)
