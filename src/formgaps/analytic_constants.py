"""The main-term constants of the correlation sums, all by one route.

Central objects, for a real non-trivial character psi mod even b >= 4 and a
shift a != 0:

    beta(psi, a)     = sum_{d >= 1} psi(d) eta_a(d) / d^2
                     = G(psi, b, a, 1),  the value at s = 1 of the Dirichlet
                       series G(rho, b, a, s) = sum rho(n) lambda_a(n) / n^s
    eta*(psi, a)     = sum over residues j in [1, b] with psi(j - a) = 1 of
                       pi * eta_j(b) / (2 b^2)      (an exact multiple of pi)
    main term        = beta * eta* (coefficient of x in the correlation sum)

G factors over odd primes (psi vanishes on evens), G_p = 1 + sum_{d >= 1}
rho(p^d) lambda_a(p^d) / p^(ds).  Since lambda_a(p^d) is eventually constant
in d, each G_p is a finite sum plus a geometric tail, exact in rationals.
For p not dividing a the modified factor collapses to

    G_p * (1 - psi(p)/p) = 1 - chi4(p) psi(p) / p^2        (exactly),

so that

    beta = L(1, psi) / L(2, chi4 psi)
           * prod_{odd p | a} G_p (1 - psi(p)/p) / (1 - chi4(p) psi(p) / p^2).

Every main-term constant here (Mueller's C and M below too) is such an
L-ratio times an exact rational factor, and each takes one route, `_L_ratio`,
with one contract: its error bound is at most eps, or it raises BudgetError.
`_L_ratio` takes the ratio in closed form (`_L_ratio_exact`) when every L(1)
belongs to an odd character and L(2) to an even one.  Let chi* be the
primitive character mod f that induces a real character chi mod k.  By the
generalized Bernoulli numbers (Washington, Introduction to Cyclotomic
Fields, ch. 4),

    odd chi:   L(1, chi*) = -pi B_{1,chi*} / sqrt(f),
               B_{1,chi} = (1/f) sum_{r=1..f} chi(r) r
    even chi:  L(2, chi*) = pi^2 B_{2,chi*} / f^(3/2),
               B_{2,chi} = f sum_{r=1..f} chi(r) (r^2/f^2 - r/f + 1/6)

(f = 1 gives zeta(2) = pi^2/6), and L(s, chi) is L(s, chi*) times
prod_{p | k, p does not divide f} (1 - chi*(p) p^-s).  So odd L(1) values
over an even L(2) are a rational times a power of pi times sqrt(f2^3 / prod
f1), a root checked to be rational: pi beta, the main term and Mueller's C
and M of odd pairs are exact Fractions, rounded once, whose floats carry only
that rounding as error bound.

Every other ratio takes each L(1) from the `L_value` series within eps/8,
since L(1, psi) of even psi involves the log of a fundamental unit, which has
no closed form here; its L(2) is the same series when the character is odd
and the exact Bernoulli value when it is even.  The Euler product
(`beta_euler`) is kept only as the oracle both routes are checked against.

Dirichlet L-values are computed from character partial sums: summing to a
period boundary N leaves a tail whose first-order term is -(S1/k) N^-s with
S1 = sum_{r=1..k} chi(r) r, and an explicit second-order remainder bound.
Both hold only at a period boundary, so N stops at the last multiple of k
below L_TERMS_MAX, and an eps out of reach there raises before any term is
summed.  No functional-equation machinery is used (only s in {1, 2} matters here).

For real primitive psi, rho mod k > 1 and a >= 1, the general correlation
sum_{n <= x} F_psi(n) F_rho(n+a) has main-term coefficient

    M(a) = C_{psi,rho}(a)
           * (1 + k^-1 sum_{t | P(a,k)} t^-1 sum_{j=1..k} psi(j) rho(a/t + j)),
    C_{psi,rho}(a) = L(1,rho) L(1,psi) / L(2, rho*psi)
                     * sum_{d | a} psi(d) rho(d) / d,

where P(a,k) is the k-part of a.  When rho*psi degenerates to the principal
character (e.g. psi = rho), L(2, rho*psi) is read as the literal
product-character series, i.e. zeta(2) with the p | k factors removed, and
taken as the exact Bernoulli value of that series (f = 1 above); that
reading is a documented choice, not forced by the definitions.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

from . import _np as np
from .arith import divisors, factorize, nu, prime_blocks
from .characters import (
    DirichletCharacter,
    chi4,
    primitive_character,
    product_character,
)
from .errors import BudgetError, InvariantError
from .local_densities import eta, eta_table, lambda_prime_power
from .record import Record
from .util import chunk_ranges

EULER_PRIME_MAX = 100_000_000  # cap on the truncation point of the Euler product
L_TERMS_MAX = 1 << 28  # cap on the terms of the L_value series, cut to whole periods

# (ones, two, factor): a constant prod_{chi in ones} L(1, chi) / L(2, two) * factor
RatioParts = tuple[list[DirichletCharacter], DirichletCharacter, Fraction]


class TruncatedValue(Record):
    """A numerical value with the explicit error bound of its truncation (of its
    rounding alone when it comes from a closed form, with terms_used = 0)."""

    value: float
    error_bound: float
    terms_used: int

    def __post_init__(self):
        if not math.isfinite(self.error_bound) or self.error_bound < 0:
            raise ValueError("error_bound must be finite and non-negative")


def _require_beta_character(psi: DirichletCharacter, a: int | None = None,
                            caller: str = "beta") -> None:
    if psi.is_trivial:
        raise ValueError("a non-trivial character is required")
    if psi.modulus % 2 or psi.modulus < 4:
        raise ValueError("an even modulus b >= 4 is required")
    if a == 0:
        raise ValueError(f"{caller} requires a != 0")


def L_value(chi: DirichletCharacter, s: float, eps: float = 1e-10) -> TruncatedValue:
    """Dirichlet L-series value L(s, chi) within eps, for a real non-principal
    chi and real s >= 1.  A principal chi raises ValueError: its L(2) is the
    exact `L_value_exact`, and its series diverges at s = 1.  An eps that the
    tail at the last whole period below L_TERMS_MAX plus the rounding allowance
    of 1e-14 cannot meet raises BudgetError before any term is summed.
    """
    if s < 1:
        raise ValueError("L_value requires s >= 1")
    if chi.is_trivial:
        raise ValueError("L_value takes non-principal characters only")
    k = chi.modulus
    S1 = sum(chi(r) * r for r in range(1, k + 1))
    Sk2 = sum(abs(chi(r)) * r * r for r in range(1, k + 1))

    def tail_bound(N: int) -> float:
        e1 = s * abs(S1) * N ** (-s - 1)
        e2 = (s * (s + 1) / 2) * Sk2 * (N ** (-s - 2) + N ** (-s - 1) / ((s + 1) * k))
        return e1 + e2

    cap = L_TERMS_MAX // k * k  # the tail bound and the S1/k term need whole periods
    if tail_bound(cap) + 1e-14 > eps:
        raise BudgetError("requested eps is out of reach for L_value")
    N = k * 32
    while tail_bound(N) > eps * 0.9 and N < cap:
        N = min(2 * N, cap)
    table = chi.table.astype(np.float64)
    val = 0
    for lo, hi in chunk_ranges(1, N, 1 << 20):  # blocks of 2^20 terms bound the memory
        n = np.arange(lo, hi + 1)
        val += (table[n % k] * n.astype(np.float64) ** -s).sum()
    val = float(val - (S1 / k) * N ** -s)
    err = tail_bound(N) + 1e-14 * (1 + abs(val))
    return TruncatedValue(val, err, N)


def _is_odd(chi: DirichletCharacter) -> bool:
    return chi.disc < 0


def L_value_exact(chi: DirichletCharacter, s: int) -> tuple[Fraction, int]:
    """(c, f) with L(s, chi) = c * pi^s / f^(s - 1/2) exactly, f the conductor of chi.

    Takes a real chi at s = 1 when chi is odd and at s = 2 when chi is even
    (principal characters included, with f = 1).  c is the generalized
    Bernoulli number of the primitive character times the Euler factors at the
    primes that divide the modulus but not f; see the module docstring.
    """
    if s not in (1, 2) or _is_odd(chi) != (s == 1):
        raise ValueError("L_value_exact needs an odd character at s = 1 or an even one at s = 2")
    prim = primitive_character(chi)
    f = prim.modulus
    if s == 1:
        c = -Fraction(sum(prim(r) * r for r in range(1, f + 1)), f)
    else:  # B_{2,chi} = f sum chi(r) (r^2/f^2 - r/f + 1/6)
        c = sum(prim(r) * Fraction(6 * r * r - 6 * r * f + f * f, 6 * f) for r in range(1, f + 1))
    for p, _ in factorize(chi.modulus).factors:
        if f % p:
            c *= 1 - Fraction(prim(p), p ** s)
    return c, f


def _sqrt_fraction(q: Fraction) -> Fraction:
    """The rational square root of q; a q that is no square breaks the closed form."""
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        raise InvariantError(f"{q} is not the square of a rational")
    return Fraction(n, d)


def _L_ratio_exact(ones: list[DirichletCharacter], two: DirichletCharacter) -> Fraction:
    """c with prod_{chi in ones} L(1, chi) / L(2, two) = c pi^(len(ones) - 2), for
    odd real characters in ones and an even real two; InvariantError if the
    root of the conductors, f2^3 over the product of the f1, is not rational."""
    c, f = L_value_exact(two, 2)
    ratio, radicand = 1 / c, Fraction(f ** 3)
    for chi in ones:
        c1, f1 = L_value_exact(chi, 1)
        ratio, radicand = ratio * c1, radicand / f1
    return ratio * _sqrt_fraction(radicand)


def _L_ratio(
    ones: list[DirichletCharacter],
    two: DirichletCharacter,
    factor: Fraction,
    eps: float,
    pi_power: int = 0,
) -> TruncatedValue:
    """prod_{chi in ones} L(1, chi) / L(2, two) * factor * pi^pi_power within eps:
    the route of every main-term constant, and the one place its contract is
    kept: the bound returned is at most eps, or BudgetError is raised.

    Odd characters in ones over an even two take the closed form
    (`_L_ratio_exact`) times factor, rounded once: off by rounding only, with
    terms_used = 0.  Any other ratio takes each L(1) from the `L_value`
    series within eps/8, and L(2, two) too when two is odd; an even two
    (principal ones included) takes its exact `L_value_exact`, off by rounding
    only.  A zero factor gives 0 exactly.
    """
    rounding = 4 * sys.float_info.epsilon
    if not factor:
        value, err, terms = 0.0, 0.0, 0
    elif all(_is_odd(chi) for chi in ones) and not _is_odd(two):
        q = _L_ratio_exact(ones, two) * factor  # times pi^(len(ones) - 2 + pi_power)
        value = float(q) / math.pi ** (2 - len(ones) - pi_power)
        err, terms = rounding * abs(value), 0
    else:
        Ls = [L_value(chi, 1.0, eps / 8) for chi in ones]
        if _is_odd(two):
            Ls.append(L_value(two, 2.0, eps / 8))
        else:
            c, f = L_value_exact(two, 2)
            v = float(c) * math.pi ** 2 / f ** 1.5
            Ls.append(TruncatedValue(v, rounding * abs(v), 0))
        value = (math.prod(L.value for L in Ls[:-1]) / Ls[-1].value * float(factor)
                 * math.pi ** pi_power)
        rel = sum(L.error_bound / (abs(L.value) - L.error_bound)
                  if abs(L.value) > L.error_bound else math.inf for L in Ls)
        err, terms = abs(value) * rel * (1 + rel) + 1e-15, sum(L.terms_used for L in Ls)
    if not err <= eps:  # an infinite or nan bound fails too
        raise BudgetError(f"the error bound {err:.3g} would exceed eps = {eps:.3g}")
    return TruncatedValue(value, err, terms)


def euler_factor_Gp(rho: DirichletCharacter, a: int, p: int, s: float) -> Fraction | float:
    """G_p(rho, a, s) = 1 + sum_{d >= 1} rho(p^d) lambda_a(p^d) p^(-ds), a != 0: the head
    d <= v = nu_p(a), where lambda_a(p^d) varies, then its constant tail as a geometric
    series.  The sum runs in the number type of r = rho(p) / p^s: the value is an exact
    Fraction at integer s, otherwise a float."""
    v = nu(p, a)
    r = Fraction(rho(p), p ** int(s)) if float(s).is_integer() else rho(p) / p ** s
    total = rd = 1
    for d in range(1, v + 1):
        rd *= r
        total += lambda_prime_power(p, d, a) * rd
    return total + lambda_prime_power(p, v + 1, a) * (rd * r) / (1 - r)


@lru_cache(maxsize=8)
def _modified_prime_product(psi: DirichletCharacter, P: int) -> tuple[float, int]:
    """prod over odd p <= P of (1 - chi4(p) psi(p) / p^2), and the prime count,
    one block of `prime_blocks` at a time."""
    table = psi.table.astype(np.float64)
    prod, count = 1.0, 0
    for ps in prime_blocks(3, P):
        chi4v = chi4().table[ps % 4]
        prod *= float(np.prod(1.0 - chi4v * table[ps % psi.modulus] / ps.astype(np.float64) ** 2))
        count += int(ps.size)
    return prod, count


def _beta_parts(psi: DirichletCharacter, a: int) -> RatioParts:
    """(ones, two, factor) of beta(psi, a) = L(1, psi) / L(2, chi4 psi) * factor, the
    factor prod_{odd p | a} G_p (1 - psi(p)/p) / (1 - chi4(p) psi(p) / p^2) being the
    change the odd primes of a make to the ratio."""
    _require_beta_character(psi, a)
    factor = Fraction(1)
    for p, _ in factorize(abs(a)).factors:
        if p != 2:
            factor *= euler_factor_Gp(psi, a, p, 1) * (1 - Fraction(psi(p), p))
            factor /= 1 - Fraction(chi4()(p) * psi(p), p * p)
    return [psi], product_character(chi4(), psi), factor


def beta(psi: DirichletCharacter, a: int, eps: float = 1e-6) -> TruncatedValue:
    """beta(psi, a) = sum_d psi(d) eta_a(d) / d^2 by `_L_ratio`: within eps, or
    BudgetError.  Odd psi take the closed form, even psi the `L_value` series."""
    return _L_ratio(*_beta_parts(psi, a), eps)


def beta_euler(psi: DirichletCharacter, a: int, eps: float = 1e-6) -> TruncatedValue:
    """beta(psi, a) within eps by the Euler product: the oracle `beta` is
    checked against, in both character families.

    Truncation point P is chosen so the log-tail envelope sum_{p > P} 4/p^2
    stays below eps/2; the conditionally convergent part is carried by
    L(1, psi), and the p | a factors are restored exactly.
    """
    _require_beta_character(psi, a, "beta_euler")
    if eps <= 0 or 8.0 / eps > EULER_PRIME_MAX:
        raise BudgetError("eps is too small for the Euler-product budget")
    P = max(1000, math.ceil(8.0 / eps))
    L1 = L_value(psi, 1.0, eps / 8)
    base, nprimes = _modified_prime_product(psi, P)
    val = L1.value * base
    extra_terms = 0
    for p, _ in factorize(abs(a)).factors:
        if p == 2:
            continue
        if p <= P:
            val /= 1 - chi4()(p) * psi(p) / p ** 2
        exact = euler_factor_Gp(psi, a, p, 1) * (1 - Fraction(psi(p), p))
        val *= float(exact)
        extra_terms += 1
    tail_rel = math.expm1(4.0 / P)
    rel = tail_rel + L1.error_bound / max(abs(L1.value), 1e-300) + 1e-10
    err = abs(val) * rel * (1 + rel)
    return TruncatedValue(val, err, nprimes + extra_terms)


def eta_star(psi: DirichletCharacter, a: int) -> Fraction:
    """eta*(psi, a) / pi exactly: the sum of eta_j(b) / (2 b^2) over j in [1, b]
    with psi(j - a) = 1."""
    _require_beta_character(psi)
    b = psi.modulus
    coeff = Fraction(0)
    for j in range(1, b + 1):
        if psi((j - a) % b) == 1:
            coeff += Fraction(eta(j, b), 2 * b * b)
    return coeff


def main_term(psi: DirichletCharacter, a: int, eps: float = 1e-6) -> TruncatedValue:
    """Coefficient beta(psi, a) * eta*(psi, a) of x in the correlation sum by
    `_L_ratio`: beta's parts with the exact eta*/pi on the factor and the pi
    on pi_power.  Within eps, or BudgetError."""
    _require_beta_character(psi, a, "main_term")
    ones, two, factor = _beta_parts(psi, a)
    return _L_ratio(ones, two, factor * eta_star(psi, a), eps, pi_power=1)


def P_part(a: int, k: int) -> int:
    """The k-part of a: the product of p^nu_p(a) over the primes p dividing k."""
    if a < 1 or k <= 1:
        raise ValueError("P_part requires a >= 1 and k > 1")
    t = 1
    for p, e in factorize(a).factors:
        if k % p == 0:
            t *= p ** e
    return t


def _muller_parts(psi: DirichletCharacter, rho: DirichletCharacter, a: int) -> RatioParts:
    """(ones, two, factor) of C_{psi,rho}(a) = L(1,rho) L(1,psi) / L(2, rho psi) *
    sum_{d|a} psi(d) rho(d) / d, for real primitive psi, rho mod k > 1 and a >= 1."""
    if psi.modulus != rho.modulus or psi.modulus <= 1:
        raise ValueError("Mueller's main term requires equal moduli k > 1")
    if not (psi.is_primitive and rho.is_primitive):
        raise ValueError("Mueller's main term requires primitive characters")
    if a < 1:
        raise ValueError("Mueller's main term requires a >= 1")
    factor = sum(Fraction(psi(d) * rho(d), d) for d in divisors(factorize(a)))
    return [rho, psi], product_character(psi, rho), factor


def _muller_bracket(psi: DirichletCharacter, rho: DirichletCharacter, a: int) -> Fraction:
    """k^-1 sum_{t | P(a,k)} t^-1 sum_{j=1..k} psi(j) rho(a/t + j)."""
    k = psi.modulus
    bracket = Fraction(0)
    for t in divisors(factorize(P_part(a, k))):
        inner = sum(psi(j) * rho((a // t + j) % k) for j in range(1, k + 1))
        bracket += Fraction(inner, t)
    return bracket / k


def muller_C(
    psi: DirichletCharacter, rho: DirichletCharacter, a: int, eps: float = 1e-8
) -> TruncatedValue:
    """C_{psi,rho}(a) = L(1,rho) L(1,psi) / L(2, rho psi) * sum_{d|a} psi(d) rho(d) / d
    by `_L_ratio`: within eps, or BudgetError.  A pair of odd characters takes
    the closed form, any other real pair the `L_value` series."""
    return _L_ratio(*_muller_parts(psi, rho, a), eps)


def muller_main(
    psi: DirichletCharacter, rho: DirichletCharacter, a: int, eps: float = 1e-8
) -> TruncatedValue:
    """Full main-term coefficient M_{psi,rho}(a) = C (1 + bracket) of
    sum_{n<=x} F_psi(n) F_rho(n+a), for real characters: C's parts with the
    exact (1 + bracket) on the factor, by `_L_ratio`, so within eps or
    BudgetError.  Only a >= 1 is admitted; negative shifts are rejected rather
    than extended.
    """
    ones, two, factor = _muller_parts(psi, rho, a)
    return _L_ratio(ones, two, factor * (1 + _muller_bracket(psi, rho, a)), eps)


def G_series(
    rho: DirichletCharacter, a: int, s: float, n_max: int = 100_000
) -> TruncatedValue:
    """Partial sum of G(rho, b, a, s) = sum rho(n) lambda_a(n) / n^s, s > 0.

    The tail bound fits the constant of the |sum_{n<=x} rho(n) eta_a(n)|
    <= K x log x envelope empirically over n >= 1000, so this is diagnostic-grade:
    useful for convergence pictures and cross-checks, never acceptance-critical.
    """
    _require_beta_character(rho, a, "G_series")
    if s <= 0 or n_max < 1000:
        raise ValueError("G_series requires s > 0 and n_max >= 1000, where its fit of K starts")
    et = eta_table(a, n_max)[1:].astype(np.float64)
    n = np.arange(1, n_max + 1, dtype=np.int64)
    rhov = rho.table.astype(np.float64)[n % rho.modulus]
    val = float(np.sum(rhov * et / n.astype(np.float64) ** (1.0 + s)))
    running = np.cumsum(rhov * et)
    y = n[999:].astype(np.float64)
    K = float(np.max(np.abs(running[999:]) / (y * np.log(y))))
    tail = (
        2.0
        * K
        * n_max ** -s
        * (math.log(n_max) * (1 + (1 + s) / s) + (1 + s) / s ** 2)
    )
    return TruncatedValue(val, tail, n_max)
