import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formgaps import characters, util
from formgaps.analytic_constants import _is_odd
from formgaps.arith import divisors, factorize, primes
from formgaps.characters import (
    BYTES_F_MAX,
    F_SIEVE_MAX,
    DirichletCharacter,
    F,
    F_bytes,
    F_positive,
    F_sieve,
    F_window,
    chi3,
    chi4,
    chi6,
    is_fundamental_discriminant,
    kronecker_character,
    make_character,
    primitive_character,
    product_character,
    sqrt_trick_F,
    trivial_character,
)
from formgaps.errors import BudgetError
from kronecker_oracle import character_values, jacobi_symbol, kronecker_symbol, unit_parts

REALS = (chi3(), chi4(), chi6())


def test_chi4_table_and_flags():
    c = chi4()
    assert [c(r) for r in (1, 2, 3, 4)] == [1, 0, -1, 0]
    assert c.is_primitive and not c.is_trivial


def test_chi6_table_and_flags():
    c = chi6()
    assert c(1) == 1 and c(5) == -1
    assert all(c(r) == 0 for r in (0, 2, 3, 4))
    assert not c.is_primitive  # induced from the character mod 3


def test_kronecker_minus3_agrees_with_chi3():
    k = kronecker_character(-3)
    assert all(k(n) == chi3()(n) for n in range(101))
    assert k.is_primitive


def test_fundamental_discriminants():
    assert all(is_fundamental_discriminant(D) for D in (-3, -4, -8, 5, 8, 12, -20))
    assert not any(is_fundamental_discriminant(D) for D in (0, 1, 2, 3, 4, -2, 9, -9, 25))
    with pytest.raises(ValueError):
        kronecker_character(9)


def _fundamental_by_mod_4(D):
    # the textbook rule: squarefree D = 1 mod 4 (D != 1), or D = 4m with m
    # squarefree and m = 2 or 3 mod 4
    if D in (0, 1):
        return False

    def squarefree(m):
        return all(e == 1 for _, e in factorize(abs(m)).factors) if m not in (1, -1) else True

    if D % 4 == 1:
        return squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def test_fundamental_discriminants_match_the_mod_4_rule():
    for D in range(-20000, 20001):
        assert is_fundamental_discriminant(D) == _fundamental_by_mod_4(D), D


def test_jacobi_and_kronecker_basics():
    assert jacobi_symbol(2, 15) == 1
    assert jacobi_symbol(7, 15) == -1
    assert kronecker_symbol(-3, 2) == -1
    assert kronecker_symbol(5, 2) == -1
    assert kronecker_symbol(-4, 0) == 0
    assert kronecker_symbol(1, 0) == 1


def test_trivial_characters():
    t1 = trivial_character(1)
    assert t1(0) == t1(17) == 1 and t1.is_trivial
    t6 = trivial_character(6)
    assert [t6(r) for r in range(6)] == [0, 1, 0, 0, 0, 1]
    assert t6.is_trivial and not t6.is_primitive


def _conductor(psi):
    """The least divisor f of the modulus from which psi is induced: psi(n) = 1
    at every unit n = 1 mod f (a brute search, independent of disc)."""
    k = psi.modulus
    n = np.arange(1, k + 1)
    units = np.gcd(n, k) == 1
    values = np.array(psi.values)
    for f in divisors(factorize(k)):
        if (values[n[units & (n % f == 1 % f)] % k] == 1).all():
            return f


def _check_character(psi):
    """Every property a real character mod k must have, over the whole modulus."""
    k = psi.modulus
    r = np.arange(k)
    v = np.array(psi.values)
    assert len(psi.values) == k and all(type(x) is int and x in (-1, 0, 1) for x in psi.values)
    assert psi(1) == 1
    assert np.array_equal(v != 0, np.gcd(r, k) == 1)  # zero exactly off the units
    assert np.array_equal(v[np.outer(r, r) % k], np.outer(v, v))  # completely multiplicative
    assert all(psi(n) == psi(n + k) == psi(n - k) for n in range(k))
    f = _conductor(psi)
    assert f == abs(psi.disc)
    assert psi.is_primitive == (f == k)
    assert psi.is_trivial == (f == 1) == bool((v[np.gcd(r, k) == 1] == 1).all())
    assert psi(-1) == (-1 if psi.disc < 0 else 1) and _is_odd(psi) == (psi(-1) == -1)


def test_character_oracle():
    # every character the CLI can name, the products of a fixed set of them,
    # and the primitive characters of all of these; built here, not at import,
    # so a broken discriminant rule fails this test instead of the collection
    cli_characters = (
        [make_character(s) for s in ("chi3", "chi4", "chi6")]
        + [make_character(f"trivial:{k}") for k in range(1, 65)]
        + [make_character(f"kronecker:{D}") for D in range(-500, 501)
           if is_fundamental_discriminant(D)]
    )
    factors = (
        [chi3(), chi4(), chi6(), trivial_character(1), trivial_character(6), trivial_character(12)]
        + [kronecker_character(D) for D in (5, -7, -8, 8, 12, -15, -20, 21, -24, 40)]
    )
    products = [product_character(psi, rho) for psi in factors for rho in factors]
    assert len(cli_characters) == 3 + 64 + 306
    for psi in cli_characters + products:
        _check_character(psi)
        prim = primitive_character(psi)
        _check_character(prim)
        assert prim.is_primitive and prim.modulus == _conductor(psi)
        assert all(prim(n) == psi(n) for n in range(psi.modulus) if math.gcd(n, psi.modulus) == 1)
    for (psi, rho), prod in zip(itertools.product(factors, repeat=2), products):
        k = prod.modulus
        assert k == math.lcm(psi.modulus, rho.modulus)
        assert all(prod(n) == psi(n) * rho(n) for n in range(k)), prod.name


def test_make_character_dispatch():
    assert make_character("chi6") is chi6()
    assert make_character("trivial:4") is trivial_character(4)
    assert make_character("kronecker:-3") is kronecker_character(-3)
    for spec in ("nope", "trivial:0", "trivial:-4", "kronecker:9"):
        with pytest.raises(ValueError):
            make_character(spec)


def test_user_named_moduli_are_capped():
    # K and |D| up to 10^5 are built; above it no character (and no value table)
    # is made, even for a fundamental D such as -1000003 (1000003 is prime)
    top = next(D for D in range(-10 ** 5, 0) if is_fundamental_discriminant(D))
    assert make_character(f"kronecker:{top}").modulus == -top
    assert make_character(f"trivial:{10 ** 5}").modulus == 10 ** 5
    for spec in ("kronecker:-1000003", "kronecker:100001", "kronecker:-400008", "trivial:100001"):
        with pytest.raises(BudgetError):
            make_character(spec)


def test_product_character_of_real_pair_is_principal():
    chi5 = kronecker_character(5)
    sq = product_character(chi5, chi5)
    assert sq.is_trivial and sq.modulus == 5


def test_product_character_over_lcm_and_primitive_character():
    prod = product_character(chi4(), chi6())
    assert prod.modulus == 12 and prod.values == kronecker_character(12).values
    # chi6 is induced from chi3; chi4 * chi6 is primitive; principal characters come from mod 1
    assert primitive_character(chi6()).values == chi3().values
    assert primitive_character(prod) is prod and prod.is_primitive
    assert primitive_character(trivial_character(6)).values == (1,)
    assert primitive_character(chi4()) is chi4()


def test_F_examples():
    assert F(chi4(), 5) == 2
    assert F(chi6(), 1) == 1
    assert F(chi6(), 5) == 0
    assert F(chi3(), 7) == 2
    # prime powers: e + 1 at a split p, the parity of e at an inert one
    assert F(chi4(), 25) == 3
    assert F(chi4(), 9) == 1 and F(chi4(), 27) == 0
    assert F(chi3(), 7 ** 3 * 4) == 4


def test_F_multiplicative_on_coprime_pairs():
    for psi in REALS:
        for m in range(1, 32):
            for n in range(1, 1000 // max(m, 1)):
                if math.gcd(m, n) == 1:
                    assert F(psi, m * n) == F(psi, m) * F(psi, n)


def test_F_nonnegative_for_chi3_chi4():
    for psi in (chi3(), chi4()):
        sv = F_sieve(psi, 100_000)
        assert int(sv.min()) >= 0


def test_vanishing_when_psi_is_minus_one():
    for psi in REALS:
        for n in range(1, 20_001):
            if psi(n) == -1:
                assert F(psi, n) == 0


def test_sqrt_trick_examples():
    assert sqrt_trick_F(chi6(), 7) == 2
    assert sqrt_trick_F(chi6(), 25) == 1
    assert sqrt_trick_F(chi4(), 25) == 3
    with pytest.raises(ValueError):
        sqrt_trick_F(chi4(), 3)  # chi4(3) = -1


def test_sqrt_trick_agrees_with_F():
    for psi in REALS:
        for n in range(1, 20_001):
            if psi(n) == 1:
                assert sqrt_trick_F(psi, n) == F(psi, n)


def test_F_sieve_row():
    # divisor-by-divisor: F_chi4 over n = 1..10 (cross-checked by r2(n) = 4 F)
    sv = F_sieve(chi4(), 10)
    assert list(sv[1:]) == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]
    assert F_sieve(chi3(), 7)[7] == 2
    assert list(F_sieve(trivial_character(1), 5)[1:]) == [1, 2, 2, 3, 2]


def test_F_sieve_matches_per_n():
    for psi in REALS:
        sv = F_sieve(psi, 10_000)
        for n in range(1, 10_001):
            assert int(sv[n]) == F(psi, n)


def test_F_window_row():
    # the row of test_F_sieve_row read off F_window itself, and every n up to
    # 2000 against F: the primes below 16 are dense there, so 2^10, 3^6, 5^4,
    # 7^3, 11^3 and 13^2 take the level walk with the factors e + 1 and the
    # parity of e
    assert F_window(chi4(), 1, 10).tolist() == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]
    assert F_window(chi3(), 7, 7).tolist() == [2]
    assert F_window(trivial_character(1), 1, 5).tolist() == [1, 2, 2, 3, 2]
    for psi in REALS + (kronecker_character(5), trivial_character(1)):
        assert F_window(psi, 1, 2000).tolist() == [F(psi, n) for n in range(1, 2001)], psi.name


def test_F_window_deep_offsets():
    for lo, hi in ((1, 400), (9_973, 11_000), (249_489, 250_011)):
        w = F_window(chi6(), lo, hi)
        for n in range(lo, hi + 1):
            assert int(w[n - lo]) == F(chi6(), n)


# kronecker(8) is built from (name, disc, modulus), as chi3, chi4 and chi6 are,
# so a broken discriminant rule fails its own tests, not this module's collection
KERNEL_CHARACTERS = (
    chi3(),
    chi4(),
    chi6(),
    kronecker_character(5),
    kronecker_character(-23),
    DirichletCharacter("kronecker(8)", 8, 8),
)


# moduli with more than one prime, where psi(n') takes one factor per prime;
# built as kronecker(8) is, so collection does not depend on the discriminant rule
KRONECKER_M20 = DirichletCharacter("kronecker(-20)", -20, 20)
KRONECKER_M420 = DirichletCharacter("kronecker(-420)", -420, 420)
# |D| = 99991 is prime and far above isqrt(hi) of the windows below
KRONECKER_M99991 = DirichletCharacter("kronecker(-99991)", -99991, 99991)
MASK_CHARACTERS = KERNEL_CHARACTERS + (trivial_character(30), KRONECKER_M20, KRONECKER_M420)


def _F_reference(chars, lo, hi):
    """F_psi on [lo, hi] for each psi in chars, evaluated multiplicatively from
    one segmented factorization.

    Every prime p <= isqrt(hi) is divided out of each of its multiples with its
    exponent e, contributing the local factor sum_{i <= e} psi(p)^i; what is
    left of n is 1 or one prime q, contributing 1 + psi(q).
    """
    width = hi - lo + 1
    n = np.arange(lo, hi + 1, dtype=np.int64)
    ps = primes(math.isqrt(hi))
    first = (-lo) % ps
    counts = np.where(first < width, (width - 1 - first) // ps + 1, 0)
    p = np.repeat(ps, counts)
    j = np.arange(p.size) - np.repeat(np.cumsum(counts) - counts, counts)
    pos = np.repeat(first, counts) + j * p
    e = np.zeros(p.size, dtype=np.int64)
    pe = np.ones(p.size, dtype=np.int64)
    live = np.arange(p.size)
    while live.size:
        live = live[n[pos[live]] % (pe[live] * p[live]) == 0]
        e[live] += 1
        pe[live] *= p[live]
    rem = n.copy()
    np.floor_divide.at(rem, pos, pe)
    out = []
    for psi in chars:
        table = np.array(psi.values, dtype=complex)
        # geometric[r, e] = sum_{i <= e} psi(r)^i
        powers = np.ones((psi.modulus, int(e.max(initial=0)) + 1), dtype=complex)
        powers[:, 1:] = table[:, None]
        geometric = np.cumsum(np.cumprod(powers, axis=1), axis=1)
        f = np.where(rem > 1, 1 + table[rem % psi.modulus], 1)
        np.multiply.at(f, pos, geometric[p % psi.modulus, e])
        out.append(f)
    return out


def _F_divisor_reference(chars, lo, hi):
    """F_psi on [lo, hi] for each psi in chars as the plain divisor sum
    sum_{d | n} psi(d): every divisor pair n = d * m with d <= m has
    d <= isqrt(hi), so each such d is paired with its cofactors m = n / d >= d
    and adds psi(d) + psi(m), or psi(d) once when m = d.
    """
    tables = [np.array(psi.values, dtype=complex) for psi in chars]
    out = [np.zeros(hi - lo + 1, dtype=complex) for _ in chars]
    top = math.isqrt(hi)
    step = 1 << 15
    for d0 in range(1, top + 1, step):
        d = np.arange(d0, min(d0 + step, top + 1), dtype=np.int64)
        first = np.maximum(d, (lo + d - 1) // d)
        counts = hi // d - first + 1
        keep = counts > 0
        d, first, counts = d[keep], first[keep], counts[keep]
        for i0 in range(0, d.size, 256):  # the pairs of 256 divisors at a time
            c = counts[i0 : i0 + 256]
            dd = np.repeat(d[i0 : i0 + 256], c)
            m = np.repeat(first[i0 : i0 + 256], c) + (np.arange(dd.size) - np.repeat(np.cumsum(c) - c, c))
            for table, o in zip(tables, out):
                k = table.size
                np.add.at(o, dd * m - lo, table[dd % k] + np.where(m > dd, table[m % k], 0))
    return out


KERNEL_WIDTHS = (1, 17, 1000, 1 << 14, 1 << 18)


@pytest.mark.parametrize("lo", [1, 10 ** 9 - 7, 10 ** 12 + 11, 10 ** 14 + 3])
def test_F_window_matches_multiplicative_F(lo):
    # widths 1 and 17 are all sparse keys; 2^14 and 2^18 also reach the
    # strided divisor adds and the per-residue cofactor adds
    for j, width in enumerate(KERNEL_WIDTHS):
        hi = lo + width - 1
        # near 1e14 each call scans 2 * 10^7 keys (about 0.3 s), so that row
        # spreads the six characters over the widths
        chars = KERNEL_CHARACTERS[j::4] if lo > 10 ** 13 else KERNEL_CHARACTERS
        refs = zip(_F_reference(chars, lo, hi), _F_divisor_reference(chars, lo, hi))
        for psi, (ref, divisor_ref) in zip(chars, refs):
            w = F_window(psi, lo, hi)
            assert w.dtype == np.int32
            assert np.array_equal(w, ref), (psi.name, lo, width)
            assert np.array_equal(w, divisor_ref), (psi.name, lo, width)
            for n in (lo, hi):
                assert w[n - lo] == F(psi, n), (psi.name, n)


@pytest.mark.parametrize("lo,width", [(10 ** 9, 1 << 14), (10 ** 9, 1 << 18), (10 ** 12, 1000)])
def test_F_window_sparse_runs(monkeypatch, lo, width):
    # a sparse prime has 0 to DENSE_HITS - 1 = 127 multiples in the window; 256
    # pairs per run cuts them into many runs, and 100 puts each prime with more
    # than 99 multiples in a run of its own
    hi = lo + width - 1
    ps = primes(math.isqrt(hi))
    sparse = ps[width // ps < characters.DENSE_HITS]
    assert np.any(hi // sparse ** 2 * sparse ** 2 >= lo)  # some n with p^2 | n, p sparse
    chars = (chi3(), chi4(), kronecker_character(5))
    refs = _F_reference(chars, lo, hi)
    for pair_block in (256, 100):
        monkeypatch.setattr(characters, "PAIR_BLOCK", pair_block)
        for psi, ref in zip(chars, refs):
            assert np.array_equal(F_window(psi, lo, hi), ref), (psi.name, pair_block)


@pytest.mark.parametrize(
    "psi,lo,hi",
    [
        # hi < k^2: the leftover prime can divide the modulus
        (chi6(), 1, 40),
        (kronecker_character(-23), 1, 40),
        (KERNEL_CHARACTERS[-1], 1, 40),
        # smooth parts switch from int32 to int64 at 2^31
        (chi4(), 2 ** 31 - 3000, 2 ** 31 + 3000),
        (kronecker_character(-23), 2 ** 31 - 3000, 2 ** 31 + 3000),
        (KERNEL_CHARACTERS[-1], 10 ** 12 - 2000, 10 ** 12 + 2000),
        # a prime of the modulus above isqrt(hi) is walked, so it is never the
        # leftover q: 23 > isqrt(528), 7 > isqrt(48), 99991 > isqrt(5 * 99991)
        (kronecker_character(-23), 1, 600),
        (kronecker_character(-23), 1, 528),
        (KRONECKER_M420, 1, 48),
        (KRONECKER_M99991, 5 * 99991 - 300, 5 * 99991 + 300),
        # a dense split prime reaches deep levels above 2^31, on int64 smooth
        # parts: 5^14, 7^12 and 11^9 take the factors 15, 13 and 10
        (chi4(), 5 ** 14 - 2000, 5 ** 14 + 2000),
        (chi3(), 7 ** 12 - 2000, 7 ** 12 + 2000),
        (kronecker_character(5), 11 ** 9 - 2000, 11 ** 9 + 2000),
    ],
)
def test_F_window_edge_windows(psi, lo, hi):
    w = F_window(psi, lo, hi)
    assert np.array_equal(w, _F_reference([psi], lo, hi)[0])
    assert np.array_equal(w, _F_divisor_reference([psi], lo, hi)[0])
    assert all(w[n - lo] == F(psi, n) for n in (lo, (lo + hi) // 2, hi))


def test_F_window_memory_bounded_at_large_hi():
    # sqrt(hi) = 1e8: the primes up to it come in segments, not as one array
    lo = 10 ** 16
    tracemalloc.start()
    try:
        w = F_window(chi4(), lo, lo + 999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert w[0] == F(chi4(), lo) and w[-1] == F(chi4(), lo + 999)


@settings(max_examples=30, deadline=None)
@given(
    lo=st.integers(min_value=1, max_value=10 ** 13),
    width=st.integers(min_value=1, max_value=3000),
    psi=st.sampled_from(MASK_CHARACTERS),
)
def test_F_window_property(lo, width, psi):
    hi = lo + width - 1
    w = F_window(psi, lo, hi)
    assert np.array_equal(w, _F_reference([psi], lo, hi)[0])
    assert np.array_equal(w, _F_divisor_reference([psi], lo, hi)[0])


@settings(max_examples=40, deadline=None)
@given(
    lo=st.integers(min_value=1, max_value=10 ** 13),
    width=st.integers(min_value=1, max_value=3000),
    psi=st.sampled_from(MASK_CHARACTERS),
)
def test_F_positive_property(lo, width, psi):
    hi = lo + width - 1
    mask = F_positive(psi, lo, hi)
    assert type(mask) is bytearray
    assert np.array_equal(np.frombuffer(mask, dtype=bool), F_window(psi, lo, hi) > 0)


# F_positive walks its inert primes over bytes below 2^32 and over numpy
# prime blocks from 2^32 on; both must give F_window's sign
ROUTE_CHARACTERS = (chi4(), chi3(), chi6(), kronecker_character(-23), KRONECKER_M20, KRONECKER_M420)


@settings(max_examples=30, deadline=None)
@given(
    lo=st.one_of(st.integers(min_value=2 ** 32 - 2 ** 20, max_value=2 ** 32 + 2 ** 20), st.just(1)),
    width=st.integers(min_value=1, max_value=2 ** 19),
    psi=st.sampled_from(ROUTE_CHARACTERS),
)
@example(lo=2 ** 32 - 2 ** 19, width=2 ** 19, psi=chi4())  # hi = 2^32 - 1, the last bytes window
@example(lo=2 ** 32 - 2 ** 18, width=2 ** 19, psi=chi3())  # across 2^32
@example(lo=1, width=100, psi=chi4())  # 3, 9, 27 and 81: every parity level of an inert prime
def test_F_positive_routes_agree_across_two_to_the_32(lo, width, psi):
    hi = lo + width - 1
    mask = F_positive(psi, lo, hi)
    assert type(mask) is bytearray and len(mask) == width
    assert np.array_equal(np.frombuffer(mask, dtype=bool), F_window(psi, lo, hi) > 0)


INERT_CUBE = 1019 ** 3  # 1019 is 3 mod 4 and 2 mod 3: inert for chi4 and chi3, sparse below


def test_F_positive_edge_windows():
    cases = [
        # the ramified 23 is never walked; below 23^2 it is also the leftover q
        (kronecker_character(-23), 1, 600),
        (kronecker_character(-23), 1, 528),
        # B = 6, so 7, 14, ... leave the ramified q = 7
        (KRONECKER_M420, 1, 48),
        # the dtype of smooth parts in F_window changes at 2^31
        (chi4(), 2 ** 31 - 3000, 2 ** 31 + 3000),
        (KRONECKER_M420, 2 ** 31 - 3000, 2 ** 31 + 3000),
        (chi6(), 2 ** 31 - 3000, 2 ** 31 + 3000),
        # multiples of p^3 and p^4 for an inert p, dense (3) and sparse (1019)
        (chi4(), 3 ** 19 - 2000, 3 ** 19 + 2000),
        (chi4(), INERT_CUBE - 500, INERT_CUBE + 500),
        (chi3(), INERT_CUBE - 500, INERT_CUBE + 500),
        (chi4(), 1019 ** 4 - 500, 1019 ** 4 + 500),
        (chi3(), 2 * INERT_CUBE - 500, 2 * INERT_CUBE + 500),
        # deep levels of dense inert primes above 2^32: 3 and 7 for chi4, 2 for chi3
        (chi4(), 3 ** 21 - 2000, 3 ** 21 + 2000),
        (chi4(), 7 ** 12 - 2000, 7 ** 12 + 2000),
        (chi3(), 2 ** 40 - 2000, 2 ** 40 + 2000),
    ]
    for psi, lo, hi in cases:
        mask = np.frombuffer(F_positive(psi, lo, hi), dtype=bool)
        ref = _F_reference([psi], lo, hi)[0]
        assert np.array_equal(mask, ref.real > 0), (psi.name, lo, hi)
        assert np.array_equal(mask, F_window(psi, lo, hi) > 0), (psi.name, lo, hi)
    for n in (INERT_CUBE, 2 * INERT_CUBE, 1019 ** 4, 3 ** 19):
        assert F_positive(chi4(), n, n)[0] == (F(chi4(), n) > 0) == (n == 1019 ** 4), n


def test_F_positive_memory_bounded_at_large_hi():
    lo = 10 ** 16
    tracemalloc.start()
    try:
        mask = F_positive(chi4(), lo, lo + 999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert mask[0] == (F(chi4(), lo) > 0) and mask[-1] == (F(chi4(), lo + 999) > 0)


# F_bytes's families: odd and even, prime and composite moduli, principal ones;
# kronecker(12) is built as kronecker(8) is
BYTE_CHARACTERS = (chi3(), chi4(), chi6(), kronecker_character(5), DirichletCharacter("kronecker(12)", 12, 12),
                   kronecker_character(-7), KRONECKER_M20, kronecker_character(-23), KRONECKER_M420,
                   trivial_character(1), trivial_character(6))


def _check_F_bytes(chars, lo, hi):
    refs = _F_reference(chars, lo, hi)
    for psi, ref in zip(chars, refs):
        values = F_bytes(psi, lo, hi)
        assert type(values) is bytearray and len(values) == hi - lo + 1
        got = np.frombuffer(values, dtype=np.uint8)
        assert np.array_equal(got, F_window(psi, lo, hi)), (psi.name, lo, hi)
        assert np.array_equal(got, ref.real), (psi.name, lo, hi)


@settings(max_examples=40, deadline=None)
@given(
    lo=st.integers(min_value=1, max_value=BYTES_F_MAX),
    width=st.integers(min_value=1, max_value=3000),
    psi=st.sampled_from(BYTE_CHARACTERS),
)
@example(lo=1, width=1, psi=trivial_character(1))
@example(lo=1, width=2, psi=chi4())  # B = 1: the modulus prime 2 is walked, never left
@example(lo=1, width=3, psi=chi3())
@example(lo=1, width=4, psi=kronecker_character(5))  # B = 2: 3 is left, past B
@example(lo=BYTES_F_MAX - 2999, width=3000, psi=trivial_character(1))  # tau(n) up to the cap
def test_F_bytes_matches_F_window(lo, width, psi):
    _check_F_bytes([psi], lo, min(lo + width - 1, BYTES_F_MAX))


@pytest.mark.parametrize("lo,hi", [
    (1, 1), (1, 2), (1, 3), (1, 4),
    # q just above B: 11 * k for B = 10, and 1031 * k for B = 1030 (1031 is prime)
    (1, 120),
    (1031 * 1030 - 1500, 1031 ** 2 - 1),
    # tau(n) = 240 at 720720 and 942480; the top of the byte range
    (720720 - 100, 720720 + 100),
    (942480 - 100, 942480 + 100),
    (BYTES_F_MAX - 500, BYTES_F_MAX),
])
def test_F_bytes_edge_windows(lo, hi):
    _check_F_bytes(BYTE_CHARACTERS, lo, hi)


def test_F_bytes_walks_modulus_primes_above_B():
    # 23 > isqrt(528) and 7 > isqrt(48): walked, so never the leftover q
    _check_F_bytes([kronecker_character(-23)], 1, 528)
    _check_F_bytes([kronecker_character(-23)], 400, 528)
    _check_F_bytes([KRONECKER_M420], 1, 48)


def test_F_bytes_over_its_whole_range():
    _check_F_bytes(BYTE_CHARACTERS, 1, BYTES_F_MAX)


def test_F_bytes_values_fit_a_byte():
    # |F_psi(n)| <= tau(n) <= 240 below 1081080, the least n with 256 divisors
    assert len(divisors(factorize(1081080))) == 256
    assert int(F_window(trivial_character(1), 1, 1081079).max()) == 240
    assert BYTES_F_MAX == 1081079
    for lo in (1, BYTES_F_MAX + 1):
        with pytest.raises(BudgetError):
            F_bytes(trivial_character(1), lo, 1081080)  # tau = 256 would wrap to 0


def test_log_residue_separates_the_leftover():
    # R(n) = round(12 log2 n) less round(12 log2 p) per level of each walked p:
    # |R| <= margin where nothing is left, and a prime q > B left gives
    # R >= 6 log2 hi - (1 + log2 hi) / 2, below 256 - margin
    for hi in itertools.chain(range(2, 5000), (2 ** k + d for k in range(12, 21) for d in (-1, 0, 1)),
                              [BYTES_F_MAX]):
        m, L = characters._log_margin(hi), math.log2(hi)
        assert m <= (1 + L) / 2 < m + 1, hi  # |R| is an integer
        assert 6 * L - (1 + L) / 2 > m and 12 * L + 0.5 < 256 - m, hi
    top = np.arange(1, BYTES_F_MAX + 1, dtype=np.int64)
    ramp = np.frombuffer(characters._log_residue(1, BYTES_F_MAX, ()), dtype=np.uint8)
    assert np.array_equal(ramp, np.rint(12 * np.log2(top)))
    largest = np.ones(BYTES_F_MAX + 1, dtype=np.int64)
    for p in primes(BYTES_F_MAX).tolist():
        largest[p::p] = p
    for hi in (2, 3, 4, 9, 48, 528, 1000, 2 ** 16, BYTES_F_MAX):
        B, L = math.isqrt(hi), math.log2(hi)
        walked = tuple(primes(B).tolist())
        r = np.frombuffer(characters._log_residue(1, hi, walked), dtype=np.uint8).astype(np.int64)
        left = largest[1 : hi + 1] > B
        m = characters._log_margin(hi)
        signed = np.where(r >= 128, r - 256, r)[~left]
        assert np.abs(signed).max() <= min(m, 3), hi
        assert np.all(r[left] >= 6 * L - (1 + L) / 2) and np.all(r[left] < 256 - m), hi


# one row per 2-part D_2 of disc (-4, 8, -8), each with an odd prime of the
# modulus that disc lacks, and the flips ((D / D_s) / s) = -1 at every prime s
# of the modulus, increasing
TWO_PART_ROWS = {
    DirichletCharacter("kronecker(60) mod 420", 60, 420): (False, False, True, False),  # -4 * -3 * 5
    DirichletCharacter("kronecker(40) mod 120", 40, 120): (True, False, True),  # 8 * 5
    DirichletCharacter("kronecker(-40) mod 840", -40, 840): (True, True, True, False),  # -8 * 5
}


def test_unit_parts_give_psi_of_the_unit_part():
    # the parts, their flips and the values against one Kronecker symbol per
    # residue; then psi(n') for n' = n without the primes of the modulus, read
    # off the symbol's values, against the product of the parts' factors.
    # Every primitive character with |D| <= 1000, imprimitive ones with one or
    # two primes of the modulus outside D, and products of the named ones.
    named = (chi3(), chi4(), chi6(), trivial_character(1), trivial_character(30)) + tuple(TWO_PART_ROWS)
    chars = MASK_CHARACTERS + named + (KRONECKER_M99991,) + tuple(
        kronecker_character(D) for D in range(-1000, 1001) if is_fundamental_discriminant(D))
    chars += tuple(DirichletCharacter("imprimitive", D, abs(D) * m) for D in (-8, -4, -3, 5, 8, 12, -20, 24, -40)
                   for m in (2, 3, 5, 6, 35))
    chars += tuple(product_character(a, b) for a, b in itertools.product(named, repeat=2))
    n = np.arange(1, 3001, dtype=np.int64)
    for psi in chars:
        values = character_values(psi.disc, psi.modulus)
        assert psi.values == values, psi.name
        assert psi.unit_parts == unit_parts(psi.disc, psi.modulus), psi.name
        if psi in TWO_PART_ROWS:
            assert tuple(flip for _, _, flip in psi.unit_parts) == TWO_PART_ROWS[psi], psi.name
        primes_of_k = [s for s, _ in factorize(psi.modulus).factors]
        assert [s for s, _, _ in psi.unit_parts] == primes_of_k
        unit, sign = n.copy(), np.ones(n.size, dtype=np.int64)
        for s, neg, flip in psi.unit_parts:
            assert type(neg) is bytes  # immutable
            residues = np.frombuffer(neg, dtype=bool)
            v = np.zeros(n.size, dtype=np.int64)
            while (hit := unit % s == 0).any():
                unit[hit] //= s
                v += hit
            cofactor = n // s ** v
            sign *= np.where(residues[cofactor % residues.size], -1, 1) * np.where(flip & (v % 2 == 1), -1, 1)
        assert np.array_equal(np.array(values)[unit % psi.modulus], sign), psi.name


def test_second_calls_build_no_table(monkeypatch):
    # the value table (99991 entries here) and the unit parts are built once
    # per character, on first use, not once per call
    psi, lo, hi = KRONECKER_M99991, 10 ** 9, 10 ** 9 + 1000
    first = F_positive(psi, lo, hi), F_window(psi, lo, hi)
    calls = []
    array = np.array

    def counted(obj, *args, **kwargs):
        if hasattr(obj, "__len__") and len(obj) >= psi.modulus:
            calls.append(len(obj))
        return array(obj, *args, **kwargs)

    monkeypatch.setattr(characters.np, "array", counted)
    assert F_positive(psi, lo, hi) == first[0]
    assert np.array_equal(F_window(psi, lo, hi), first[1])
    assert calls == []
    assert psi.table is psi.table and not psi.table.flags.writeable


def test_F_refuses_past_the_ceiling(monkeypatch):
    n = 2 ** 63 - 1  # 7^2 73 127 337 92737 649657
    for psi in REALS:
        assert F(psi, n) == sum(psi(d) for d in divisors(factorize(n))), psi.name
    with pytest.raises(BudgetError):
        F(chi4(), 2 ** 63)

    def sieved(*args):
        raise AssertionError("F_window sieved a window past the ceiling")

    monkeypatch.setattr(characters, "_sieve_segment", sieved)
    monkeypatch.setattr(characters, "_member_segment", sieved)
    with pytest.raises(BudgetError):
        F_window(chi4(), 2 ** 63 - 10, 2 ** 63)
    with pytest.raises(BudgetError):
        F_positive(chi4(), 2 ** 63 - 10, 2 ** 63)


def test_F_sieve_budget_guard():
    with pytest.raises(BudgetError):
        F_sieve(chi4(), F_SIEVE_MAX + 1)


def test_F_sieve_chunked_fill(monkeypatch):
    # 30 chunks of 1000 fill the one buffer; each must land at its own offset
    # (F_window's segments pass their own chunk, SEGMENT)
    monkeypatch.setattr(characters, "chunk_ranges",
                        lambda lo, hi, chunk=1000: util.chunk_ranges(lo, hi, chunk))
    for psi in (chi3(), chi4(), chi6()):
        sv = F_sieve(psi, 30_000)
        assert sv[0] == 0 and sv.size == 30_001
        assert np.array_equal(sv[1:], F_window(psi, 1, 30_000)), psi.name
