import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import formgaps.census as census_mod
from formgaps import repr_sets, util
from formgaps.census import (
    CensusRecord,
    census_interval,
    correlation_J,
    correlation_general,
    estermann_correlation,
)
from formgaps.characters import BYTES_F_MAX, F, F_window, chi3, chi4, chi6, kronecker_character
from formgaps.errors import BudgetError
from formgaps.repr_sets import SQUARE2, TRIANGLE, TRIANGLE_STAR, diamond, is_member, sieve_members


def test_correlation_J_examples():
    assert correlation_J(chi6(), 1, 10) == 3
    assert correlation_J(chi6(), 1, 1) == 1
    assert correlation_J(chi6(), 5, 0) == 0


def test_correlation_J_matches_direct_sum():
    for a in (1, 2, 5, -3):
        x = 3000
        direct = sum(
            F(chi6(), n) * F(chi4(), n + a)
            for n in range(max(1, 1 - a), x + 1)
            if math.gcd(n, 6) == 1
        )
        assert correlation_J(chi6(), a, x) == direct, a


def test_correlation_J_negative_shift_start():
    # n starts at 1 - a so that n + a >= 1
    a = -10
    direct = sum(
        F(chi6(), n) * F(chi4(), n + a)
        for n in range(11, 101)
        if math.gcd(n, 6) == 1
    )
    assert correlation_J(chi6(), a, 100) == direct


def test_correlation_general_example():
    # sum F_chi4(n) F_chi4(n+1), n <= 5: 1*1 + 1*0 + 0*1 + 1*2 + 2*0 = 3
    # (cross-checked by the lattice identity 16 * value = sum r2(n) r2(n+1))
    assert correlation_general(chi4(), chi4(), 1, 5) == 3
    assert correlation_general(chi4(), chi4(), 1, 0) == 0
    with pytest.raises(ValueError):
        correlation_general(chi4(), chi4(), 0, 10)


def test_estermann_examples():
    assert estermann_correlation(1, 2) == 16
    assert estermann_correlation(3, 0) == 0
    from formgaps.repr_sets import r2

    x = 500
    for a in (1, -2):
        direct = sum(r2(n) * r2(n + a) for n in range(max(1, 1 - a), x + 1))
        assert estermann_correlation(a, x) == direct


def test_census_examples():
    rec = census_interval(SQUARE2, SQUARE2, 1, 1, 9, witness_cap=None)
    assert rec.count == 4 and rec.witnesses == (1, 4, 8, 9)
    rec = census_interval(TRIANGLE, SQUARE2, 0, 1, 9, witness_cap=None)
    assert rec.witnesses == (1, 4, 9)
    rec = census_interval(SQUARE2, SQUARE2, 3, 7, 0, witness_cap=None)
    assert rec.count in (0, 1)


def test_census_record_invariant_reverifies():
    rec = census_interval(TRIANGLE, SQUARE2, 2, 50, 500, witness_cap=None)
    assert rec.count == len(rec.witnesses)
    for n in rec.witnesses:
        assert 50 <= n <= 550
        assert is_member(TRIANGLE, n) and is_member(SQUARE2, n + 2)


def test_census_witness_cap_keeps_exact_count():
    full = census_interval(SQUARE2, SQUARE2, 1, 1, 2000, witness_cap=None)
    capped = census_interval(SQUARE2, SQUARE2, 1, 1, 2000, witness_cap=5)
    assert capped.count == full.count > 5
    assert capped.witnesses == full.witnesses[:5]


def test_census_refuses_a_negative_witness_cap():
    # None lists every witness; a negative cap is no count of witnesses
    for cap in (-1, -3):
        with pytest.raises(ValueError):
            census_interval(SQUARE2, SQUARE2, 1, 1, 9, witness_cap=cap)


def test_census_across_two_to_the_32(small_chunks):
    # chunks of 1000: the first two lie below 2^32 (the bytes walk), the next
    # ones reach past it (numpy), on either side of the shift
    x, H = 2 ** 32 - 1500, 2999
    for set1, set2, a in ((TRIANGLE, SQUARE2, 1), (SQUARE2, SQUARE2, -700),
                          (diamond(-23), TRIANGLE_STAR, 600), (diamond(-20), diamond(-420), 3)):
        brute = [n for n in range(x, x + H + 1) if is_member(set1, n) and is_member(set2, n + a)]
        rec = census_interval(set1, set2, a, x, H, witness_cap=None)
        assert rec.witnesses == tuple(brute) and rec.count == len(brute), (set1, set2, a)


def test_census_negative_shift_excludes_negative_partners():
    rec = census_interval(SQUARE2, SQUARE2, -100, 0, 200, witness_cap=None)
    assert all(n >= 100 for n in rec.witnesses)
    direct = [
        n
        for n in range(100, 201)
        if is_member(SQUARE2, n) and is_member(SQUARE2, n - 100)
    ]
    assert list(rec.witnesses) == direct


def test_census_chunked_equals_single_pass():
    import formgaps.census as census_mod
    import formgaps.util as util

    rec1 = census_interval(TRIANGLE, SQUARE2, 1, 0, 20_000, witness_cap=None)
    old = util.DEFAULT_CHUNK
    try:
        # force many chunks through the same public call
        census_mod.chunk_ranges = lambda lo, hi, chunk=old: util.chunk_ranges(lo, hi, 1024)
        rec2 = census_interval(TRIANGLE, SQUARE2, 1, 0, 20_000, witness_cap=None)
    finally:
        census_mod.chunk_ranges = util.chunk_ranges
    assert rec1 == rec2


def test_census_threads_identical():
    a = census_interval(TRIANGLE, SQUARE2, 2, 0, 50_000, threads=1)
    b = census_interval(TRIANGLE, SQUARE2, 2, 0, 50_000, threads=4)
    assert a == b


def test_budget_guards():
    with pytest.raises(BudgetError):
        correlation_J(chi6(), 1, 2_000_000_000)
    with pytest.raises(BudgetError):
        census_interval(SQUARE2, SQUARE2, 1, 0, 2_000_000_000)


def test_correlations_answer_at_any_height():
    # bounded by the width of the window, not by x + |a|
    def direct(psi, rho, a, lo, hi, b=1):
        return sum(F(psi, n) * F(rho, n + a) for n in range(lo, hi + 1) if math.gcd(n, b) == 1)

    k5 = kronecker_character(5)
    for a in (2 * 10 ** 9, 2 * 10 ** 9 + 1):
        assert correlation_J(chi6(), a, 10) == direct(chi6(), chi4(), a, 1, 10, b=6), a
    assert correlation_general(k5, k5, 3 * 10 ** 9, 50) == direct(k5, k5, 3 * 10 ** 9, 1, 50)
    a = -5 * 10 ** 8
    assert estermann_correlation(a, -a + 50) == 16 * direct(chi4(), chi4(), a, 1 - a, 50 - a)


def test_census_boundary_point_skips_the_membership_oracle(monkeypatch):
    # lo_eff = max(x, -a) is decided by sieve_members, through the member
    # characters and is_member(s, 0) alone, so the routes of is_member for
    # n >= 1 (exponent parity, F of diamond) stay out of every census,
    # including a non-member lo_eff near 1e14
    cases = [
        (TRIANGLE_STAR, SQUARE2, 1, 0, 50),  # x = 0
        (SQUARE2, TRIANGLE, -9, 3, 40),  # -a >= x, lo_eff + a = 0
        (SQUARE2, diamond(-4), -9, 0, 30),  # 0 lies in no diamond
        (diamond(-4), TRIANGLE_STAR, -4, 2, 30),
        (TRIANGLE_STAR, SQUARE2, 1, 10**14 + 1, 1000),  # 10^14 + 1 = 2 mod 3
    ]
    before = [census_interval(*c, witness_cap=None) for c in cases]
    assert [r.count for r in before[:4]] == [
        sum(is_member(s1, n) and is_member(s2, n + a) for n in range(max(x, -a), x + H + 1))
        for s1, s2, a, x, H in cases[:4]
    ]

    def oracle(*args):
        raise AssertionError("census called an is_member oracle")

    monkeypatch.setattr(repr_sets, "_exponents_ok", oracle)
    monkeypatch.setattr(repr_sets, "F", oracle)
    assert [census_interval(*c, witness_cap=None) for c in cases] == before


def test_census_reads_sieve_members(monkeypatch):
    # every window of a census is one sieve_members call; sets of one member
    # character share a window over both ranges unless it holds 0
    calls = []

    def counted(s, lo, hi):
        calls.append((str(s), lo, hi))
        return sieve_members(s, lo, hi)

    monkeypatch.setattr(census_mod, "sieve_members", counted)
    cases = {
        (TRIANGLE, SQUARE2, 1, 100, 999): [("triangle", 100, 1099), ("square2", 101, 1100)],
        (SQUARE2, SQUARE2, 3, 100, 999): [("square2", 100, 1102)],
        (SQUARE2, diamond(-4), 0, 0, 40): [("square2", 0, 40), ("diamond:-4", 0, 40)],
        (TRIANGLE, TRIANGLE_STAR, -5, 0, 40): [("triangle", 5, 40), ("triangle_star", 0, 35)],
    }
    for (set1, set2, a, x, H), expected in cases.items():
        calls.clear()
        rec = census_interval(set1, set2, a, x, H, witness_cap=None)
        assert calls == expected, (set1, set2, a)
        brute = [n for n in range(max(x, -a), x + H + 1)
                 if is_member(set1, n) and is_member(set2, n + a)]
        assert rec.witnesses == tuple(brute) and rec.count == len(brute)


SMALL_CHUNK = 1000  # shifts below it share one window per chunk, larger ones do not


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(
        census_mod, "chunk_ranges", lambda lo, hi: util.chunk_ranges(lo, hi, SMALL_CHUNK)
    )


def _separate_census(set1, set2, a, x, H):
    # two sieves over the two shifted ranges past the boundary point, never one
    # shared window; is_member decides the boundary point, where n or n + a is
    # 0 in the x = 0 cases, so the reference does not read 0 off sieve_members
    lo = max(x, -a)
    head = [lo] if is_member(set1, lo) and is_member(set2, lo + a) else []
    both = (np.frombuffer(sieve_members(set1, lo + 1, x + H), dtype=bool)
            & np.frombuffer(sieve_members(set2, lo + 1 + a, x + H + a), dtype=bool))
    return tuple(head + [int(n) for n in lo + 1 + np.flatnonzero(both)])


@pytest.mark.parametrize(
    "set1,set2",
    [
        (SQUARE2, SQUARE2),
        (TRIANGLE_STAR, TRIANGLE_STAR),
        (SQUARE2, diamond(-4)),
        (diamond(-4), SQUARE2),
        (TRIANGLE, diamond(-3)),
        (TRIANGLE, TRIANGLE_STAR),
        (TRIANGLE_STAR, diamond(-3)),
        (TRIANGLE, SQUARE2),
        (diamond(-23), TRIANGLE),
        (SQUARE2, diamond(-3)),
    ],
)
@pytest.mark.parametrize(
    "a,x",
    [
        (13, 10 ** 9 - 2000),
        (-13, 10 ** 9 - 2000),
        (2500, 10 ** 9 - 2000),
        (-2500, 10 ** 9 - 2000),
        (-7, 0),  # lo_eff = 7, where n + a = 0: the form sets hold 0, diamond does not
        (0, 0),
    ],
)
def test_census_shared_window_matches_separate(small_chunks, set1, set2, a, x):
    # shared and unshared pairs alike start at the boundary point lo_eff = max(x, -a)
    H = 4500
    expected = _separate_census(set1, set2, a, x, H)
    recs = [census_interval(set1, set2, a, x, H, witness_cap=None, threads=t) for t in (1, 2, 4)]
    assert recs[0] == recs[1] == recs[2]
    assert recs[0].witnesses == expected and recs[0].count == len(expected)


BENCH_SETS = (SQUARE2, TRIANGLE, TRIANGLE_STAR, diamond(-4), diamond(-23))


@settings(max_examples=80, deadline=None)
@given(
    set1=st.sampled_from(BENCH_SETS),
    set2=st.sampled_from(BENCH_SETS),
    a=st.integers(min_value=-60, max_value=60),
    x=st.integers(min_value=0, max_value=10 ** 4),
    H=st.integers(min_value=0, max_value=3000),
)
@example(set1=SQUARE2, set2=diamond(-4), a=0, x=0, H=40)  # n = 0 in one set only
@example(set1=diamond(-23), set2=TRIANGLE, a=-37, x=0, H=200)  # n + a = 0 at lo_eff = -a
@example(set1=TRIANGLE, set2=TRIANGLE_STAR, a=-60, x=25, H=3000)  # -a > x
@example(set1=SQUARE2, set2=SQUARE2, a=-50, x=80, H=0)  # an empty window
def test_census_matches_is_member(set1, set2, a, x, H):
    brute = [
        n
        for n in range(max(x, -a), x + H + 1)
        if is_member(set1, n) and is_member(set2, n + a)
    ]
    with pytest.MonkeyPatch.context() as mp:  # windows of up to 3000 span several chunks
        mp.setattr(census_mod, "chunk_ranges",
                   lambda lo, hi: util.chunk_ranges(lo, hi, SMALL_CHUNK))
        rec = census_interval(set1, set2, a, x, H, witness_cap=None)
        capped = census_interval(set1, set2, a, x, H, witness_cap=3)
    assert rec.witnesses == tuple(brute) and rec.count == len(brute)
    assert capped.witnesses == tuple(brute[:3]) and capped.count == len(brute)


def _separate_product(psi, rho, a, x, b=1):
    n_lo = max(1, 1 - a)
    terms = np.multiply(F_window(psi, n_lo, x), F_window(rho, n_lo + a, x + a), dtype=np.int64)
    if b > 1:
        terms = terms[np.gcd(np.arange(n_lo, x + 1), b) == 1]
    return int(terms.sum())


@pytest.mark.parametrize("a", [1, 7, 2500])
def test_correlations_shared_window_match_separate(small_chunks, a):
    x = 12_000
    k5 = kronecker_character(5)
    expected = (
        _separate_product(k5, k5, a, x),
        16 * _separate_product(chi4(), chi4(), a, x),
        16 * _separate_product(chi4(), chi4(), -a, x),
        _separate_product(chi4(), chi4(), a, x, b=4),
        _separate_product(chi4(), chi4(), -a, x, b=4),
    )
    for threads in (1, 2, 4):
        got = (
            correlation_general(k5, k5, a, x, threads=threads),
            estermann_correlation(a, x, threads=threads),
            estermann_correlation(-a, x, threads=threads),
            correlation_J(chi4(), a, x, threads=threads),
            correlation_J(chi4(), -a, x, threads=threads),
        )
        assert got == expected, (a, threads)


@pytest.mark.parametrize("a", [1, -5, 7])
def test_correlation_J_coprime_mask_across_chunks(small_chunks, a):
    # chunks of SMALL_CHUNK = 1000 integers start at every residue mod b = 6
    x = 12_345
    assert correlation_J(chi6(), a, x) == _separate_product(chi6(), chi4(), a, x, b=6)


def _refuse(*args):
    raise AssertionError("the other route was taken")


# (psi, rho, b) of correlate's kinds: j with an odd and an even-modulus psi,
# general over two moduli and over one, estermann
PRODUCT_KINDS = [(chi6(), chi4(), 6), (chi4(), chi4(), 4), (chi3(), chi4(), 1),
                 (kronecker_character(5), kronecker_character(5), 1), (chi4(), chi4(), 1)]


@pytest.mark.parametrize("threads", [1, 2])
def test_product_sum_routes_agree(monkeypatch, small_chunks, threads):
    # up to n + a = BYTES_F_MAX the sum runs over F_bytes, past it over
    # F_window: the numpy route, forced by a cap of 0, is the oracle
    cases = [(psi, rho, a, 20_000, b) for psi, rho, b in PRODUCT_KINDS for a in (-7, 3)]
    with monkeypatch.context() as m:
        m.setattr(census_mod, "F_window", _refuse)
        got = [census_mod._product_sum(psi, rho, a, x, threads, b) for psi, rho, a, x, b in cases]
    with monkeypatch.context() as m:
        m.setattr(census_mod, "BYTES_F_MAX", 0)
        m.setattr(census_mod, "F_bytes", _refuse)
        expected = [census_mod._product_sum(psi, rho, a, x, threads, b) for psi, rho, a, x, b in cases]
    assert got == expected


def test_product_sum_routes_meet_at_the_cap(monkeypatch):
    # one chunk each: the last sum on the byte side, and the same sum on the numpy side
    for psi, rho, b in PRODUCT_KINDS[::2]:
        byte_side = census_mod._product_sum(psi, rho, 5, BYTES_F_MAX - 5, 1, b)
        with monkeypatch.context() as m:
            m.setattr(census_mod, "BYTES_F_MAX", 0)
            assert census_mod._product_sum(psi, rho, 5, BYTES_F_MAX - 5, 1, b) == byte_side, psi.name
    whole = census_mod._product_sum(chi4(), chi4(), -3, BYTES_F_MAX, 2, 1)
    with monkeypatch.context() as m:
        m.setattr(census_mod, "F_bytes", _refuse)  # x + 1 past the cap: numpy, unpatched
        assert census_mod._product_sum(chi4(), chi4(), 1, BYTES_F_MAX, 2, 1) > 0
        m.setattr(census_mod, "BYTES_F_MAX", 0)
        assert census_mod._product_sum(chi4(), chi4(), -3, BYTES_F_MAX, 2, 1) == whole


FIRST_USE_CHILD = """
import sys
from formgaps.census import census_interval
from formgaps.repr_sets import SQUARE2, TRIANGLE
assert "numpy" not in sys.modules
print(census_interval(SQUARE2, TRIANGLE, 1, 10**12, 1 << 23, witness_cap=0, threads=2).count)
"""


def test_census_loads_numpy_first_inside_worker_threads():
    # three chunks on two threads, in a process where numpy is not loaded yet:
    # above 2^32 the masks are sieved through numpy, so both workers make
    # their first array lookups at once
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", FIRST_USE_CHILD], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    expected = census_interval(SQUARE2, TRIANGLE, 1, 10 ** 12, 1 << 23, witness_cap=0, threads=2)
    assert int(proc.stdout) == expected.count


def test_census_imports_no_constants():
    # census counts and sums exactly; the main-term constants and local
    # densities belong to the commands that print them
    src = Path(__file__).resolve().parents[1] / "src"
    child = "import sys, formgaps.census; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "formgaps.census" in loaded
    assert "formgaps.analytic_constants" not in loaded
    assert "formgaps.local_densities" not in loaded
