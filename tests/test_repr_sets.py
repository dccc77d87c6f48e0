import math

import numpy as np
import pytest
from lattice_oracle import form_counts, reduced_forms, triangle_star_window

from formgaps import util
from formgaps.characters import F_window
from formgaps.errors import BudgetError
from formgaps.repr_sets import (
    R2,
    SQUARE2,
    TRIANGLE,
    TRIANGLE_STAR,
    diamond,
    ideal_count,
    is_member,
    member_character,
    parse_set,
    r2,
    sieve_members,
)


def test_r2_examples():
    assert r2(5) == 8
    assert r2(3) == 0
    assert r2(25) == 12
    assert r2(5, "enumerate") == 8
    assert r2(25, "enumerate") == 12


def test_R2_examples():
    assert R2(1) == 6
    assert R2(3) == 6
    assert R2(7) == 12
    assert R2(1, "enumerate") == 6
    assert R2(3, "enumerate") == 6
    assert R2(7, "enumerate") == 12


def test_modes_agree_on_range():
    for n in range(1, 4001):
        assert r2(n) == r2(n, "enumerate")
        assert R2(n) == R2(n, "enumerate")


CLASS_NUMBERS = {-3: 1, -4: 1, -7: 1, -8: 1, -163: 1, -15: 2, -20: 2, -23: 3, -84: 4, -420: 8,
                 -199: 9}


def test_reduced_forms_give_the_class_numbers():
    assert {D: len(reduced_forms(D)) for D in CLASS_NUMBERS} == CLASS_NUMBERS
    assert reduced_forms(-23) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]


@pytest.mark.parametrize("D", [-15, -20, -23, -84])
def test_ideal_counts_are_reduced_form_counts(D):
    # Dirichlet: the reduced forms of D together represent n w(D) * I_D(n) times,
    # w(D) = 2 units for D < -4; class number > 1, so no single form does
    total = sum(form_counts(*f, 3000) for f in reduced_forms(D))
    assert [int(v) for v in total[1:]] == [2 * ideal_count(n, D) for n in range(1, 3001)]


def test_ideal_count_examples():
    assert ideal_count(7, -3) == 2
    assert ideal_count(1, -3) == ideal_count(1, 5) == 1
    assert ideal_count(3, -3) == 1


def test_membership_examples():
    assert not is_member(SQUARE2, 3)
    assert is_member(TRIANGLE, 7)
    assert is_member(TRIANGLE_STAR, 4) and is_member(TRIANGLE_STAR, 3)  # 3 = 0 + 3 * 1
    assert is_member(SQUARE2, 0) and is_member(TRIANGLE, 0) and is_member(TRIANGLE_STAR, 0)
    assert not is_member(diamond(-4), 0)
    assert is_member(diamond(-4), 5) and not is_member(diamond(-4), 3)


def test_membership_matches_representation_counts():
    for n in range(1, 5001):
        assert is_member(SQUARE2, n) == (r2(n) > 0)
        assert is_member(TRIANGLE, n) == (R2(n) > 0)


def test_triangle_star_subset_of_triangle():
    star = np.frombuffer(sieve_members(TRIANGLE_STAR, 0, 300_000), dtype=bool)
    tri = np.frombuffer(sieve_members(TRIANGLE, 0, 300_000), dtype=bool)
    assert np.all(tri[star])
    scan = np.zeros(300_001, dtype=bool)  # every lattice point, one by one
    for d in range(0, math.isqrt(300_000 // 3) + 1):
        for c in range(0, math.isqrt(300_000 - 3 * d * d) + 1):
            scan[c * c + 3 * d * d] = True
    assert np.array_equal(star, scan)


def test_triangle_star_equals_triangle():
    # a^2 + ab + b^2 = c^2 + 3d^2 both ways, so the chi3 windows hold every lattice point
    for lo, hi in ((0, 10 ** 6), (10 ** 9 - (1 << 17), 10 ** 9 + (1 << 17))):
        assert np.array_equal(np.frombuffer(sieve_members(TRIANGLE_STAR, lo, hi), dtype=bool),
                              triangle_star_window(lo, hi))
    for n in (10 ** 9 + 1, 10 ** 9 + 3, 10 ** 9 + 7, 10 ** 9 + 9):
        assert bool(triangle_star_window(n, n)[0]) == is_member(TRIANGLE, n), n


def test_triangle_star_member_input_limit():
    assert is_member(TRIANGLE_STAR, 3 * 10 ** 16 + 4)  # c = 2, d = 1e8
    with pytest.raises(BudgetError):  # factorize's input cap, reported as exit 2
        is_member(TRIANGLE_STAR, 1 << 63)


def test_sieve_examples():
    m = sieve_members(SQUARE2, 1, 10)
    assert {n for n in range(1, 11) if m[n - 1]} == {1, 2, 4, 5, 8, 9, 10}
    m = sieve_members(TRIANGLE, 1, 10)
    assert {n for n in range(1, 11) if m[n - 1]} == {1, 3, 4, 7, 9}
    assert sieve_members(SQUARE2, 0, 0) == bytearray(b"\1")
    assert sieve_members(diamond(-4), 0, 0) == bytearray(b"\0")


def test_sieve_matches_is_member_on_windows():
    for s in (SQUARE2, TRIANGLE, TRIANGLE_STAR, diamond(-4), diamond(5)):
        # one window of 2001 integers at 1e12 holds the chi3 sieve to the parity oracle
        wide = 1000 if s == TRIANGLE_STAR else 8
        windows = ((0, 600), (9_995, 10_600), (123_456, 123_999),
                   (999_999_800, 1_000_000_000), (10 ** 12 - wide, 10 ** 12 + wide))
        for lo, hi in windows:
            mask = sieve_members(s, lo, hi)
            for n in range(lo, hi + 1):
                assert bool(mask[n - lo]) == is_member(s, n), (s, n)
    # triangle_star's own lattice points, one d at a time, at 1e10
    lo, hi = 10 ** 10 - 1000, 10 ** 10 + 1000
    assert np.array_equal(np.frombuffer(sieve_members(TRIANGLE_STAR, lo, hi), dtype=bool),
                          triangle_star_window(lo, hi))


def test_sieve_chunking_consistent():
    import formgaps.util as util

    full = sieve_members(TRIANGLE, 0, 3 * 4096)
    parts = [
        sieve_members(TRIANGLE, lo, hi) for lo, hi in util.chunk_ranges(0, 3 * 4096, 4096)
    ]
    assert full == b"".join(parts)


def test_sieve_members_chunked_fill():
    # the mask is F_positive's; lo = 0 takes n = 0 from is_member
    for s in (SQUARE2, TRIANGLE, TRIANGLE_STAR, diamond(-4), diamond(-23)):
        psi = member_character(s)
        mask = np.frombuffer(sieve_members(s, 0, 12_345), dtype=bool)
        assert mask[0] == is_member(s, 0)
        assert np.array_equal(mask[1:], F_window(psi, 1, 12_345) > 0), s
        lo = 10 ** 9 - 4321
        hi = lo + 9_999
        mask = np.frombuffer(sieve_members(s, lo, hi), dtype=bool)
        assert np.array_equal(mask, F_window(psi, lo, hi) > 0), s


def test_sieve_budget_guard():
    with pytest.raises(BudgetError):
        sieve_members(SQUARE2, 0, 2_000_000_000)


def test_parse_set():
    assert parse_set("square2") is SQUARE2
    assert parse_set("diamond:-4").disc == -4
    with pytest.raises(ValueError):
        parse_set("circle")
    with pytest.raises(ValueError):
        parse_set("diamond:9")


def test_input_validation():
    with pytest.raises(ValueError):
        r2(0)
    with pytest.raises(ValueError):
        R2(0)
    with pytest.raises(ValueError):
        r2(5, "guess")
    with pytest.raises(ValueError):
        is_member(SQUARE2, -1)
