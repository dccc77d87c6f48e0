import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formgaps import gaps
from formgaps.cli import main
from formgaps.errors import BudgetError, InvariantError
from formgaps.gaps import (
    BRANCH_GENERIC,
    BRANCH_REPRESENTABLE,
    BRANCH_SQ2_SQ2,
    GapWitness,
    _f0_times4,
    _generic_state,
    _side_conditions_hold,
    f_vd,
    gap_square2_square2,
    gap_triangle_square2,
    represent_norm_form,
)
from formgaps.repr_sets import SQUARE2, TRIANGLE, is_member


def upsilon(a: int) -> Fraction:
    """Gap exponent: 1/2 when a is a norm-form value n^2 - 3 m^2, else 5/8."""
    if a == 0:
        raise ValueError("upsilon requires a != 0")
    return Fraction(1, 2) if represent_norm_form(a) is not None else Fraction(5, 8)


def x_min(a: int) -> int:
    """Smallest x at which all side conditions of the generic construction hold."""
    if a == 0:
        raise ValueError("x_min requires a != 0")
    for x in range(1, 1_000_001):
        if _side_conditions_hold(_generic_state(a, x), a):
            return x
    raise InvariantError("side conditions never hold up to 10^6")


def empirical_D(a: int, xs: list[int]) -> float:
    """Largest offset / x^upsilon(a) over the sample points xs."""
    if not xs:
        raise ValueError("empirical_D requires a nonempty sample")
    u = float(upsilon(a))
    return max(gap_triangle_square2(a, x).offset / x ** u for x in xs)


def test_represent_norm_form_examples():
    n, m = represent_norm_form(1)
    assert n * n - 3 * m * m == 1
    assert represent_norm_form(5) is None
    n, m = represent_norm_form(-2)
    assert n * n - 3 * m * m == -2


def test_represent_norm_form_against_exhaustive_oracle():
    for a in range(-1000, 1001):
        if a == 0:
            continue
        mine = represent_norm_form(a)
        if mine is not None:
            n, m = mine
            assert n * n - 3 * m * m == a
        M = 10 * math.isqrt(abs(a)) + 10
        oracle = any(
            (t := a + 3 * m * m) >= 0 and math.isqrt(t) ** 2 == t for m in range(M + 1)
        )
        assert (mine is not None) == oracle, a


def test_represent_norm_form_matches_the_wider_scan():
    # the scan over m^2 <= 14 |a| that Nagell's m^2 <= |a| / 2 replaced: same
    # first solution, since both run m upward
    for a in range(-5000, 5001):
        if a == 0:
            continue
        wide = next(((math.isqrt(t), m) for m in range(math.isqrt(14 * abs(a)) + 2)
                     if (t := a + 3 * m * m) >= 0 and math.isqrt(t) ** 2 == t), None)
        assert represent_norm_form(a) == wide, a


def test_represent_norm_form_reaches_nagells_bound():
    # -2 k^2 = k^2 - 3 k^2 has its least solution at m^2 = |a| / 2 exactly
    for k in range(1, 11):
        assert represent_norm_form(-2 * k * k) == (k, k)
    # 6 k^2 = (3k)^2 - 3 k^2 has it at m^2 = a / 6 exactly when k = 2^i 3^j, so
    # that only the ramified primes 2 and 3 divide a
    for k in (2 ** i * 3 ** j for i in range(8) for j in range(5)):
        assert represent_norm_form(6 * k * k) == (3 * k, k), k


def test_congruences_decide_shifts_past_the_scan_cap(capsys):
    # n^2 - 3 m^2 is 0 or 1 mod 3 and 0, 1 or 2 mod 4; a scan to Nagell's bound
    # would pass _SCAN_CAP for each of these
    for a in (10 ** 18 + 1, -(10 ** 18) - 1, 2 ** 70 + 3):
        assert represent_norm_form(a) is None, a
    assert main(["gap", "--pair", "tri", "--a", str(10 ** 18 + 1), "--x", "511"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["branch"] == BRANCH_GENERIC and data["n"] == 543


def test_non_representable_shift_past_the_old_scan_cap(capsys):
    # the m^2 <= 14 |a| scan needed m up to 10583006 > _SCAN_CAP here
    a = 8 * 10 ** 12
    assert represent_norm_form(a) is None
    assert main(["gap", "--pair", "tri", "--a", str(a), "--x", "511"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["branch"] == BRANCH_GENERIC and data["n"] == 513


def test_prime_rule_decides_shifts_past_the_scan_cap(capsys):
    # each passes both congruences, and Nagell's bound would scan m past
    # _SCAN_CAP; a prime 11 (mod 12) or +-5 (mod 12) factor decides it instead:
    # 2 * 3 * 166666666666667 has sign -1, 10^18 + 2 holds 17 and
    # 52445056723 once, and -999999999999999 holds 31, 41 and 271 once
    for a in (10 ** 15 + 2, 10 ** 18 + 2, -(10 ** 15) + 1):
        assert represent_norm_form(a) is None, a
    assert main(["gap", "--pair", "tri", "--a", str(10 ** 15 + 2), "--x", str(10 ** 6)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["branch"] == BRANCH_GENERIC and data["n"] == 1000003


def test_least_root_matches_its_scan():
    for r in range(40):
        for y in (r * r - 1, r * r, r * r + 1):
            for c in (0, 1, 5, y - 1, y, y + 1, y + 7):
                if y < 0 or c < 0:
                    continue
                s = 0
                while s * s + c <= y:
                    s += 1
                assert gaps._least_root(y, c) == s, (y, c)


def test_represent_norm_form_scan_is_capped(monkeypatch, capsys):
    monkeypatch.setattr(gaps, "_SCAN_CAP", 1000)
    with pytest.raises(BudgetError):
        represent_norm_form(2 ** 70 + 2)
    with pytest.raises(BudgetError):  # a norm (16049939 * 249222131), least m 9112692
        represent_norm_form(4000000000000009)
    assert represent_norm_form(2 ** 70) == (2 ** 35, 0)
    assert main(["gap", "--pair", "tri", "--a", str(2 ** 70 + 2), "--x", "511"]) == 2
    assert capsys.readouterr().err.startswith("budget exceeded:")


def test_upsilon():
    assert upsilon(1) == Fraction(1, 2)
    assert upsilon(2) == Fraction(5, 8)
    assert upsilon(-2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        upsilon(0)


def test_gap_sq2_worked_examples():
    w = gap_square2_square2(3, 100)
    assert w.n == 101 and w.params["s"] == 10 and w.branch == BRANCH_SQ2_SQ2
    w = gap_square2_square2(1, 1)
    assert w.n == 4 and w.params["s"] == 2
    w = gap_square2_square2(-3, 100)
    assert w.n == 104


def test_gap_sq2_even_shift_scales():
    w = gap_square2_square2(12, 500)
    assert w.params["t"] == 2 and w.params["odd_shift"] == 3
    assert w.n % 4 == 0 and w.n > 500


def test_f_vd():
    assert f_vd(1, 0, 2) == 0
    assert f_vd(3, 0, 2) == 16
    with pytest.raises(ValueError):
        f_vd(2, 0, 2)  # 4 - 0 - 2 is even
    # always lands in the c^2 + 3 d^2 set
    from formgaps.repr_sets import TRIANGLE_STAR

    for v, d in ((1, 2), (3, 4), (5, 0)):
        assert is_member(TRIANGLE_STAR, f_vd(v, d, 2))


def test_gap_triangle_worked_examples():
    w = gap_triangle_square2(1, 10 ** 6)
    assert w.branch == BRANCH_REPRESENTABLE
    assert w.offset <= 2 * math.isqrt(10 ** 6) + 4
    st = _generic_state(2, 10 ** 6)
    assert st["Q"] == 26 and st["Qstar"] == 28
    w = gap_triangle_square2(2, 10 ** 6)
    assert w.branch == BRANCH_GENERIC
    assert w.params["l1"] == 1 and w.params["l2"] == 0 and w.params["Qstar"] == 28


def test_generic_q_minimality_and_vstar_sandwich():
    for a in (2, 5, 7, -4):
        for x in (10 ** 4, 10 ** 6, 10 ** 9):
            st = _generic_state(a, x)
            q = st["Q"]
            f4 = lambda d: (3 * d * d + a - 1) ** 2 + 12 * d * d
            assert f4(q) > 4 * x
            if q >= 2:
                assert f4(q - 2) <= 4 * x
            w = gap_triangle_square2(a, x)
            if w.branch == BRANCH_GENERIC and "vstar" in w.params:
                v, ws = w.params["vstar"], w.params["wstar"]
                assert v * v < 2 * ws <= (v + 2) * (v + 2)


def test_h_decreasing_on_window():
    for a in (2, 5, -4):
        qs = _generic_state(a, 10 ** 6)["Qstar"]
        f4 = [(y * y - 3 * qs * qs - a + 1) ** 2 + 12 * qs * qs for y in range(qs)]
        assert all(f4[i] > f4[i + 1] for i in range(len(f4) - 1))


def test_gap_triangle_small_x_scan_fallback():
    for a in (2, 5, -46):
        xm = x_min(a)
        assert xm >= 1
        for x in (1, 2, max(1, xm - 1)):
            w = gap_triangle_square2(a, x)
            assert w.n > x
            assert is_member(TRIANGLE, w.n) and is_member(SQUARE2, w.n + a)
    # no n below -a has n + a >= 0, so past x the scan starts at -a
    for a in (-438978909115, -(10 ** 18) - 1):
        w = gap_triangle_square2(a, 511)
        assert w.params == {"scan": True} and w.n >= -a
        assert is_member(TRIANGLE, w.n) and is_member(SQUARE2, w.n + a)


def test_gap_batch_reverification():
    rng = random.Random(99)
    for _ in range(300):
        a = rng.choice([v for v in range(-50, 51) if v])
        x = max(int(10 ** rng.uniform(0, 10)), 1)
        w1 = gap_square2_square2(a, x)
        assert w1.offset > 0
        assert is_member(SQUARE2, w1.n) and is_member(SQUARE2, w1.n + a)
        w2 = gap_triangle_square2(a, x)
        assert w2.offset > 0
        assert is_member(TRIANGLE, w2.n) and is_member(SQUARE2, w2.n + a)


def test_offsets_track_the_exponent():
    xs = [10 ** k for k in range(4, 11)]
    d1 = empirical_D(1, xs)
    d2 = empirical_D(2, xs)
    assert 0 < d1 < 10
    assert 0 < d2 < 60
    single = empirical_D(2, [10 ** 6])
    w = gap_triangle_square2(2, 10 ** 6)
    assert single == pytest.approx(w.offset / (10 ** 6) ** 0.625)
    # reruns are deterministic
    assert empirical_D(1, xs) == d1


def test_gap_witness_invariant():
    with pytest.raises(InvariantError):
        GapWitness(a=1, x=10, n=10, branch=BRANCH_SQ2_SQ2, params={})
    assert GapWitness(a=1, x=10, n=12, branch=BRANCH_SQ2_SQ2, params={}).offset == 2


def test_input_validation():
    with pytest.raises(ValueError):
        gap_square2_square2(0, 10)
    with pytest.raises(ValueError):
        gap_triangle_square2(1, 0)
    with pytest.raises(ValueError):
        empirical_D(1, [])


def _lift(x, y, t):
    # 2 (x^2 + y^2) = (x + y)^2 + (x - y)^2, t times
    for _ in range(t):
        x, y = x + y, x - y
    return x, y


def _certificate(w):
    """n and n + a as explicit form values built from the witness's params:
    ((c, d), (e, f)) with n = c^2 + k d^2 and n + a = e^2 + f^2, k = 1 for
    square2/square2 and 3 for triangle/square2 (c^2 + 3 d^2 is a triangle value)."""
    p, a = w.params, w.a
    if w.branch == BRANCH_SQ2_SQ2:
        s, t, odd = p["s"], p["t"], p["odd_shift"]
        assert odd % 2 == 1 and odd << t == a
        c = (odd - 1) // 2  # s^2 + c^2 + odd = s^2 + (c + 1)^2
        return _lift(s, c, t), _lift(s, c + 1, t)
    if w.branch == BRANCH_REPRESENTABLE:
        s, (n0, m0) = p["s"], p["norm_rep"]
        assert n0 * n0 - 3 * m0 * m0 == a
        return (s, m0), (s, n0)
    v, q = p["vstar"], p["Qstar"]
    num = v * v - 3 * q * q - a + 1
    assert num % 2 == 0
    c = num // 2
    return (c, q), (c - 1, v)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=60),
    sign=st.sampled_from((1, -1)),
    x=st.integers(min_value=1, max_value=10 ** 40),
    pair=st.sampled_from(("sq2", "tri")),
)
@example(a=2, sign=1, x=10 ** 30, pair="tri")
@example(a=10, sign=-1, x=10 ** 23, pair="sq2")
@example(a=46, sign=-1, x=3, pair="tri")  # below x_min: the forward scan
def test_gap_witnesses_carry_certificates(a, sign, x, pair):
    a *= sign
    if pair == "sq2":
        w, k = gap_square2_square2(a, x), 1
    else:
        w, k = gap_triangle_square2(a, x), 3
    assert w.n > x and w.offset == w.n - x
    assert w.offset <= 100 * x ** float(upsilon(a)) + 10 ** 4
    if "scan" not in w.params:
        (c, d), (e, f) = _certificate(w)
        assert w.n == c * c + k * d * d and w.n + w.a == e * e + f * f
    if w.n + w.a <= 2 ** 63:
        assert is_member(SQUARE2 if k == 1 else TRIANGLE, w.n) and is_member(SQUARE2, w.n + w.a)


def test_verify_rejects_forged_witnesses():
    x = 10 ** 30
    for w in (gap_square2_square2(-12, x), gap_triangle_square2(13, x), gap_triangle_square2(2, x)):
        assert gaps._verify(w) is w
        forged = GapWitness(w.a, w.x, w.n + 1, w.branch, w.params)
        with pytest.raises(InvariantError):
            gaps._verify(forged)
        bumped = {k: v + 1 if k in ("s", "vstar") else v for k, v in w.params.items()}
        with pytest.raises(InvariantError):
            gaps._verify(GapWitness(w.a, w.x, w.n, w.branch, bumped))


def test_generic_state_and_vstar_match_their_scans():
    # Q and v* come from isqrt closed forms; these scans define them
    for a in range(-60, 61):
        if a == 0:
            continue
        for x in (1, 2, 50, 999, 10 ** 4 + 3, 10 ** 6, 10 ** 8 + 1):
            st_ = _generic_state(a, x)
            d = 0
            while _f0_times4(d, a) <= 4 * x:
                d += 2
            assert st_["Q"] == d, (a, x)
            w = gap_triangle_square2(a, x)
            if "vstar" in w.params:
                v, q, B = w.params["vstar"], w.params["Qstar"], st_["B"]
                assert v * v < B and f_vd(v, q, a) > x
                assert (v + 2) ** 2 >= B or f_vd(v + 2, q, a) <= x, (a, x)
