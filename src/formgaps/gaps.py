"""Explicit gap witnesses for shifted pairs of quadratic-form values.

square2/square2 pairs (exponent 1/2).  For odd a of either sign and any s,

    (s^2 + ((a-1)/2)^2) + a = s^2 + ((a+1)/2)^2,

so the least s pushing the left side past x gives a witness within O(sqrt x).
Even shifts reduce to the odd case: scaling a witness for the odd part a' by
2^t multiplies both members by 2^t (sums of two squares are closed under
products).

triangle/square2 pairs.  Write D* = {c^2 + 3 d^2}, a subset of the x^2+xy+y^2
values.  If a = n0^2 - 3 m0^2 is represented by the norm form, then for every
s the pair (s^2 + 3 m0^2, s^2 + n0^2) works and the offset is O(sqrt x)
(exponent 1/2).  Whether it is represented is decided by the primes of a:
Z[sqrt 3] has class number 1 and its fundamental unit 2 + sqrt 3 has norm +1,
so a != 0 is a norm iff every prime p = +-5 (mod 12) divides a to an even
power and sign(a) = prod s(p)^v_p(a), where s(p) is the sign of the norm of a
prime element over p: -1 for p = 2, 3 (sqrt 3 - 1, sqrt 3) and p = 11 (mod 12),
+1 for p = 1 (mod 12).  A norm's least solution is found by a finite scan:
Nagell's bound on u^2 - D v^2 = N (Introduction to Number Theory, 1951,
Thms. 108 and 108a), with D = 3, puts a solution in every class at
m^2 <= a / 6 when a > 0 and at m^2 <= |a| / 2 when a < 0; past 2^63 - 1,
where factorize stops, the scan decides alone.  Otherwise the parametric family

    f(v, d) = c^2 + 3 d^2,  f(v, d) + a = (c - 1)^2 + v^2,  c = (v^2 - 3 d^2 - a + 1) / 2

(valid whenever v^2 - 3 d^2 - a is odd, arranged by taking d even and v = l1
(mod 2), l1 = 1 - a mod 2) yields a witness just above x as follows.  Let Q
be the least even d with f(0, d) > x and Q* = Q + 2.  Along the slice
h(y) = f(y, Q*), which decreases on [0, Q*), the crossing h(y) = x happens at
y = sqrt(2 w*) where, with B = 3 Q*^2 + a - 1 and E = f(0, Q*) - x,

    w* = (B - sqrt(B^2 - 4E)) / 2,      B^2 - 4E = 4 (x - 3 Q*^2).

Taking v* the largest integer = l1 (mod 2) below sqrt(2 w*) gives
n = f(v*, Q*) > x with n - x = O(x^(5/8)), since |h'| = O(x^(5/8)) and
sqrt(2 w*) - v* <= 2.  The selection "v*^2 < 2 w*" is done in exact integer
arithmetic ((B - v*^2)^2 > 4 (x - 3 Q*^2)), which is literally the statement
f(v*, Q*) > x, so the constructed witness can never land at or below x.

Every witness is checked by its certificate before it is returned: n and n + a
are rebuilt in integers from the branch's parameters by the identities above,
so the check holds at any height.  Only the small-x forward scan has none; its
witnesses are checked through `is_member`, which factorizes.
"""

from __future__ import annotations

import math

from .arith import MAX_INPUT, factorize
from .errors import BudgetError, InvariantError
from .record import Record
from .repr_sets import SQUARE2, TRIANGLE, is_member

BRANCH_SQ2_SQ2 = "SQ2_SQ2"
BRANCH_REPRESENTABLE = "REPRESENTABLE"
BRANCH_GENERIC = "GENERIC"

_SCAN_CAP = 10_000_000


class GapWitness(Record):
    """A constructed element n of the target shifted pair set, just above x."""

    a: int
    x: int
    n: int
    branch: str
    params: dict

    def __post_init__(self):
        if self.n <= self.x:
            raise InvariantError("witness must lie strictly above x")

    @property
    def offset(self) -> int:
        return self.n - self.x


def _verify(w: GapWitness) -> GapWitness:
    """w, once n and n + a are the form values the branch's params build by the
    identities of the module docstring (scan witnesses go through is_member);
    else InvariantError."""
    n, a, p = w.n, w.a, w.params
    if "scan" in p:
        ok = n + a >= 0 and is_member(TRIANGLE, n) and is_member(SQUARE2, n + a)
    else:
        if w.branch == BRANCH_SQ2_SQ2:
            s, t, o = p["s"], p["t"], p["odd_shift"]
            pair = ((s * s + ((o - 1) // 2) ** 2) << t, (s * s + ((o + 1) // 2) ** 2) << t)
        elif w.branch == BRANCH_REPRESENTABLE:
            s, (n0, m0) = p["s"], p["norm_rep"]
            pair = (s * s + 3 * m0 * m0, s * s + n0 * n0)
        else:
            v, q = p["vstar"], p["Qstar"]
            c = (v * v - 3 * q * q - a + 1) // 2
            pair = (c * c + 3 * q * q, (c - 1) ** 2 + v * v)
        ok = (n, n + a) == pair
    if not ok:
        raise InvariantError(f"witness {n} fails its certificate")
    return w


def _least_root(y: int, c: int) -> int:
    """The least s >= 0 with s^2 + c > y."""
    return math.isqrt(y - c) + 1 if y >= c else 0


def represent_norm_form(a: int) -> tuple[int, int] | None:
    """A solution (n, m) of n^2 - 3 m^2 = a, or None.

    n^2 - 3 m^2 is n^2 mod 3 and n^2 + m^2 mod 4, so a = 2 (mod 3) and
    a = 3 (mod 4) are None at once, and the prime rule (module docstring)
    decides the rest for 0 < |a| <= MAX_INPUT.  A norm, or any a past
    MAX_INPUT, is scanned over m upward to Nagell's bound, which returns the
    solution with the least m; the scan stops after _SCAN_CAP values of m,
    and past it, with no solution found, raises BudgetError.
    """
    if a % 3 == 2 or a % 4 == 3:
        return None
    if 0 < abs(a) <= MAX_INPUT and not _is_norm(a):
        return None
    M = math.isqrt(a // 6 if a > 0 else -a // 2) + 1
    for m in range(0, min(M, _SCAN_CAP) + 1):
        t = a + 3 * m * m
        if t < 0:
            continue
        r = math.isqrt(t)
        if r * r == t:
            return (r, m)
    if M > _SCAN_CAP:
        raise BudgetError(f"norm-form scan for a = {a} needs m up to {M}, past {_SCAN_CAP}")
    return None


def _is_norm(a: int) -> bool:
    """Whether a != 0 is a norm n^2 - 3 m^2, by the prime rule of the module docstring."""
    sign = 1 if a > 0 else -1
    for p, e in factorize(abs(a)).factors:
        if p % 12 in (5, 7) and e % 2:
            return False
        if p < 5 or p % 12 == 11:
            sign *= (-1) ** e
    return sign == 1


def gap_square2_square2(a: int, x: int) -> GapWitness:
    """Least witness of the explicit family for the square2/square2 pair."""
    if a == 0 or x < 1:
        raise ValueError("gap_square2_square2 requires a != 0 and x >= 1")
    t = (a & -a).bit_length() - 1  # a = 2^t a_odd, for either sign of a
    a_odd = a >> t
    y = x >> t  # need base witness g > y, then 2^t g > x
    c_n = (a_odd - 1) // 2  # s^2 + c_n^2 + a_odd = s^2 + (c_n + 1)^2
    s = _least_root(y, c_n * c_n)
    g = s * s + c_n * c_n
    n = g << t
    return _verify(
        GapWitness(
            a=a, x=x, n=n, branch=BRANCH_SQ2_SQ2,
            params={"s": s, "t": t, "odd_shift": a_odd, "base": g,
                    "sqrt_ratio": (n - x) / math.sqrt(x)},
        )
    )


def f_vd(v: int, d: int, a: int) -> int:
    """f(v, d) = ((v^2 - 3 d^2 - a + 1)/2)^2 + 3 d^2, exact; parity enforced."""
    if a == 0:
        raise ValueError("f_vd requires a != 0")
    num = v * v - 3 * d * d - a + 1
    if num % 2:
        raise ValueError("parity violation: v^2 - 3 d^2 - a must be odd")
    return (num // 2) ** 2 + 3 * d * d


def _f0_times4(d: int, a: int) -> int:
    # 4 * f(0, d) as an exact integer, so Q(x) needs no rational arithmetic
    return (3 * d * d + a - 1) ** 2 + 12 * d * d


def _generic_state(a: int, x: int) -> dict:
    # d runs over even values and v = l1 (mod 2), so v^2 - 3 d^2 - a is odd
    l1 = 1 - a % 2
    # 4 f(0, d) = (3 d^2 + a + 1)^2 - 4a, so f(0, d) > x iff |3 d^2 + a + 1| > R
    # = isqrt(4 (x + a)); past d = 0 that first holds once 3 d^2 > R - a - 1
    R = math.isqrt(4 * (x + a)) if x + a >= 0 else -1
    d = 0 if abs(a + 1) > R else math.isqrt((R - a - 1) // 3) + 1
    Q = d + d % 2
    Qstar = Q + 2
    B = 3 * Qstar * Qstar + a - 1
    return {"l1": l1, "Q": Q, "Qstar": Qstar, "B": B, "disc4": x - 3 * Qstar * Qstar}


def _side_conditions_hold(st: dict, a: int) -> bool:
    B, disc4, Qstar = st["B"], st["disc4"], st["Qstar"]
    if disc4 < 0:
        return False
    if 3 * Qstar * Qstar - a + 1 < 1:
        return False
    if B < Qstar * Qstar:  # h must decrease on [0, Q*)
        return False
    # sqrt(2 w*) >= 3, i.e. B - 2 sqrt(disc4) >= 9, in integers
    if B < 9 or (B - 9) ** 2 < 4 * disc4:
        return False
    return True


def _scan_forward(a: int, x: int) -> GapWitness:
    # guaranteed-correct fallback for small x: first member above x, and at or
    # above -a, where n + a >= 0 starts
    lo = max(x + 1, -a)
    for n in range(lo, lo + _SCAN_CAP):
        if is_member(TRIANGLE, n) and is_member(SQUARE2, n + a):
            return GapWitness(a=a, x=x, n=n, branch=BRANCH_GENERIC, params={"scan": True})
    raise InvariantError("forward scan exhausted its cap")  # pragma: no cover


def gap_triangle_square2(a: int, x: int) -> GapWitness:
    """A witness of the triangle/square2 pair in (x, x + O(x^(1/2))] when a is
    a norm-form value n^2 - 3 m^2, else in (x, x + O(x^(5/8))].

    Representable shifts take the norm-form branch with the least valid s;
    otherwise the generic construction runs whenever its side conditions hold
    at this x, and a forward scan covers the small-x regime below them.
    """
    if a == 0 or x < 1:
        raise ValueError("gap_triangle_square2 requires a != 0 and x >= 1")
    rep = represent_norm_form(a)
    if rep is not None:
        n0, m0 = rep
        s = _least_root(x, 3 * m0 * m0)
        n = s * s + 3 * m0 * m0
        return _verify(
            GapWitness(
                a=a, x=x, n=n, branch=BRANCH_REPRESENTABLE,
                params={"s": s, "norm_rep": [n0, m0], "sqrt_ratio": (n - x) / math.sqrt(x)},
            )
        )
    st = _generic_state(a, x)
    if not _side_conditions_hold(st, a):
        return _verify(_scan_forward(a, x))
    l1, Qstar, B, disc4 = st["l1"], st["Qstar"], st["B"], st["disc4"]
    # v must satisfy v^2 < 2 w*, i.e. (B - v^2)^2 > 4 disc4 with B - v^2 > 0, i.e.
    # v^2 <= B - isqrt(4 disc4) - 1; this is exactly f(v, Q*) > x, so the
    # selected witness (the largest such v = l1 mod 2) clears x by design.  The
    # side conditions give B - 9 >= isqrt(4 disc4), so top >= 8 and v >= 1.
    top = B - math.isqrt(4 * disc4) - 1
    v = math.isqrt(top)
    v -= (v - l1) % 2
    n = f_vd(v, Qstar, a)
    wstar = (B - 2.0 * math.sqrt(disc4)) / 2.0
    return _verify(
        GapWitness(
            a=a, x=x, n=n, branch=BRANCH_GENERIC,
            params={"l1": l1, "l2": 0, "Qstar": Qstar, "wstar": wstar, "vstar": v},
        )
    )

