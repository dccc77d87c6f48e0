"""Representation counts and membership for quadratic-form value sets.

Sets handled, with their divisor-sum representation counts:

    square2        n = x^2 + y^2           r2(n) = 4 * F_chi4(n)
    triangle       n = x^2 + x*y + y^2     R2(n) = 6 * F_chi3(n)
    triangle_star  n = c^2 + 3*d^2         (equal to triangle as a set)
    diamond(D)     ideal-norm values of the quadratic field with
                   fundamental discriminant D; membership is F_chiD(n) > 0

Every set is a character set: n >= 1 lies in it iff F_psi(n) > 0 for psi =
member_character(s), which is chi4, chi3, chi3 and chiD in the order above,
and window membership (sieve_members) is read off characters.F_window.
is_member keeps independent routes as the oracle for the windows: exponent
parity at the primes where the character is -1 (p = 3 mod 4, resp. p = 2
mod 3), and for triangle_star a scan over d for a lattice point (c, d).
Enumeration modes of r2/R2 count lattice points directly and never touch the
divisor formulas, so the routes validate each other.

triangle_star and triangle are one set, with a^2 + ab + b^2 = c^2 + 3d^2 both
ways: c^2 + 3d^2 is the form at (a, b) = (c - d, 2d); and the form is invariant
under (a, b) -> (b, -a - b), whose orbit puts each of b, -a - b, a second, so
some point (a, b) of the orbit has b even and gives c = a + b/2, d = b/2.  The
lattice scan of is_member therefore checks the chi3 windows of triangle_star.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import _np as np
from .arith import MAX_INPUT, factorize
from .characters import F, F_window, chi3, chi4, kronecker_character
from .errors import BudgetError
from .util import chunk_ranges

ENUMERATE_MAX = 10 ** 12  # lattice enumeration loops over about sqrt(n) points

_SCAN_BLOCK = 1 << 14  # d values per step of the triangle_star membership scan


@dataclass(frozen=True)
class SetId:
    """Tag for a representable set; diamond carries its fundamental discriminant."""

    tag: str
    disc: int | None = None

    def __str__(self):
        return self.tag if self.disc is None else f"{self.tag}:{self.disc}"


SQUARE2 = SetId("square2")
TRIANGLE = SetId("triangle")
TRIANGLE_STAR = SetId("triangle_star")


def diamond(D: int) -> SetId:
    kronecker_character(D)  # validates the discriminant
    return SetId("diamond", D)


def parse_set(text: str) -> SetId:
    text = text.strip()
    if text == "square2":
        return SQUARE2
    if text == "triangle":
        return TRIANGLE
    if text == "triangle_star":
        return TRIANGLE_STAR
    if text.startswith("diamond:"):
        return diamond(int(text.split(":", 1)[1]))
    raise ValueError(f"unknown set: {text!r}")


def _r2_enumerate(n: int) -> int:
    # ordered signed pairs (x, y) with x^2 + y^2 = n
    s = math.isqrt(n)
    cnt = 0
    for x in range(-s, s + 1):
        y2 = n - x * x
        y = math.isqrt(y2)
        if y * y == y2:
            cnt += 1 if y == 0 else 2
    return cnt


def _R2_enumerate(n: int) -> int:
    # x^2 + x*y + y^2 >= (x^2 + y^2)/2 bounds the search box at sqrt(2n)
    cnt = 0
    for x in range(-math.isqrt(2 * n), math.isqrt(2 * n) + 1):
        disc = 4 * n - 3 * x * x
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for num in {-x + r, -x - r}:
            if num % 2 == 0:
                cnt += 1
    return cnt


def r2(n: int, mode: str = "formula") -> int:
    """Number of ordered signed representations of n as a sum of two squares."""
    if n < 1:
        raise ValueError("r2 requires n >= 1")
    if mode == "formula":
        return 4 * F(chi4(), n)
    if mode == "enumerate":
        if n > ENUMERATE_MAX:
            raise BudgetError(f"enumeration of n = {n} exceeds {ENUMERATE_MAX}")
        return _r2_enumerate(n)
    raise ValueError(f"unknown mode {mode!r}")


def R2(n: int, mode: str = "formula") -> int:
    """Number of ordered signed representations by x^2 + x*y + y^2."""
    if n < 1:
        raise ValueError("R2 requires n >= 1")
    if mode == "formula":
        return 6 * F(chi3(), n)
    if mode == "enumerate":
        if n > ENUMERATE_MAX:
            raise BudgetError(f"enumeration of n = {n} exceeds {ENUMERATE_MAX}")
        return _R2_enumerate(n)
    raise ValueError(f"unknown mode {mode!r}")


def ideal_count(n: int, D: int) -> int:
    """Number of ideals of norm n in the quadratic field of discriminant D."""
    if n < 1:
        raise ValueError("ideal_count requires n >= 1")
    return F(kronecker_character(D), n)


def _exponents_ok(n: int, bad_mod: int, bad_res: int) -> bool:
    return all(
        e % 2 == 0 for p, e in factorize(n).factors if p % bad_mod == bad_res
    )


def _triangle_star_member(n: int) -> bool:
    """A plain scan: is n - 3 d^2 a square for some 0 <= d <= sqrt(n / 3)?
    The d are taken _SCAN_BLOCK at a time; exact for n <= MAX_INPUT."""
    if n > MAX_INPUT:
        raise BudgetError(f"triangle_star membership requires n <= {MAX_INPUT}")
    top = math.isqrt(n // 3)
    for d0 in range(0, top + 1, _SCAN_BLOCK):
        d = np.arange(d0, min(d0 + _SCAN_BLOCK, top + 1), dtype=np.int64)
        r = n - 3 * d * d
        # the float root is within 1e-6 of sqrt(r), so it rounds to the root of
        # a square r; a c beyond isqrt(2^63) only wraps, never equals r
        c = np.rint(np.sqrt(r)).astype(np.int64)
        if np.any(c * c == r):
            return True
    return False


def is_member(s: SetId, n: int) -> bool:
    """Membership of n >= 0 in the set s (0 belongs to the three form sets)."""
    if n < 0:
        raise ValueError("is_member requires n >= 0")
    if n == 0:
        return s.tag != "diamond"
    if s.tag == "square2":
        return _exponents_ok(n, 4, 3)
    if s.tag == "triangle":
        return _exponents_ok(n, 3, 2)
    if s.tag == "triangle_star":
        return _triangle_star_member(n)
    if s.tag == "diamond":
        return F(kronecker_character(s.disc), n) > 0
    raise ValueError(f"unknown set {s}")


def member_character(s: SetId):
    """The character psi with n in s iff F_psi(n) > 0 for n >= 1: chi4 for
    square2, chi3 for triangle and triangle_star (one set), chiD for diamond(D)."""
    if s.tag == "square2":
        return chi4()
    if s.tag in ("triangle", "triangle_star"):
        return chi3()
    if s.tag == "diamond":
        return kronecker_character(s.disc)
    raise ValueError(f"unknown set {s}")


def sieve_members(s: SetId, lo: int, hi: int) -> np.ndarray:
    """Boolean mask over [lo, hi]: entry n - lo is True iff is_member(s, n).
    One buffer, filled chunk by chunk with F_window(member_character(s)) > 0."""
    if lo < 0 or hi < lo:
        raise ValueError("sieve_members requires 0 <= lo <= hi")
    chunks = chunk_ranges(max(lo, 1), hi)
    psi = member_character(s)
    out = np.empty(hi - lo + 1, dtype=bool)
    if lo == 0:
        out[0] = is_member(s, 0)
    for c_lo, c_hi in chunks:
        out[c_lo - lo : c_hi - lo + 1] = F_window(psi, c_lo, c_hi) > 0
    return out
