"""Representation counts and membership for quadratic-form value sets.

One table, _FORMS, gives each form set its member character psi, the unit
count w of Z[i] or Z[omega], the b of its form x^2 + b*x*y + y^2 and the
residue class (m, r) of its inert primes, p = r (mod m):

    set            form               psi   w  b  inert
    square2        x^2 + y^2          chi4  4  0  (4, 3)  r2(n) = 4 * I_{-4}(n)
    triangle       x^2 + x*y + y^2    chi3  6  1  (3, 2)  R2(n) = 6 * I_{-3}(n)
    triangle_star  c^2 + 3*d^2        triangle's row (one set, see below)
    diamond(D)     ideal norms of the quadratic field of fundamental
                   discriminant D, with psi = chiD

I_D(n) = F_chiD(n) counts the ideals of norm n (ideal_count).  Every set is
a character set: n >= 1 lies in it iff F_psi(n) > 0 for psi =
member_character(s), and window membership (sieve_members, the one route of
census) is characters.F_positive, the sieve of that sign alone, as one 0/1
byte per n.  is_member
keeps an independent route as the oracle for the windows of the form sets:
exponent parity at the inert primes of the row, read off factorize.
Enumeration modes of r2/R2 count lattice points directly and never touch the
divisor formulas, so the routes validate each other.

triangle_star and triangle are one set, with a^2 + ab + b^2 = c^2 + 3d^2 both
ways: c^2 + 3d^2 is the form at (a, b) = (c - d, 2d); and the form is invariant
under (a, b) -> (b, -a - b), whose orbit puts each of b, -a - b, a second, so
some point (a, b) of the orbit has b even and gives c = a + b/2, d = b/2.  The
lattice scan over (c, d) that checks this is a test oracle
(tests/lattice_oracle.py) and a verify row, not a route of the library.
"""
from __future__ import annotations

import math

from .arith import factorize
from .characters import F, F_positive, chi3, chi4, kronecker_character, spec_int
from .errors import BudgetError
from .record import Record

ENUMERATE_MAX = 10 ** 12  # lattice enumeration loops over about sqrt(n) points


class SetId(Record):
    """Tag for a representable set; diamond carries its fundamental discriminant."""

    tag: str
    disc: int | None = None

    def __str__(self):
        return self.tag if self.disc is None else f"{self.tag}:{self.disc}"


SQUARE2 = SetId("square2")
TRIANGLE = SetId("triangle")
TRIANGLE_STAR = SetId("triangle_star")

_FORMS = {SQUARE2: (chi4, 4, 0, (4, 3)), TRIANGLE: (chi3, 6, 1, (3, 2))}
_FORMS[TRIANGLE_STAR] = _FORMS[TRIANGLE]  # one set, see the module docstring


def diamond(D: int) -> SetId:
    kronecker_character(D)  # validates the discriminant
    return SetId("diamond", D)


def parse_set(text: str) -> SetId:
    text = text.strip()
    for s in _FORMS:
        if text == s.tag:
            return s
    if text.startswith("diamond:"):
        return diamond(spec_int(text, "diamond:D"))
    raise ValueError(f"unknown set: {text!r}")


def _lattice_count(n: int, b: int) -> int:
    """Ordered signed pairs (x, y) with x^2 + b*x*y + y^2 = n, for b = 0 or 1:
    4n = (2y + b*x)^2 + (4 - b^2) x^2, so an x with r^2 = 4n - (4 - b^2) x^2 a
    square gives y = (-b*x +- r) / 2, one root if r = 0, else two; both are
    integers, as r^2 = (b*x)^2 mod 4 makes r = b*x mod 2."""
    isqrt, n4, k = math.isqrt, 4 * n, 4 - b * b
    s = isqrt(n4 // k)
    cnt = 0
    for x in range(-s, s + 1):
        disc = n4 - k * x * x
        r = isqrt(disc)
        if r * r == disc:
            cnt += 2 if r else 1
    return cnt


def _count(name: str, s: SetId, n: int, mode: str) -> int:
    """n's representation number by the form of _FORMS[s]: w * F_psi(n), or enumerated."""
    psi, w, b, _ = _FORMS[s]
    if n < 1:
        raise ValueError(f"{name} requires n >= 1")
    if mode == "formula":
        return w * F(psi(), n)
    if mode == "enumerate":
        if n > ENUMERATE_MAX:
            raise BudgetError(f"enumeration of n = {n} exceeds {ENUMERATE_MAX}")
        return _lattice_count(n, b)
    raise ValueError(f"unknown mode {mode!r}")


def r2(n: int, mode: str = "formula") -> int:
    """Number of ordered signed representations of n as a sum of two squares."""
    return _count("r2", SQUARE2, n, mode)


def R2(n: int, mode: str = "formula") -> int:
    """Number of ordered signed representations by x^2 + x*y + y^2."""
    return _count("R2", TRIANGLE, n, mode)


def ideal_count(n: int, D: int) -> int:
    """Number of ideals of norm n in the quadratic field of discriminant D."""
    if n < 1:
        raise ValueError("ideal_count requires n >= 1")
    return F(kronecker_character(D), n)


def _exponents_ok(n: int, bad_mod: int, bad_res: int) -> bool:
    return all(
        e % 2 == 0 for p, e in factorize(n).factors if p % bad_mod == bad_res
    )


def is_member(s: SetId, n: int) -> bool:
    """Membership of n >= 0 in the set s.  A form set holds 0 and every n >= 1
    whose primes p = r (mod m), for the inert class (m, r) of its _FORMS row,
    divide it to even powers; diamond(D) holds the n >= 1 with F_chiD(n) > 0."""
    if n < 0:
        raise ValueError("is_member requires n >= 0")
    if s in _FORMS:
        return n == 0 or _exponents_ok(n, *_FORMS[s][3])
    if s.tag == "diamond":
        return n > 0 and F(kronecker_character(s.disc), n) > 0
    raise ValueError(f"unknown set {s}")


def member_character(s: SetId):
    """The character psi with n in s iff F_psi(n) > 0 for n >= 1: the _FORMS
    character of square2, triangle and triangle_star, chiD for diamond(D)."""
    if s.tag == "diamond":
        return kronecker_character(s.disc)
    if s in _FORMS:
        return _FORMS[s][0]()
    raise ValueError(f"unknown set {s}")


def sieve_members(s: SetId, lo: int, hi: int) -> bytearray:
    """The mask over [lo, hi], one 0/1 byte per n: byte n - lo is 1 iff
    is_member(s, n).  F_positive(member_character(s), lo, hi) itself for
    lo >= 1; lo = 0 puts is_member(s, 0) in front of it as one byte."""
    if lo < 0 or hi < lo:
        raise ValueError("sieve_members requires 0 <= lo <= hi")
    psi = member_character(s)
    if lo:
        return F_positive(psi, lo, hi)
    mask = F_positive(psi, 1, hi) if hi else bytearray()
    mask.insert(0, is_member(s, 0))
    return mask
