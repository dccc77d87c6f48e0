"""Representation counts and membership for quadratic-form value sets.

Sets handled, with their divisor-sum representation counts:

    square2        n = x^2 + y^2           r2(n) = 4 * F_chi4(n)
    triangle       n = x^2 + x*y + y^2     R2(n) = 6 * F_chi3(n)
    triangle_star  n = c^2 + 3*d^2         (equal to triangle as a set)
    diamond(D)     ideal-norm values of the quadratic field with
                   fundamental discriminant D; membership is F_chiD(n) > 0

Window membership (sieve_members) of square2, triangle and diamond(D) is
F_psi(n) > 0 for psi = chi4, chi3, chiD, read off characters.F_window;
triangle_star windows enumerate the lattice points (c, d).  is_member keeps
independent routes as the oracle for the windows: exponent parity at the
primes where the character is -1 (p = 3 mod 4, resp. p = 2 mod 3), and a scan
over d.  Enumeration modes of r2/R2 count lattice points directly and never
touch the divisor formulas, so the routes validate each other.

triangle_star and triangle are one set, with a^2 + ab + b^2 = c^2 + 3d^2 both
ways: c^2 + 3d^2 is the form at (a, b) = (c - d, 2d); and the form is invariant
under (a, b) -> (b, -a - b), whose orbit puts each of b, -a - b, a second, so
some point (a, b) of the orbit has b even and gives c = a + b/2, d = b/2.  The
two keep separate routes, so each checks the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import factorize
from .characters import F, F_window, chi3, chi4, kronecker_character
from .errors import BudgetError
from .util import DEFAULT_CHUNK, chunk_ranges, key_blocks, map_ordered, pair_blocks

WINDOW_MAX = 1_000_000_000

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
        return _r2_enumerate(n)
    raise ValueError(f"unknown mode {mode!r}")


def R2(n: int, mode: str = "formula") -> int:
    """Number of ordered signed representations by x^2 + x*y + y^2."""
    if n < 1:
        raise ValueError("R2 requires n >= 1")
    if mode == "formula":
        return 6 * F(chi3(), n)
    if mode == "enumerate":
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
    The d are taken _SCAN_BLOCK at a time; exact for n < 2^63."""
    if n >= 1 << 63:
        raise ValueError("triangle_star membership requires n < 2^63")
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


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Exact floor square roots of int64 v >= 0: a float estimate, then +-1."""
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    return r - (r * r > v) + ((r + 1) * (r + 1) <= v)  # at most one term is 1


def _triangle_star_window(lo: int, hi: int) -> np.ndarray:
    out = np.zeros(hi - lo + 1, dtype=bool)

    def c_range(d):
        # c^2 in [lo - 3d^2, hi - 3d^2]; c_lo = ceil(sqrt(t)) = isqrt(t - 1) + 1 for t > 0
        base = 3 * d * d
        t = np.maximum(lo - base, 0)
        return _isqrt(np.maximum(t - 1, 0)) + (t > 0), _isqrt(hi - base)

    for d, c in pair_blocks(key_blocks(0, math.isqrt(hi // 3)), c_range):
        out[c * c + 3 * d * d - lo] = True
    return out


def member_character(s: SetId):
    """The character psi with n in s iff F_psi(n) > 0 for n >= 1, or None for
    triangle_star, whose windows enumerate lattice points instead."""
    if s.tag == "square2":
        return chi4()
    if s.tag == "triangle":
        return chi3()
    if s.tag == "diamond":
        return kronecker_character(s.disc)
    if s.tag == "triangle_star":
        return None
    raise ValueError(f"unknown set {s}")


def _member_window(s: SetId, lo: int, hi: int) -> np.ndarray:
    psi = member_character(s)
    if psi is None:
        return _triangle_star_window(lo, hi)
    out = np.zeros(hi - lo + 1, dtype=bool)
    out[0] = lo == 0 and s.tag != "diamond"
    if hi >= 1:
        out[max(lo, 1) - lo :] = F_window(psi, max(lo, 1), hi) > 0
    return out


def sieve_members(s: SetId, lo: int, hi: int, threads: int = 1) -> np.ndarray:
    """Boolean mask over [lo, hi]: entry n - lo is True iff is_member(s, n)."""
    if lo < 0 or hi < lo:
        raise ValueError("sieve_members requires 0 <= lo <= hi")
    if hi - lo + 1 > WINDOW_MAX:
        raise BudgetError(f"window of {hi - lo + 1} exceeds {WINDOW_MAX}")
    parts = map_ordered(
        lambda c: _member_window(s, c[0], c[1]), chunk_ranges(lo, hi, DEFAULT_CHUNK), threads
    )
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
