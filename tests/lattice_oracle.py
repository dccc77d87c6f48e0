"""Lattice points of binary quadratic forms, enumerated one row at a time.

triangle_star windows in the library are read off F_positive(chi3), and ideal
counts are divisor sums F_chiD; these enumerations import nothing from
formgaps and share no arithmetic with those routes, so tests compare them.
"""

import math

import numpy as np


def triangle_star_window(lo: int, hi: int) -> np.ndarray:
    """Mask over [lo, hi]: entry n - lo is True iff n = c^2 + 3d^2 for some c, d >= 0."""
    out = np.zeros(hi - lo + 1, dtype=bool)
    for d in range(math.isqrt(hi // 3) + 1):
        base = 3 * d * d
        t = lo - base  # c^2 in [t, hi - base]; c_lo = ceil(sqrt(t)) = isqrt(t - 1) + 1 for t > 0
        c_lo = math.isqrt(t - 1) + 1 if t > 0 else 0
        c = np.arange(c_lo, math.isqrt(hi - base) + 1, dtype=np.int64)
        out[c * c + base - lo] = True
    return out


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """The reduced forms (a, b, c) of discriminant b^2 - 4ac = D < 0: |b| <= a <= c,
    and b >= 0 when |b| = a or a = c.  For a fundamental D every form is
    primitive, so there are h(D) of them, one per class."""
    forms = []
    for a in range(1, math.isqrt(-D // 3) + 1):  # a <= c gives 3a^2 <= |D|
        for b in range(-a + 1, a + 1):
            c, rest = divmod(b * b - D, 4 * a)
            if rest == 0 and c >= a and not (a == c and b < 0):
                forms.append((a, b, c))
    return forms


def form_counts(a: int, b: int, c: int, limit: int) -> np.ndarray:
    """Entry n is the number of (x, y) in Z^2 with a x^2 + b x y + c y^2 = n, for
    0 <= n <= limit and a positive definite form."""
    out = np.zeros(limit + 1, dtype=np.int64)
    k = 4 * a * c - b * b  # 4a f(x, y) = (2a x + b y)^2 + k y^2
    ymax = math.isqrt(4 * a * limit // k)
    for y in range(-ymax, ymax + 1):
        s = math.isqrt(4 * a * limit - k * y * y)  # |2a x + b y| <= s
        x = np.arange(-((s + b * y) // (2 * a)), (s - b * y) // (2 * a) + 1, dtype=np.int64)
        np.add.at(out, a * x * x + b * x * y + c * y * y, 1)
    return out
