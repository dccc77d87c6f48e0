"""The lattice points of c^2 + 3d^2 over a window, enumerated one row of d at a time.

triangle_star windows in the library are read off F_window(chi3); this
enumeration imports nothing from formgaps and shares no arithmetic with that
route, so tests compare the two.
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
