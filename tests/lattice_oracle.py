"""The lattice points of c^2 + 3d^2 over a window, enumerated one by one.

triangle_star windows in the library are read off F_window(chi3); this
enumeration shares no arithmetic with that route, so tests compare the two.
"""

import math

import numpy as np

from formgaps.util import pair_blocks


def isqrt(v: np.ndarray) -> np.ndarray:
    """Exact floor square roots of int64 v >= 0: a float estimate, then +-1."""
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    return r - (r * r > v) + ((r + 1) * (r + 1) <= v)  # at most one term is 1


def triangle_star_window(lo: int, hi: int) -> np.ndarray:
    """Mask over [lo, hi]: entry n - lo is True iff n = c^2 + 3d^2 for some c, d >= 0."""
    out = np.zeros(hi - lo + 1, dtype=bool)

    def c_range(d):
        # c^2 in [lo - 3d^2, hi - 3d^2]; c_lo = ceil(sqrt(t)) = isqrt(t - 1) + 1 for t > 0
        base = 3 * d * d
        t = np.maximum(lo - base, 0)
        return isqrt(np.maximum(t - 1, 0)) + (t > 0), isqrt(hi - base)

    keys = [np.arange(math.isqrt(hi // 3) + 1, dtype=np.int64)]
    for d, c in pair_blocks(keys, c_range):
        out[c * c + 3 * d * d - lo] = True
    return out
