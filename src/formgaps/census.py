"""Exact shifted correlation sums and interval censuses.

For two representable sets W1, W2 and a shift a, the census counts

    S(W1, W2, a) = { n : n in W1, n + a in W2 }

inside a window [x, x+H] (H + 1 integers, n + a >= 0), read off the masks of
repr_sets.sieve_members.  Below 2^32 (characters.BYTES_WALK_MAX) their
bytes, read as two ints, are intersected by one `&`, counted by
int.bit_count and listed by itertools.compress, so such a census loads no
numpy.  From 2^32 on the masks come from numpy walks, and numpy intersects
them too, several times faster than the int conversions.  The count is
always exact, only the recorded witness list is capped.

The correlation sums are the exact integers

    J(x)        = sum_{n <= x, gcd(n, b) = 1} F_psi(n) * F_chi4(n + a)
    general     = sum_{n <= x} F_psi(n) * F_rho(n + a)
    two-squares = sum_{n <= x} r2(n) * r2(n + a)        (= 16 * general chi4,chi4)

summed over n >= max(1, 1 - a) so that n + a stays >= 1, from
characters.F_window.  Census and sums are one shifted product over a window,
of the membership masks or of the values F, and both run through one kernel,
_shifted_windows, over the two window functions each passes.  A window is
bounded by its width (util.WINDOW_MAX), never by its height.

The ratio r = J(x) / (m x) to the main term coefficient m (the `correlate`
command prints it) trends toward 1; that is the empirical face of the
asymptotic, since the error term's logarithmic factors dwarf any reachable x
and make absolute-error checks vacuous.  The error J(x) - m*x changes sign as
x grows, so r is not monotone in x: |r - 1| can sit near a zero crossing at
one x and be larger at a later one.  A trend toward 1 is read from the maximum
of |r - 1| over a range of x (for instance each decade), never from a
comparison of two single points.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, compress, count, islice

from . import _np as np
from .arith import factorize
from .characters import BYTES_WALK_MAX, DirichletCharacter, F_window, chi4
from .record import Record
from .repr_sets import SetId, member_character, sieve_members
from .util import chunk_ranges, map_ordered

WITNESS_CAP_DEFAULT = 10_000


class CensusRecord(Record):
    """One interval census; count is exact, witnesses may be truncated."""

    set1: SetId
    set2: SetId
    a: int
    x: int
    H: int
    count: int
    witnesses: tuple[int, ...]


def _shifted_windows(left, right, shared, a: int, lo: int, hi: int, threads: int, reduce) -> list:
    """reduce(c_lo, left(c_lo, c_hi), right(c_lo + a, c_hi + a)) for each chunk
    [c_lo, c_hi] of [lo, hi], in order (lo >= 0 and lo + a >= 0).

    When shared (left and right agree on every n >= 1) and the two ranges of a
    chunk overlap, both sides are slices of one left window over their union,
    unless that union holds 0.
    """

    def one(c):
        c_lo, c_hi = c
        if not shared or abs(a) > c_hi - c_lo or c_lo + min(a, 0) == 0:
            return reduce(c_lo, left(c_lo, c_hi), right(c_lo + a, c_hi + a))
        both, w, i, j = left(c_lo + min(a, 0), c_hi + max(a, 0)), c_hi - c_lo + 1, max(-a, 0), max(a, 0)
        return reduce(c_lo, both[i : i + w], both[j : j + w])

    return map_ordered(one, chunk_ranges(lo, hi), threads)


def _product_sum(psi, rho, a: int, x: int, threads: int, b: int = 1) -> int:
    """Exact sum over max(1, 1 - a) <= n <= x, gcd(n, b) = 1, of F_psi(n) F_rho(n + a)."""
    primes = [p for p, _ in factorize(b).factors]  # gcd(n, b) = 1 iff no p | b divides n

    def product(lo, left, right):
        # F_window counts are int32; widen before the product
        terms = np.multiply(left, right, dtype=np.int64)
        for p in primes:
            terms[(-lo) % p :: p] = 0  # entry i is n = lo + i
        return int(terms.sum())

    shared = (psi.disc, psi.modulus) == (rho.disc, rho.modulus)
    left, right = partial(F_window, psi), partial(F_window, rho)
    return sum(_shifted_windows(left, right, shared, a, max(1, 1 - a), x, threads, product))


def correlation_J(psi: DirichletCharacter, a: int, x: int, threads: int = 1) -> int:
    """Exact J(x) = sum over n <= x, gcd(n, b) = 1 of F_psi(n) F_chi4(n + a)."""
    if a == 0:
        raise ValueError("correlation_J requires a != 0")
    return _product_sum(psi, chi4(), a, x, threads, b=psi.modulus)


def correlation_general(
    psi: DirichletCharacter, rho: DirichletCharacter, a: int, x: int, threads: int = 1
) -> int:
    """Exact sum over n <= x of F_psi(n) F_rho(n + a), for a >= 1."""
    if a < 1:
        raise ValueError("correlation_general requires a >= 1")
    return _product_sum(psi, rho, a, x, threads)


def estermann_correlation(a: int, x: int, threads: int = 1) -> int:
    """Exact sum over n <= x of r2(n) r2(n + a) = 16 * sum F_chi4(n) F_chi4(n + a).

    For a >= 1 its linear coefficient is 16 * muller_main(chi4, chi4, a)
    (Estermann 1932); at x = 1e6 the ratio of the sum to 16 * muller_main * x
    is 1 to within 5e-4 for a = 1, 2, 5.
    """
    if a == 0:
        raise ValueError("estermann_correlation requires a != 0")
    return 16 * _product_sum(chi4(), chi4(), a, x, threads)


def census_interval(
    set1: SetId,
    set2: SetId,
    a: int,
    x: int,
    H: int,
    witness_cap: int | None = WITNESS_CAP_DEFAULT,
    threads: int = 1,
) -> CensusRecord:
    """Exact census of S(set1, set2, a) on [x, x+H] through _shifted_windows.

    Both sides are repr_sets.sieve_members windows from the first candidate
    max(x, -a) on, so n + a >= 0 (membership of negative integers is undefined
    here); sets of one member character share a window except where it holds 0.
    The witness list stops at witness_cap >= 0 entries, or holds every
    witness for None; the count is never capped.
    """
    if x < 0 or H < 0:
        raise ValueError("census_interval requires x >= 0 and H >= 0")
    if witness_cap is not None and witness_cap < 0:
        raise ValueError("census_interval requires witness_cap >= 0 or None")
    psi1, psi2 = member_character(set1), member_character(set2)
    shared = (psi1.disc, psi1.modulus) == (psi2.disc, psi2.modulus)

    def members(lo, left, right):
        if x + H + max(a, 0) > BYTES_WALK_MAX:
            found = np.flatnonzero(np.frombuffer(left, dtype=bool) & np.frombuffer(right, dtype=bool))
            return found.size, (lo + found[:witness_cap]).tolist()
        both = int.from_bytes(left, "little") & int.from_bytes(right, "little")
        flags = both.to_bytes(len(left), "little") if witness_cap != 0 else b""
        return both.bit_count(), list(islice(compress(count(lo), flags), witness_cap))

    left, right = partial(sieve_members, set1), partial(sieve_members, set2)
    parts = _shifted_windows(left, right, shared, a, max(x, -a), x + H, threads, members)
    wits = islice(chain.from_iterable(found for _, found in parts), witness_cap)
    return CensusRecord(set1, set2, a, x, H, sum(k for k, _ in parts), tuple(wits))
