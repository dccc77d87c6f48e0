"""Real Dirichlet characters in Kronecker form, and the divisor transform

    F_psi(n) = sum_{d | n} psi(d).

Every character here is real, so it is the Kronecker symbol (D/.) of a
discriminant D (1 for the principal ones) on the units mod a modulus k that
|D| divides: its conductor is |D| and its parity the sign of D.  Products and
primitive characters are arithmetic on (D, k).  Each character is derived
once, from the prime discriminants of D (`DirichletCharacter.unit_parts`), and
its values by residue are read off that derivation, giving O(1) lookups inside
sieve loops; moduli are small (3, 4, 5, 6, 12, |D| <= MODULUS_MAX).  psi is
completely multiplicative and periodic; it is extended to the reals by
psi(w) = 0 for non-integer w, which is what the square-root shortcut for F
relies on.  F itself is multiplicative, with per-prime geometric sums
sum_{i <= e} psi(p)^i at p^e || n: e + 1, the parity of e, or 1 for
psi(p) = 1, -1, 0 (`_local_factor`).

The sieves walk the primes p <= B = isqrt(hi) of a window once, with one of
two products.  F_window (`_walk`) multiplies exactly the local factors above,
and the p-part of n into its smooth part; it also walks the primes of the
modulus above B (factor 1), so what it leaves of n is prime to the modulus.
`_strided_prime` takes the local factor as a function of e, so
local_densities.eta_table sieves through it too.  F_positive sieves the sign
alone.  After the primes up to B, what is left of n is 1 or one prime q > B.
If every inert p <= B (psi(p) = -1) has an even exponent in n, the split
primes and those even powers have psi = 1, so psi(n') = psi(q), or 1 when
there is no q, for n' = n without the primes of the modulus.  Both kernels
read q by this one rule, with psi(n') from the tables of
`DirichletCharacter.unit_parts` (`_UnitSign`).  Hence

    F_psi(n) > 0  iff  every inert p <= B has an even exponent in n
                       and psi(n') != -1,

and F_positive starts each segment from psi(n') != -1 and walks the inert
primes alone, with no smooth part, while F_window, where q is left (the
smooth part is not n), multiplies its product by 1 + psi(q): 2, or 0 where
psi(n') = -1.  Neither divides.  F_positive's mask is a bytearray, one 0/1
byte per n, and its parity levels are the slice assignments of
`_bytes_parity` at every height; hi alone picks where the inert p <= B come
from.  Below 2^32 they lie below 2^16, in the numpy-free arith.small_primes;
from 2^32 on, `_walk` over numpy prime blocks hands over the dense ones and
clears odd exponents of the sparse ones through an np.frombuffer view of the
bytes.  `_UnitSign` builds psi(n') != -1 as bytes for both kernels.  F
evaluates a single n from its factorization; the divisor sum is kept only in
the tests, as an oracle.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial
from bisect import bisect_right
from itertools import chain

from . import _np as np
from .arith import MAX_INPUT, SMALL_PRIME_LIMIT, divisors, factorize, prime_blocks, small_primes
from .errors import BudgetError
from .record import Record
from .util import chunk_ranges

F_SIEVE_MAX = 150_000_000  # materialized-array guard; windows go further

DENSE_HITS = 128  # primes with at least this many multiples in a window take strided passes

PAIR_BLOCK = 1 << 16  # most (prime, multiple) pairs in a sparse run: bounds memory, amortizes numpy calls

SEGMENT = 1 << 18  # F_window sieves this many integers at a time

MODULUS_MAX = 10 ** 5  # trivial:K and kronecker:D, whose value tables have K or |D| entries

BYTES_WALK_MAX = SMALL_PRIME_LIMIT ** 2 - 1  # F_positive walks windows up to here over bytes: 2^32 - 1


# The residues r mod |D_2| with (D_2 / r) = -1, for each 2-part D_2 of a
# fundamental discriminant: 3 mod 4, then 3 and 5 mod 8, then 5 and 7 mod 8.
_TWO_PARTS = {-4: b"\0\0\0\1", 8: b"\0\0\0\1\0\1\0\0", -8: b"\0\0\0\0\0\1\0\1"}

_SIGN = bytes.maketrans(b"\0\1", b"\1\xff")  # a part's 0/1 to the signed byte 1/-1

_NOT = bytes.maketrans(b"\0\1", b"\1\0")


class DirichletCharacter(Record):
    """The real character r -> (disc/r) on the units mod `modulus`, 0 off them.

    Every real Dirichlet character is a Kronecker symbol (disc/.) times a
    principal character (Davenport, Multiplicative Number Theory, ch. 5):
    disc is 1 or a fundamental discriminant, |disc| divides the modulus and is
    the conductor, and the character is odd exactly when disc < 0.  disc is
    the product of its prime discriminants, and `unit_parts` derives the
    character from them; values and table are read off those parts.  Each of
    the three is built once, on first use.
    """

    name: str
    disc: int
    modulus: int

    def __call__(self, n: int):
        return self.values[n % self.modulus]

    @cached_property
    def values(self) -> tuple:
        """values[r] = psi(r) for r mod k, as the ints -1, 0, 1: the product of
        the parts' factors on the units, 0 at the multiples of a prime of k."""
        k = self.modulus
        neg = 0  # byte r is 1 where an odd number of parts are -1 at r
        for _, part, _ in self.unit_parts:
            neg ^= int.from_bytes(part * (k // len(part)), "little")
        signs = bytearray(neg.to_bytes(k, "little").translate(_SIGN))
        for s, _, _ in self.unit_parts:
            signs[::s] = bytes(len(range(0, k, s)))
        return tuple(memoryview(signs).cast("b").tolist())

    @cached_property
    def table(self) -> np.ndarray:
        """values as a read-only int32 array, for lookups at arrays of residues."""
        table = np.array(self.values, dtype=np.int32)
        table.flags.writeable = False
        return table

    @property
    def is_trivial(self) -> bool:
        return self.disc == 1

    @property
    def is_primitive(self) -> bool:
        return self.modulus == abs(self.disc)

    @cached_property
    def unit_parts(self) -> tuple:
        """(s, neg, flip) for each prime s of the modulus k: the character
        derived from the prime discriminants D_s of disc D.

        D = prod_{s | k} D_s, with D_s = 1 for s not dividing D, and (D_s/.) has
        period |D_s| and no zero off s, so for n = s^{v_s(n)} n_s

            psi(n) = prod_{s | k} (D_s / n) on the units,
            psi(n') = prod_{s | k} (D_s / n_s) * ((D / D_s) / s)^{v_s(n)}

        for n' = n without the primes of k.  neg holds one byte per r mod |D_s|,
        1 where (D_s/r) = -1 and 0 elsewhere: 1 on the non-squares mod an odd s
        dividing D, since (D_s/r) is the Legendre symbol (r/s); a row of
        _TWO_PARTS for s = 2; b"\0" for s not dividing D.  flip says
        ((D / D_s) / s) = -1, the product of the other parts' values at s, where
        s is a unit.
        """
        D = self.disc
        odd = {s: s if s % 4 == 1 else -s for s, _ in factorize(abs(D)).factors if s > 2}
        negs = {}
        for s, _ in factorize(self.modulus).factors:
            if s in odd:
                neg = bytearray(b"\1") * s
                for x in range((s + 1) // 2):
                    neg[x * x % s] = 0
                negs[s] = bytes(neg)
            elif s == 2 and D % 2 == 0:
                negs[s] = _TWO_PARTS[D // math.prod(odd.values())]
            else:
                negs[s] = b"\0"
        return tuple((s, neg, sum(other[s % len(other)] for t, other in negs.items() if t != s) % 2 == 1)
                     for s, neg in negs.items())


@lru_cache(maxsize=None)
def chi4() -> DirichletCharacter:
    """The primitive character mod 4: (1, 0, -1, 0) on residues (1, 2, 3, 0)."""
    return DirichletCharacter("chi4", -4, 4)


@lru_cache(maxsize=None)
def chi3() -> DirichletCharacter:
    """The non-trivial character mod 3."""
    return DirichletCharacter("chi3", -3, 3)


@lru_cache(maxsize=None)
def chi6() -> DirichletCharacter:
    """The non-trivial real character mod 6: +1 at 1, -1 at 5."""
    return DirichletCharacter("chi6", -3, 6)


@lru_cache(maxsize=None)
def trivial_character(k: int) -> DirichletCharacter:
    """The principal character mod k (identically 1 when k = 1)."""
    if k < 1:
        raise ValueError("modulus must be >= 1")
    if k > MODULUS_MAX:
        raise BudgetError(f"modulus {k} exceeds {MODULUS_MAX}")
    return DirichletCharacter(f"trivial({k})", 1, k)


@lru_cache(maxsize=None)
def kronecker_character(D: int) -> DirichletCharacter:
    """The quadratic character r -> (D/r) for a fundamental discriminant D."""
    if abs(D) > MODULUS_MAX:
        raise BudgetError(f"|D| = {abs(D)} exceeds {MODULUS_MAX}")
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    return DirichletCharacter(f"kronecker({D})", D, abs(D))


def _field_disc(n: int) -> int:
    """The discriminant of Q(sqrt(n)) for n != 0 (1 for a square): the
    squarefree core c of n, times 4 unless c = 1 mod 4."""
    c = math.prod(p for p, e in factorize(abs(n)).factors if e % 2) * (1 if n > 0 else -1)
    return c if c % 4 == 1 else 4 * c


def is_fundamental_discriminant(D: int) -> bool:
    """Discriminant of a quadratic field: D other than 0 and 1 that is the
    field discriminant of Q(sqrt(D))."""
    return D not in (0, 1) and _field_disc(D) == D


def product_character(psi: DirichletCharacter, rho: DirichletCharacter) -> DirichletCharacter:
    """Pointwise product of two characters, as a character mod the lcm of their moduli:
    (D1/r)(D2/r) = (D1 D2/r) on the units, the symbol of the field discriminant of D1 D2."""
    k = math.lcm(psi.modulus, rho.modulus)
    return DirichletCharacter(f"{psi.name}*{rho.name}", _field_disc(psi.disc * rho.disc), k)


def primitive_character(psi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character mod the conductor |disc| of psi that induces psi."""
    if psi.is_primitive:
        return psi
    return DirichletCharacter(f"primitive({psi.name})", psi.disc, abs(psi.disc))


def spec_int(spec: str, form: str) -> int:
    """The integer after the colon of spec, whose form is `form`, such as
    kronecker:D; ValueError naming both when it is no integer."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"{spec!r} is not of the form {form}, "
                         f"{form.split(':')[1]} an integer") from None


def make_character(spec: str) -> DirichletCharacter:
    """Parse chi3 | chi4 | chi6 | trivial:K | kronecker:D, K and |D| <= MODULUS_MAX."""
    spec = spec.strip()
    if spec == "chi3":
        return chi3()
    if spec == "chi4":
        return chi4()
    if spec == "chi6":
        return chi6()
    if spec.startswith("trivial:"):
        return trivial_character(spec_int(spec, "trivial:K"))
    if spec.startswith("kronecker:"):
        return kronecker_character(spec_int(spec, "kronecker:D"))
    raise ValueError(f"unknown character spec: {spec!r}")


def _local_factor(v: int, e: int) -> int:
    """sum_{i <= e} v^i for v = psi(p) in {1, -1, 0}: e + 1, the parity of e, or 1."""
    return e + 1 if v == 1 else 1 - e % 2 if v == -1 else 1


def F(psi: DirichletCharacter, n: int):
    """F_psi(n) = sum of psi over the divisors of n, evaluated multiplicatively."""
    if n < 1:
        raise ValueError("F requires n >= 1")
    return math.prod(_local_factor(psi(p), e) for p, e in factorize(n).factors)


def sqrt_trick_F(psi: DirichletCharacter, n: int):
    """F_psi(n) from divisors below sqrt(n) only; valid when psi(n) = 1.

    Uses the pairing d <-> n/d, under which psi(n/d) = psi(d) when psi(n) = 1:
    F = 2 * sum over divisors d with d < sqrt(n) of psi(d), plus psi(sqrt(n)).
    """
    if n < 1 or psi(n) != 1:
        raise ValueError("sqrt_trick_F requires psi(n) = 1")
    total = 0
    for d in divisors(factorize(n)):
        if d * d >= n:
            break
        total += psi(d)
    r = math.isqrt(n)
    return 2 * total + (psi(r) if r * r == n else 0)


def _multiples(p: int, lo: int, hi: int) -> list:
    """(offset, p^j) for j = 1, 2, ... while the window [lo, hi] holds a
    multiple of p^j; entry offset of the window is its first one."""
    out, pj = [], p
    while pj <= hi:
        offset = (-lo) % pj
        if offset > hi - lo:
            break
        out.append((offset, pj))
        pj *= p
    return out


def _strided_prime(f, smooth, lo: int, hi: int, p: int, local) -> None:
    """Strided passes of the prime p, which has a multiple in the window [lo, hi].

    smooth takes the p-part of each n, and f the factor local(e) of p^e || n;
    local None means every factor is 1.  f on the multiples of p^2 is saved
    before p's factor goes in, so each level j rewrites its multiples of p^j
    from the saved values even where a lower level's factor is 0.
    """
    levels = _multiples(p, lo, hi)
    for offset, pj in levels:
        smooth[offset::pj] *= p
    if local is None:
        return
    if len(levels) > 1:
        o2, p2 = levels[1]
        saved = f[o2::p2].copy()
    f[levels[0][0] :: p] *= local(1)
    for e, (offset, pj) in enumerate(levels[1:], 2):
        f[offset::pj] = saved[(offset - o2) // p2 :: pj // p2] * local(e)


def _walk(blocks, lo: int, hi: int, dense, sparse) -> None:
    """Hand each prime of the increasing blocks to dense or to sparse for the
    segment [lo, hi].

    A prime with at least DENSE_HITS multiples in the segment goes to dense(p)
    alone, for strided passes; every later one goes to sparse(p, pos, e) in a
    run of primes with at most PAIR_BLOCK (prime, multiple) pairs, as arrays
    over the pairs: n = lo + pos is a multiple of p, and p^e || n.
    """
    width = hi - lo + 1
    for block in blocks:
        i = 0
        while i < block.size:
            p0 = block.item(i)
            span = width // p0 + 1  # the most multiples a prime >= p0 has in the segment
            if span > DENSE_HITS:
                dense(p0)
                i += 1
                continue
            run = block[i : i + max(1, PAIR_BLOCK // span)]
            i += run.size
            below = (lo - 1) // run
            count = hi // run - below
            keep = np.flatnonzero(count != 0)
            run, below, count = run[keep], below[keep], count[keep]
            p = np.repeat(run, count)
            m = np.repeat(below + 1 - (np.cumsum(count) - count), count) + np.arange(p.size)
            pos = p * m - lo
            e = np.ones(p.size, dtype=np.int8)
            live = np.flatnonzero(m % p == 0)
            while live.size:
                m[live] //= p[live]
                e[live] += 1
                live = live[m[live] % p[live] == 0]
            sparse(p, pos, e)


def _segmented(name: str, lo: int, hi: int, empty, setup):
    """A buffer over the closed window [lo, hi] (lo >= 1), written in the
    SEGMENT-wide parts [a, b] of util.chunk_ranges, so the strided passes stay
    in cache: out = empty(hi - lo + 1), and fill(i, a, b) writes out[i :]
    for i = a - lo, fill = setup(out, width), width the widest part;
    BudgetError past MAX_INPUT or WINDOW_MAX, before any allocation."""
    if lo < 1 or hi < lo:
        raise ValueError("window must satisfy 1 <= lo <= hi")
    if hi > MAX_INPUT:
        raise BudgetError(f"{name} requires hi <= {MAX_INPUT}")
    segments = chunk_ranges(lo, hi, SEGMENT)
    out = empty(hi - lo + 1)
    fill = setup(out, min(SEGMENT, hi - lo + 1))
    for a, b in segments:
        fill(a - lo, a, b)
    return out


def F_window(psi: DirichletCharacter, lo: int, hi: int) -> np.ndarray:
    """F_psi on the closed window [lo, hi] (lo >= 1), as an int32 array.

    A segmented multiplicative sieve: F_psi(n) is the product over p^e || n of
    sum_{i <= e} psi(p)^i.  Each segment walks the primes p <= B = isqrt(hi)
    of arith.prime_blocks and the primes of the modulus above B, whose factor
    is 1, once (`_walk`): each puts its local factor into the output and its
    p-part into the smooth part of n, a sparse run unbuffered, since two primes
    can divide one n.  Where the smooth part is not n, one prime q > B prime to
    the modulus is left, and its factor 1 + psi(q) is read by the module's one
    rule: 2, or 0 where psi(n') = -1 (`_UnitSign`).  The work arrays are made
    once per call.  Memory is O(width + SEGMENT + PAIR_BLOCK) plus the bounded
    prime cache for hi <= MAX_INPUT and width <= util.WINDOW_MAX (BudgetError
    past either).
    |F_psi(n)| <= tau(n) < 2^31 for n < 2^63; widen before multiplying two
    windows.
    """

    def setup(out, width):
        dtype = np.int32 if hi < 1 << 31 else np.int64  # smooth parts and n - lo are <= hi
        work = np.empty(width, dtype=dtype), np.arange(width, dtype=dtype), np.empty(width, dtype=bool)
        return partial(_sieve_segment, out, psi=psi, sign=_UnitSign(psi, width), work=work)

    return _segmented("F_window", lo, hi, partial(np.empty, dtype=psi.table.dtype), setup)


def _sieve_segment(out: np.ndarray, i: int, lo: int, hi: int, psi, sign, work) -> None:
    """Write F_psi(n) for n in [lo, hi] into out[i :], given psi's unit sign;
    work holds the smooth part, the ramp 0, 1, 2, ... and a mask, each a
    segment wide."""
    values, table, k = psi.values, psi.table, psi.modulus
    f = out[i : i + hi - lo + 1]
    smooth, ramp, left = (w[: f.size] for w in work)
    f[:] = 1
    smooth[:] = 1
    rules = {v: partial(_local_factor, v) for v in (1, -1)}  # psi(p) = 0 leaves f as it is

    def strided(p):
        _strided_prime(f, smooth, lo, hi, p, rules.get(values[p % k]))

    def pairs(p, pos, e):
        v = table[p % k]
        part, local = p.astype(smooth.dtype), 1 + v  # p^e and sum_{i <= e} v^i at e = 1
        deep = np.flatnonzero(e > 1)  # rare: multiples of p^2 among sparse pairs
        if deep.size:
            ee = e[deep]
            part[deep] **= ee
            local[deep] = [_local_factor(*ve) for ve in zip(v[deep].tolist(), ee.tolist())]
        np.multiply.at(smooth, pos, part)
        hit = np.flatnonzero(local != 1)
        np.multiply.at(f, pos[hit], local[hit])

    B = math.isqrt(hi)
    top = np.array([s for s, _, _ in psi.unit_parts if s > B], dtype=np.int64)
    _walk(chain(prime_blocks(2, B), [top]), lo, hi, strided, pairs)
    smooth -= lo  # n - lo where nothing is left of n
    np.not_equal(smooth, ramp, out=left)  # a prime q > B is left of n
    f <<= left  # its factor 1 + psi(q) is 2 ...
    left &= ~np.frombuffer(sign(lo, hi), dtype=bool)
    f[left] = 0  # ... or 0 where psi(q) = psi(n') = -1


def F_positive(psi: DirichletCharacter, lo: int, hi: int) -> bytearray:
    """The mask F_psi(n) > 0 on the closed window [lo, hi] (lo >= 1), one 0/1
    byte per n; the contract of F_window, without the values.

    Each segment starts from psi(n') != -1 for n' = n without the primes of
    the modulus (`_UnitSign`), and an odd exponent of an inert p <= isqrt(hi)
    clears n (the criterion in the module docstring), by the bytearray slice
    assignments of `_bytes_parity` at every height.  The height alone picks
    where the inert primes come from: below 2^32, where they all lie below
    2^16, arith.small_primes, so no numpy is loaded; from 2^32 on, F_window's
    `_walk` over numpy prime blocks (`_numpy_parity`).
    """
    if hi <= BYTES_WALK_MAX:
        small = small_primes()
        inert = [p for p in small[: bisect_right(small, math.isqrt(hi))] if psi(p) == -1]
        walk = partial(_bytes_parity, inert=inert)
    else:
        walk = partial(_numpy_parity, psi=psi)

    def setup(out, width):
        return partial(_member_segment, out, sign=_UnitSign(psi, width), walk=walk)

    return _segmented("F_positive", lo, hi, bytearray, setup)


def _member_segment(out: bytearray, i: int, lo: int, hi: int, sign, walk) -> None:
    """Write F_psi(n) > 0 for n in [lo, hi] into out[i :]."""
    ok = sign(lo, hi)
    walk(ok, lo, hi)
    out[i : i + len(ok)] = ok


def _bytes_parity(ok: bytearray, lo: int, hi: int, inert) -> None:
    """Clear ok[n - lo] where an inert prime has an odd exponent in n, by
    bytearray slice assignments, each of which keeps len(ok): `_numpy_parity`
    holds a numpy view of its buffer.  Level j of p writes its multiples of
    p^j, with 0 for odd j and with ok as it was before p (saved at the
    multiples of p^2) for even j."""
    w = len(ok)
    for p in inert:
        o, p2 = -lo % p, p * p
        o2 = -lo % p2
        if o2 >= w:  # no multiple of p^2: the one level clears
            ok[o::p] = bytearray((w - 1 - o) // p + 1)
            continue
        saved = ok[o2::p2]
        for e, (offset, pj) in enumerate(_multiples(p, lo, hi), 1):
            if e % 2:
                ok[offset::pj] = bytearray((w - 1 - offset) // pj + 1)
            else:
                ok[offset::pj] = saved[(offset - o2) // p2 :: pj // p2]


def _numpy_parity(ok: bytearray, lo: int, hi: int, psi) -> None:
    """`_bytes_parity` for the inert primes of numpy prime blocks, by
    F_window's `_walk`: dense ones go to `_bytes_parity`, sparse ones clear
    odd exponents in batched runs through an np.frombuffer view of ok."""
    table, k = psi.table, psi.modulus
    f = np.frombuffer(ok, dtype=np.int8)

    def pairs(p, pos, e):
        f[pos[e % 2 == 1]] = 0  # an assignment: repeated positions are harmless

    inert = (b[table[b % k] == -1] for b in prime_blocks(2, math.isqrt(hi)))
    _walk(inert, lo, hi, lambda p: _bytes_parity(ok, lo, hi, (p,)), pairs)


class _UnitSign:
    """psi(n') != -1 as bytes over segments up to width wide, 1 where
    psi(n') = 1, for n' = n without the primes of the modulus.  psi(n') is
    the product of the factors of psi.unit_parts, and only the parts whose
    factor can be -1 count.  The one with the longest period is written: its
    neg, complemented, is tiled once to cover width + |D_s| entries.  Each
    other part inverts the bytes where its factor is -1 (`_invert`), so no
    two masks are ever joined.  A call returns a new bytearray.
    """

    def __init__(self, psi: DirichletCharacter, width: int):
        parts = sorted((part for part in psi.unit_parts if part[2] or 1 in part[1]),
                       key=lambda part: len(part[1]), reverse=True)
        self.first, self.rest = None, parts[1:]
        if parts:
            s, neg, flip = parts[0]
            copies = width // len(neg) + 2
            self.first = s, len(neg), flip, bytearray(neg.translate(_NOT) * copies), bytearray(neg * copies)

    def __call__(self, lo: int, hi: int) -> bytearray:
        """psi(n') != -1 over [lo, hi]: level j of s rewrites its multiples of
        s^j with (D_s / (n / s^j)) and flip^j, so each n keeps the level of its
        own v_s(n)."""
        w = hi - lo + 1
        if self.first is None:
            return bytearray(b"\1") * w
        s, size, flip, pos, neg = self.first
        ok = pos[lo % size : lo % size + w]
        for j, (offset, sj) in enumerate(_multiples(s, lo, hi), 1):
            start = (lo + offset) // sj % size
            ok[offset::sj] = (neg if flip and j % 2 else pos)[start : start + len(range(offset, w, sj))]
        for s, neg, flip in self.rest:
            _invert(ok, 0, 1, lo, neg, False)
            for offset, sj in _multiples(s, lo, hi):
                _invert(ok, offset, sj, (lo + offset) // sj, neg, flip)
        return ok


def _invert(ok: bytearray, offset: int, step: int, q: int, neg: bytes, flip: bool) -> None:
    """Invert ok[offset + i * step] where neg[(q + i) % len(neg)] != flip, one
    residue class of i at a time.

    A part of psi.unit_parts is neg at n % |D_s| on the n prime to s and 0 on
    the multiples of s; past them, its factor at a multiple of s^j differs
    from its factor at level j - 1, which is flip^(j-1), where
    neg[(n / s^j) % |D_s|] != flip."""
    size = len(neg)
    for c in range(size):
        if neg[c] != flip:
            first = offset + (c - q) % size * step
            ok[first :: step * size] = ok[first :: step * size].translate(_NOT)


def F_sieve(psi: DirichletCharacter, x: int) -> np.ndarray:
    """Array a with a[n] = F_psi(n) for n = 1..x <= F_SIEVE_MAX (a[0] is a zero
    pad): one buffer, filled chunk by chunk from F_window."""
    if x < 1:
        raise ValueError("F_sieve requires x >= 1")
    if x > F_SIEVE_MAX:
        raise BudgetError(f"F_sieve of length {x} exceeds the budget of {F_SIEVE_MAX}")
    out = np.zeros(x + 1, dtype=psi.table.dtype)
    for lo, hi in chunk_ranges(1, x):
        out[lo : hi + 1] = F_window(psi, lo, hi)
    return out
