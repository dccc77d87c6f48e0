"""Real characters evaluated one residue at a time by the Kronecker symbol.

The library derives each character once from the prime discriminants of its
disc (characters.DirichletCharacter.unit_parts) and reads its values off that
derivation; this module computes the same values, parts and flips with one
general Jacobi/Kronecker symbol per residue.  It imports nothing from
formgaps, so tests compare the two.
"""

import math


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError("jacobi_symbol requires odd n >= 1")
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 0, with the usual rules at 2 and 0."""
    if n < 0:
        raise ValueError("kronecker_symbol here only takes n >= 0")
    if n == 0:
        return 1 if a in (1, -1) else 0
    e = (n & -n).bit_length() - 1
    odd = n >> e
    if e and a % 2 == 0:
        return 0
    s = 1
    if e % 2 == 1 and a % 8 in (3, 5):
        s = -1
    return s * jacobi_symbol(a, odd)


def _primes_of(n: int) -> list:
    """The primes dividing n >= 1, increasing, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def character_values(D: int, k: int) -> tuple:
    """(D/r) on the units r mod k, 0 off them: one symbol per residue."""
    return tuple(kronecker_symbol(D, r) if math.gcd(r, k) == 1 else 0 for r in range(k))


def unit_parts(D: int, k: int) -> tuple:
    """(s, neg, flip) for each prime s of k, one symbol per residue: D_s is the
    prime discriminant of D at s (1 when s does not divide D), neg the bytes
    of the r mod |D_s| with (D_s/r) = -1, and flip says ((D / D_s) / s) = -1."""
    odd = {p: p if p % 4 == 1 else -p for p in _primes_of(abs(D)) if p > 2}
    parts = []
    for s in _primes_of(k):
        Ds = odd.get(s, 1) if s > 2 else D // math.prod(odd.values())
        neg = bytes(kronecker_symbol(Ds, r) == -1 for r in range(abs(Ds)))
        parts.append((s, neg, kronecker_symbol(D // Ds, s) == -1))
    return tuple(parts)
