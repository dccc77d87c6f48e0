"""Answer checks for every command a workload runs, made outside the timed region.

``Checker.check(argv, stdout)`` returns "" for a correct answer, else the
reason it is wrong.  Each answer is compared with a route that does not share
the code path under test: the reference sieves and L-values of
``reference.py``, sympy factorizations, the library's own oracles
(``is_member`` by factorization parity, ``eta_brute``), or an arithmetic
certificate carried by the answer itself.  Floats must agree with the
reference within the error bound the command printed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np

import reference as ref

CENSUS_WITNESS_CAP = 10_000  # the CLI default, which the workloads keep
SAMPLED_MEMBERS = 4  # is_member spot checks per census, on each side
CORRELATE_J_EPS = 1e-6  # the CLI's default eps for the `j` main term
CORRELATE_GENERAL_EPS = 1e-8  # muller_main's default eps under `general`

def _name(spec: str) -> str:
    """The character name the CLI prints for a spec (kronecker:5 -> kronecker(5))."""
    return "kronecker({})".format(spec.split(":", 1)[1]) if ":" in spec else spec


def options(argv) -> dict:
    """`--flag value` pairs of a command line; bare flags map to True."""
    out, i = {}, 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def _close(value: float, want, bound: float) -> bool:
    # printed with 15 significant digits, so allow the last one to round
    return abs(value - float(want)) <= bound + 1e-14 * abs(float(want))


class Checker:
    def __init__(self):
        from formgaps import local_densities, repr_sets

        self.eta_brute = local_densities.eta_brute
        self.repr_sets = repr_sets
        self._F: dict[str, np.ndarray] = {}

    def check(self, argv, stdout: str) -> str:
        try:
            return getattr(self, "_" + argv[0])(options(argv), stdout)
        except (ValueError, KeyError, IndexError, json.JSONDecodeError) as e:
            return f"unparsable output: {type(e).__name__}: {e}"

    # ---------------------------------------------------------------- census

    def _census(self, o, out):
        lines = out.splitlines()
        if lines[0] != "set1,set2,a,x,H,count":
            return "bad header"
        s1, s2, a, x, H = o["set1"], o["set2"], int(o["a"]), int(o["x"]), int(o["len"])
        row = lines[1].split(",")
        if row[:5] != [s1, s2, str(a), str(x), str(H)]:
            return f"row does not echo the request: {lines[1]}"
        wits = [int(ln[2:]) for ln in lines[2:] if ln.startswith("W,")]
        count, want = ref.census(s1, s2, a, x, H, CENSUS_WITNESS_CAP)
        if int(row[5]) != count:
            return f"count {row[5]} != reference {count}"
        if wits != want:
            return "witness list differs from the reference"
        rng = random.Random(" ".join([s1, s2, str(a), str(x), str(H)]))
        p1, p2 = self.repr_sets.parse_set(s1), self.repr_sets.parse_set(s2)
        member = self.repr_sets.is_member
        for w in rng.sample(wits, min(SAMPLED_MEMBERS, len(wits))):
            if not (member(p1, w) and member(p2, w + a)):
                return f"witness {w} fails is_member"
        if wits:
            listed = set(wits)
            lo = max(x, -a)
            for n in (rng.randint(lo, wits[-1]) for _ in range(SAMPLED_MEMBERS)):
                if n not in listed and member(p1, n) and member(p2, n + a):
                    return f"{n} is a pair member but not listed"
        return ""

    # ------------------------------------------------------------- correlate

    def _F_upto(self, spec: str, X: int) -> np.ndarray:
        """Reference F over [0, X] (entry 0 is a pad), grown geometrically."""
        arr = self._F.get(spec)
        if arr is None or arr.size <= X:
            size = max(X, 0 if arr is None else 3 * arr.size // 2)
            arr = np.concatenate([[0], ref.F_windows([ref.character_table(spec)], 1, size)[0]])
            self._F[spec] = arr
        return arr

    def _correlate(self, o, out):
        lines = out.splitlines()
        if lines[0] != "psi,a,x,J,main,ratio":
            return "bad header"
        name, a_s, x_s, J_s, main_s, ratio_s = lines[1].split(",")
        a, x = int(o["a"]), int(o["x"])
        kind = o.get("kind", "j")
        if (a_s, x_s) != (str(a), str(x)):
            return "row does not echo the request"
        n = slice(max(1, 1 - a), x + 1)  # n runs over this slice, n + a over `shifted`
        shifted = slice(n.start + a, x + a + 1)
        if kind == "j":
            psi = o.get("psi", "chi6")
            b = len(ref.character_table(psi))
            coprime = np.gcd(np.arange(n.start, n.stop, dtype=np.int64), b) == 1
            J = int(np.dot(self._F_upto(psi, x)[n][coprime],
                           self._F_upto("chi4", x + a)[shifted][coprime]))
            want_name, main, eps = _name(psi), ref.main_term(self.eta_brute, psi, a), CORRELATE_J_EPS
        elif kind == "general":
            psi, rho = o.get("psi", "chi6"), o.get("rho", "chi4")
            J = int(np.dot(self._F_upto(psi, x)[n], self._F_upto(rho, x + a)[shifted]))
            want_name = f"{_name(psi)}*{_name(rho)}"
            main, eps = ref.muller_main(psi, rho, a), CORRELATE_GENERAL_EPS
        else:
            F4 = self._F_upto("chi4", x + max(a, 0))
            J = 16 * int(np.dot(F4[n], F4[shifted]))
            want_name, main, eps = "r2", None, 0.0
        if name != want_name:
            return f"name {name} != {want_name}"
        if int(J_s) != J:
            return f"J {J_s} != reference {J}"
        if main is None:
            return "" if main_s == ratio_s == "" else "estermann row carries a main term"
        if not _close(float(main_s), main, eps):
            return f"main {main_s} != reference {float(main):.15g} within {eps}"
        m = float(main_s)
        if m > 0:
            if not _close(float(ratio_s), J / (m * x), 0.0):
                return f"ratio {ratio_s} != J / (main x)"
        elif ratio_s != "nan":
            return f"ratio {ratio_s} for a zero main term"
        return ""

    # ---------------------------------------------------------------- scalar

    def _verify(self, o, out):
        lines = out.splitlines()
        if any(",FAIL" in ln for ln in lines):
            return "a verify suite failed"
        if not lines[-1].startswith(f"summary,{o['suite']},pass,"):
            return "missing pass summary"
        return ""

    def _constant(self, out, header: str, echo: list[str], want) -> str:
        lines = out.splitlines()
        cols = header.split(",")
        if lines[0] != header:
            return "bad header"
        row = lines[1].split(",")
        if row[: len(echo)] != echo:
            return f"row does not echo the request: {lines[1]}"
        value = float(row[cols.index("value")])
        bound = float(row[cols.index("error_bound")])
        if not _close(value, want, bound):
            return f"value {value!r} is not within {bound!r} of reference {float(want):.17g}"
        return ""

    def _beta(self, o, out):
        psi, a = o["psi"], int(o["a"])
        return self._constant(out, "psi,a,value,error_bound,terms", [_name(psi), str(a)],
                              ref.beta(self.eta_brute, psi, a))

    def _mainterm(self, o, out):
        psi, a = o["psi"], int(o["a"])
        return self._constant(out, "psi,a,value,error_bound", [_name(psi), str(a)],
                              ref.main_term(self.eta_brute, psi, a))

    def _muller(self, o, out):
        psi, rho, a = o["psi"], o["rho"], int(o["a"])
        return self._constant(out, "psi,rho,a,value,error_bound",
                              [_name(psi), _name(rho), str(a)], ref.muller_main(psi, rho, a))

    def _eta(self, o, out):
        a, q = int(o["a"]), int(o["q"])
        (p, j), = ref.factor(q).items()
        want = ref.lam(self.eta_brute, a, p, j) * q
        row = out.strip().split(",")
        if row[:2] != [str(a), str(q)]:
            return "row does not echo the request"
        if Fraction(row[2]) != want or Fraction(row[3]) != want / q:
            return f"eta {row[2]}, lambda {row[3]} != reference {want}, {want / q}"
        return ""

    def _lambda(self, o, out):
        a, n = int(o["a"]), int(o["bar"])
        lines = out.splitlines()
        if lines[0] != "a,n,lambda_bar,f":
            return "bad header"
        row = lines[1].split(",")
        want = ref.lambda_bar(self.eta_brute, a, n)
        if row != [str(a), str(n), str(want), str(n * want)]:
            return f"{lines[1]} != reference {want}"
        return ""

    def _repr(self, o, out):
        n = int(o["n"])
        want = (4 * ref.F_int(ref.CHARACTERS["chi4"], n) if o["fn"] == "r2"
                else 6 * ref.F_int(ref.CHARACTERS["chi3"], n))
        return "" if out.strip() == f"{n},{want}" else f"{out.strip()} != reference {want}"

    def _gap(self, o, out):
        w = json.loads(out)
        a, x = int(o["a"]), int(o["x"])
        n, p = w["n"], w["params"]
        if (w["a"], w["x"]) != (a, x) or n <= x or w["offset"] != n - x or n + a < 0:
            return "witness does not lie above x"
        if p.get("scan"):
            ok = (ref.in_triangle(n) if o["pair"] == "tri" else ref.in_square2(n)) \
                and ref.in_square2(n + a)
            return "" if ok else "scanned witness fails membership"
        return _gap_certificate(w["branch"], a, n, p)


def _gap_certificate(branch: str, a: int, n: int, p: dict) -> str:
    """Membership of n and n + a read off the construction's parameters."""
    if branch == "SQ2_SQ2":
        scale, odd, s = 1 << p["t"], p["odd_shift"], p["s"]
        if scale * odd != a or scale * p["base"] != n:
            return "SQ2_SQ2 parameters do not rebuild the witness"
        m = abs(odd)
        c = (m + 1) // 2 if odd < 0 else (m - 1) // 2
        c2 = c - 1 if odd < 0 else c + 1
        ok = p["base"] == s * s + c * c and p["base"] + odd == s * s + c2 * c2
        return "" if ok else "SQ2_SQ2 witness is not s^2 + c^2 with s^2 + (c +/- 1)^2 above"
    if branch == "REPRESENTABLE":
        s, (n0, m0) = p["s"], p["norm_rep"]
        ok = n0 * n0 - 3 * m0 * m0 == a and n == s * s + 3 * m0 * m0 and n + a == s * s + n0 * n0
        return "" if ok else "REPRESENTABLE witness fails its norm-form certificate"
    if branch == "GENERIC":
        v, Q = p["vstar"], p["Qstar"]
        num = v * v - 3 * Q * Q - a + 1
        if num % 2:
            return "GENERIC parity violated"
        c = num // 2
        ok = n == c * c + 3 * Q * Q and n + a == (c - 1) ** 2 + v * v
        return "" if ok else "GENERIC witness fails c^2 + 3 Q^2 / (c - 1)^2 + v^2"
    return f"unknown branch {branch}"
