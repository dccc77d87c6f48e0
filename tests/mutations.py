"""Checked-in mutation checks for src/formgaps.

Each entry of MUTATIONS breaks one piece of src/ by an exact text edit and
names the tests that must catch it.  Run

    python tests/mutations.py

It copies src/ and tests/ to a temporary directory and first runs every named
test on the unchanged copy, where all must pass.  Then it applies one
mutation at a time, runs only that mutation's tests and requires a failure.
An old text that does not occur exactly once in its file is an error, so a
refactor has to carry its mutations along instead of dropping them.
SURVIVORS are mutations their tests are known to miss, each with the reason;
the runner requires that they still pass, so a survivor that gets caught has
to move to MUTATIONS.

The file name keeps the runner out of the tier-1 run, which collects only
test_*.py files.  Exit status: 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutation(NamedTuple):
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    what: str


MUTATIONS = [
    Mutation("src/formgaps/characters.py",
             "else 1 - e % 2 if v == -1 else 1",
             "else 1 if v == -1 else 1",
             ("tests/test_characters.py::test_F_examples",
              "tests/test_characters.py::test_F_window_matches_multiplicative_F[1]"),
             "_local_factor: the parity branch at psi(p) = -1 always gives 1"),
    Mutation("src/formgaps/characters.py",
             "math.prod(_local_factor(psi(p), e) for",
             "math.prod(_local_factor(psi(p), 1) for",
             ("tests/test_characters.py::test_F_sieve_matches_per_n",),
             "F: every prime factor is taken with exponent 1"),
    Mutation("src/formgaps/characters.py",
             "    np.not_equal(smooth, ramp, out=left)  # a prime q > B is left of n\n",
             "    left[:] = True\n",
             ("tests/test_characters.py::test_F_sieve_row",),
             "F_window: the leftover mask is dropped, so a smooth n takes 1 + psi(1)"),
    Mutation("src/formgaps/characters.py",
             "f[offset::pj] = saved[(offset - o2) // p2 :: pj // p2] * local(e)",
             "f[offset::pj] = f[offset::pj] * local(e)",
             ("tests/test_characters.py::test_F_sieve_matches_per_n",),
             "_strided_prime: level j rewrites from the live values, not the saved ones"),
    Mutation("src/formgaps/characters.py",
             "count = hi // run - below\n",
             "count = hi // run - below - 1\n",
             ("tests/test_characters.py::test_F_sieve_row",
              "tests/test_characters.py::test_F_window_sparse_runs[1000000000000-1000]"),
             "_walk: a sparse run drops each prime's last multiple"),
    Mutation("src/formgaps/characters.py",
             "            part[deep] **= ee\n",
             "",
             ("tests/test_characters.py::test_F_sieve_row",
              "tests/test_characters.py::test_F_window_sparse_runs[1000000000000-1000]"),
             "_sieve_segment: a sparse prime puts p, not p^e, into the smooth part of n"),
    Mutation("src/formgaps/local_densities.py",
             "Fraction(1 if j <= v + 1 else",
             "Fraction(1 if j <= v else",
             ("tests/test_local_densities.py::test_lambda_prime_power_matches_brute_small_grid",),
             "lambda_prime_power: j <= v for j <= v + 1 in the 2-adic closed form"),
    Mutation("src/formgaps/census.py",
             "_product_sum(psi, chi4(), a, x, threads, b=psi.modulus)",
             "_product_sum(psi, chi4(), a, x, threads)",
             ("tests/test_census.py::test_correlation_J_examples",),
             "correlation_J: the coprimality mask gcd(n, b) = 1 is dropped"),
    Mutation("src/formgaps/analytic_constants.py",
             "return [psi], product_character(chi4(), psi), factor",
             "return [psi], psi, factor",
             ("tests/test_analytic_constants.py::test_beta_closed_form_matches_euler_oracle",),
             "_beta_parts: L(2, psi) for L(2, chi4 psi)"),
    Mutation("src/formgaps/gaps.py",
             "pair = (c * c + 3 * q * q, (c - 1) ** 2 + v * v)",
             "pair = (n, n + a)",
             ("tests/test_gaps.py::test_verify_rejects_forged_witnesses",),
             "_verify: the GENERIC certificate accepts any n"),
    Mutation("src/formgaps/characters.py",
             "return c if c % 4 == 1 else 4 * c",
             "return c",
             ("tests/test_characters.py::test_character_oracle",),
             "_field_disc: the core c stands for 4c, so chi3 * chi4 takes (3/.) mod 12"),
    Mutation("src/formgaps/analytic_constants.py",
             "return chi.disc < 0",
             "return chi.disc > 0",
             ("tests/test_characters.py::test_character_oracle",),
             "_is_odd: the parity tests disc > 0"),
    Mutation("src/formgaps/characters.py",
             "return self.modulus == abs(self.disc)",
             "return self.modulus == self.disc",
             ("tests/test_characters.py::test_character_oracle",),
             "is_primitive: modulus == disc, so no odd character is primitive"),
    Mutation("src/formgaps/analytic_constants.py",
             "c, f = L_value_exact(two, 2)\n            v = float(c)",
             "c, f = L_value_exact(ones[-1], 2)\n            v = float(c)",
             ("tests/test_analytic_constants.py::test_muller_C_even_pairs_match_class_number_formula",),
             "_L_ratio: L(2, psi) for L(2, two) when two is even"),
    Mutation("src/formgaps/analytic_constants.py",
             "for ps in prime_blocks(3, P):",
             "for ps in prime_blocks(2, P):",
             ("tests/test_analytic_constants.py::test_beta_euler_counts_the_odd_primes",),
             "_modified_prime_product: p = 2 is counted among the Euler factors"),
    Mutation("src/formgaps/verify.py",
             "if budget > BUDGET_MAX:",
             "if budget > 1e300:",
             ("tests/test_cli.py::test_verify_budget_is_finite_and_capped",),
             "run_suite: the budget cap is lifted"),
    Mutation("src/formgaps/repr_sets.py",
             "        if n > ENUMERATE_MAX:\n"
             "            raise BudgetError(f\"enumeration of n = {n} exceeds {ENUMERATE_MAX}\")\n"
             "        return _lattice_count(n, b)",
             "        return _lattice_count(n, b)",
             ("tests/test_cli.py::test_enumerate_is_capped",),
             "_count: the enumeration cap of r2 and R2 is dropped"),
    Mutation("src/formgaps/repr_sets.py",
             "{SQUARE2: (chi4, 4, 0, (4, 3)), TRIANGLE: (chi3, 6, 1, (3, 2))}",
             "{SQUARE2: (chi4, 6, 0, (4, 3)), TRIANGLE: (chi3, 4, 1, (3, 2))}",
             ("tests/test_repr_sets.py::test_r2_examples",),
             "_FORMS: the unit counts of square2 and triangle are swapped"),
    Mutation("src/formgaps/repr_sets.py",
             "TRIANGLE: (chi3, 6, 1, (3, 2))}",
             "TRIANGLE: (chi3, 6, 1, (3, 1))}",
             ("tests/test_repr_sets.py::test_membership_matches_representation_counts",),
             "_FORMS: triangle's inert class reads (3, 1), so is_member tests p = 1 mod 3"),
    Mutation("src/formgaps/repr_sets.py",
             "_FORMS[TRIANGLE_STAR] = _FORMS[TRIANGLE]",
             "_FORMS[TRIANGLE_STAR] = _FORMS[SQUARE2]",
             ("tests/test_repr_sets.py::test_membership_examples",),
             "_FORMS: triangle_star reads square2's row, so 3 = 0 + 3 * 1 leaves it"),
    Mutation("src/formgaps/repr_sets.py",
             "cnt += 2 if r else 1",
             "cnt += 2",
             ("tests/test_repr_sets.py::test_r2_examples",),
             "_lattice_count: the one root y = -b*x / 2 of r = 0 is counted twice"),
    Mutation("src/formgaps/census.py",
             "terms[(-lo) % p :: p] = 0",
             "terms[lo % p :: p] = 0",
             ("tests/test_census.py::test_correlation_J_matches_direct_sum",),
             "_product_sum: the multiples of p | b are taken at offset lo % p"),
    Mutation("src/formgaps/local_densities.py",
             "below = lambda_prime_power(p, e - 1, a)",
             "below = lambda_prime_power(p, e, a)",
             ("tests/test_local_densities.py::test_lambda_bar_matches_divisor_sum",),
             "lambda_bar: lambda_a(p^e) in place of lambda_a(p^(e-1))"),
    Mutation("src/formgaps/local_densities.py",
             "    if not 0 <= total <= q * q:\n"
             "        raise InvariantError(f\"eta({a}, {q}) came out as {total}, outside [0, q^2]\")\n",
             "",
             ("tests/test_local_densities.py::test_eta_rejects_a_product_outside_its_range",),
             "eta: the range check [0, q^2] is dropped"),
    Mutation("src/formgaps/gaps.py",
             "ok = n + a >= 0 and is_member(TRIANGLE, n) and is_member(SQUARE2, n + a)",
             "ok = n + a >= 0 and is_member(SQUARE2, n) and is_member(TRIANGLE, n + a)",
             ("tests/test_gaps.py::test_gap_triangle_small_x_scan_fallback",),
             "_verify: TRIANGLE and SQUARE2 swapped in the scan certificate"),
    Mutation("src/formgaps/characters.py",
             "MODULUS_MAX = 10 ** 5",
             "MODULUS_MAX = 10 ** 30",
             ("tests/test_characters.py::test_user_named_moduli_are_capped",),
             "trivial_character, kronecker_character: the modulus cap is lifted"),
    Mutation("src/formgaps/local_densities.py",
             "v = nu(p, a) if a else j",
             "v = nu(p, a) if a else 0",
             ("tests/test_local_densities.py::test_eta_zero_shift_closed_form",),
             "lambda_prime_power: nu_p(0) read as 0 instead of infinite"),
    Mutation("src/formgaps/local_densities.py",
             "    if not is_prime(p):\n"
             "        raise ValueError(f\"{p} is not prime\")\n",
             "",
             ("tests/test_local_densities.py::test_lambda_prime_power_validation",),
             "lambda_prime_power: the prime check is dropped"),
    Mutation("src/formgaps/local_densities.py",
             "if a else q + chi * (q - 1)",
             "if a else q - chi",
             ("tests/test_local_densities.py::test_eta_table_matches_eta[0]",),
             "eta_table: the a = 0 leftover factor q + chi4(q) (q - 1) becomes q - chi4(q)"),
    Mutation("src/formgaps/analytic_constants.py",
             "elif all(_is_odd(chi) for chi in ones) and not _is_odd(two):",
             "elif False:",
             ("tests/test_analytic_constants.py::test_main_term_closed_form_chi6",),
             "_L_ratio: the closed form is dropped, so odd characters take the series"),
    Mutation("src/formgaps/analytic_constants.py",
             "cap = L_TERMS_MAX // k * k",
             "cap = L_TERMS_MAX",
             ("tests/test_analytic_constants.py::test_L_value_stops_at_a_whole_period",),
             "L_value: the term cap is not cut to a whole period of k"),
    Mutation("src/formgaps/analytic_constants.py",
             "    if not err <= eps:",
             "    if False:",
             ("tests/test_analytic_constants.py::test_closed_form_refuses_an_eps_below_its_rounding",),
             "_L_ratio: the eps contract check is dropped"),
    Mutation("src/formgaps/arith.py",
             "    if n > MAX_INPUT:\n"
             "        raise BudgetError(f\"is_prime requires n <= {MAX_INPUT}\")\n",
             "",
             ("tests/test_arith.py::test_the_ceiling_is_int64_max",),
             "is_prime: the ceiling check is dropped, so a strong pseudoprime past it passes"),
    Mutation("src/formgaps/util.py",
             "    if hi - lo + 1 > WINDOW_MAX:\n"
             "        raise BudgetError(f\"window of {hi - lo + 1} integers exceeds {WINDOW_MAX}\")\n",
             "",
             ("tests/test_util.py::test_chunk_ranges_holds_the_one_window_budget",),
             "chunk_ranges: the window budget is dropped"),
    Mutation("src/formgaps/characters.py",
             "if hi > MAX_INPUT:",
             "if hi > MAX_INPUT + 1:",
             ("tests/test_characters.py::test_F_refuses_past_the_ceiling",),
             "F_window: compares hi with MAX_INPUT + 1, so hi = 2^63 is sieved"),
    Mutation("src/formgaps/characters.py",
             "return D not in (0, 1) and _field_disc(D) == D",
             "return _field_disc(D) == D",
             ("tests/test_characters.py::test_fundamental_discriminants_match_the_mod_4_rule",),
             "is_fundamental_discriminant: 0 and 1 are no longer excluded"),
    Mutation("src/formgaps/cli.py",
             '    os.environ["OPENBLAS_NUM_THREADS"] = "1"\n',
             "",
             ("tests/test_cli.py::test_entry_keeps_blas_at_one_thread",),
             "entry: numpy's BLAS keeps its thread pool"),
    Mutation("src/formgaps/cli.py",
             "    gc.disable()\n",
             "",
             ("tests/test_cli.py::test_entry_keeps_blas_at_one_thread",),
             "entry: the cyclic garbage collector stays on"),
    Mutation("src/formgaps/cli.py",
             "os._exit drops no output.\n        sys.stdout.flush()\n",
             "os._exit drops no output.\n",
             ("tests/test_cli.py::test_console_entry_point",),
             "_write: stdout is not flushed, so entry's os._exit drops buffered output"),
    Mutation("src/formgaps/cli.py",
             "import gc\nimport math\n",
             "import gc\nimport json\nimport math\n",
             ("tests/test_cli.py::test_csv_forms_load_no_json_or_fractions",),
             "cli: json is imported at module level again"),
    Mutation("src/formgaps/cli.py",
             "        file.write(message)\n"
             "        file.flush()\n",
             "        try:\n"
             "            file.write(message)\n"
             "            file.flush()\n"
             "        except OSError:\n"
             "            pass\n",
             ("tests/test_cli.py::test_unwritable_stdout_is_a_usage_error",),
             "_Parser._print_message: an OSError of --help or --version is swallowed again"),
    Mutation("src/formgaps/util.py",
             "import os\n",
             "import os\nfrom concurrent.futures import ThreadPoolExecutor\n",
             ("tests/test_cli.py::test_one_chunk_windows_load_no_pool",),
             "util: the pool module is imported at module level again"),
    Mutation("src/formgaps/gaps.py",
             "else -a // 2) + 1",
             "else -a // 3) + 1",
             ("tests/test_gaps.py::test_represent_norm_form_reaches_nagells_bound",),
             "represent_norm_form: the scan stops short of Nagell's bound m^2 <= |a| / 2, a < 0"),
    Mutation("src/formgaps/gaps.py",
             "M = math.isqrt(a // 6 if a > 0",
             "M = math.isqrt(a // 7 if a > 0",
             ("tests/test_gaps.py::test_represent_norm_form_reaches_nagells_bound",),
             "represent_norm_form: the scan stops short of Nagell's bound m^2 <= a / 6, a > 0"),
    Mutation("src/formgaps/gaps.py",
             "if a % 3 == 2 or a % 4 == 3:",
             "if a % 3 == 1 or a % 4 == 3:",
             ("tests/test_gaps.py::test_represent_norm_form_examples",),
             "represent_norm_form: the mod 3 congruence excludes 1 instead of 2"),
    Mutation("src/formgaps/gaps.py",
             "    if a % 3 == 2 or a % 4 == 3:\n        return None\n",
             "",
             ("tests/test_gaps.py::test_congruences_decide_shifts_past_the_scan_cap",),
             "represent_norm_form: the congruence check is dropped, so huge |a| scan to the cap"),
    Mutation("src/formgaps/gaps.py",
             "if p < 5 or p % 12 == 11:",
             "if p < 5:",
             ("tests/test_gaps.py::test_represent_norm_form_against_exhaustive_oracle",),
             "_is_norm: s(p) = +1 for p = 11 mod 12, so -11 = 1 - 12 reads as no norm"),
    Mutation("src/formgaps/gaps.py",
             "        if p % 12 in (5, 7) and e % 2:\n            return False\n",
             "",
             ("tests/test_gaps.py::test_represent_norm_form_against_exhaustive_oracle",
              "tests/test_gaps.py::test_prime_rule_decides_shifts_past_the_scan_cap"),
             "_is_norm: a prime +-5 mod 12 to an odd power is let through to the scan"),
    Mutation("src/formgaps/gaps.py",
             "    if 0 < abs(a) <= MAX_INPUT and not _is_norm(a):\n        return None\n",
             "",
             ("tests/test_gaps.py::test_prime_rule_decides_shifts_past_the_scan_cap",),
             "represent_norm_form: the prime rule is skipped, so non-norms scan to the cap"),
    Mutation("src/formgaps/gaps.py",
             "lo = max(x + 1, -a)",
             "lo = x + 1",
             ("tests/test_gaps.py::test_gap_triangle_small_x_scan_fallback",),
             "_scan_forward: starts at x + 1 below -a, so a < -(x + _SCAN_CAP) exhausts the scan"),
    Mutation("src/formgaps/local_densities.py",
             "partial(_eta_prime_power, a, p)",
             "partial(_eta_prime_power, abs(a), p)",
             ("tests/test_local_densities.py::test_eta_table_matches_eta[-7]",),
             "eta_table: the prime-power factor of -a for a < 0"),
    Mutation("src/formgaps/analytic_constants.py",
             "factor * eta_star(psi, a), eps, pi_power=1)",
             "factor * eta_star(psi, a) * Fraction(103, 100), eps, pi_power=1)",
             ("tests/test_analytic_constants.py::test_main_term",),
             "main_term's factor biased by 3%: m drifts from beta * pi / 9 (criterion 08 alone, "
             "which asks only the decade maxima of |J / (m x) - 1| to shrink below 0.15, misses it)"),
    Mutation("src/formgaps/local_densities.py",
             "np.roll(counts[::-1], (a + 1) % q)",
             "np.roll(counts[::-1], a % q)",
             ("tests/test_local_densities.py::test_eta_brute_matches_pair_count_and_eta",),
             "eta_brute: the reversed counts are rolled by a instead of a + 1"),
    Mutation("src/formgaps/arith.py",
             "j = (-o) % p",
             "j = o % p",
             ("tests/test_arith.py::test_prime_blocks_past_the_cache_match_is_prime",),
             "_odd_primes: a segment marks from o % p, not from the first multiple of p"),
    Mutation("src/formgaps/arith.py",
             "prime[(j + p * (j % 2)) // 2 :: p] = False",
             "prime[j // 2 :: p] = False",
             ("tests/test_arith.py::test_prime_blocks_past_the_cache_match_is_prime",),
             "_odd_primes: the odd-only segment starts p at o + j even when j is odd"),
    Mutation("src/formgaps/arith.py",
             "_odd_primes(top + 1 | 1, end, cache[1:])",
             "_odd_primes(top | 1, end, cache[1:])",
             ("tests/test_arith.py::test_primes_cache_grows_in_any_order",),
             "primes: growth restarts at top | 1, so a prime limit of the cache is listed twice"),
    Mutation("src/formgaps/arith.py",
             "primes(math.isqrt(limit))[::-1].tolist()",
             "primes(math.isqrt(limit)).tolist()",
             ("tests/test_arith.py::test_spf_table_matches_a_plain_reference",),
             "spf_table: the smallest prime marks first, so a larger prime factor overwrites it"),
    Mutation("src/formgaps/analytic_constants.py",
             "if s <= 0 or n_max < 1000:",
             "if s <= 0:",
             ("tests/test_analytic_constants.py::test_G_series_refuses_fewer_terms_than_its_fit",),
             "G_series: the n_max guard is dropped, so the fit of K reduces an empty array"),
    Mutation("src/formgaps/characters.py",
             "    ok = sign(lo, hi)\n",
             "    ok = bytearray(b\"\\1\") * (hi - lo + 1)\n",
             ("tests/test_characters.py::test_F_positive_edge_windows",),
             "F_positive: the test psi(n') != -1 is dropped, so each segment starts from all ones"),
    Mutation("src/formgaps/characters.py",
             "enumerate(_multiples(s, lo, hi), 1)",
             "enumerate([], 1)",
             ("tests/test_characters.py::test_F_positive_edge_windows",),
             "F_positive: the primes of the modulus are not divided out, so psi(n) stands for psi(n')"),
    Mutation("src/formgaps/characters.py",
             "if psi(p) == -1]",
             "]",
             ("tests/test_characters.py::test_F_positive_edge_windows",),
             "F_positive: the inert filter of the bytes walk is dropped, so any prime's odd exponent "
             "clears n"),
    Mutation("src/formgaps/characters.py",
             "(b[table[b % k] == -1] for b in",
             "(b for b in",
             ("tests/test_characters.py::test_F_positive_edge_windows",),
             "F_positive: the inert filter of the numpy walk from 2^32 on is dropped"),
    Mutation("src/formgaps/characters.py",
             "[s for s, _, _ in psi.unit_parts if s > B]",
             "[]",
             ("tests/test_characters.py::test_F_window_edge_windows",),
             "F_window: the modulus primes above isqrt(hi) are not walked, so q can divide k"),
    Mutation("src/formgaps/characters.py",
             "    f[left] = 0  # ... or 0 where psi(q) = psi(n') = -1\n",
             "",
             ("tests/test_characters.py::test_F_sieve_row",),
             "F_window: the unit-sign zeroing is skipped, so an inert q > B doubles F"),
    Mutation("src/formgaps/characters.py",
             "neg[x * x % s] = 0",
             "neg[x * x * x % s] = 0",
             ("tests/test_characters.py::test_unit_parts_give_psi_of_the_unit_part",),
             "unit_parts: an odd part marks the non-cubes mod s, not the non-squares"),
    Mutation("src/formgaps/characters.py",
             '8: b"\\0\\0\\0\\1\\0\\1\\0\\0"',
             '8: b"\\0\\0\\0\\1\\0\\0\\0\\1"',
             ("tests/test_characters.py::test_unit_parts_give_psi_of_the_unit_part",),
             "unit_parts: the 2-part 8 marks 3 and 7 mod 8, not 3 and 5"),
    Mutation("src/formgaps/characters.py",
             "for t, other in negs.items() if t != s)",
             "for t, other in negs.items() if t not in (s, 2))",
             ("tests/test_characters.py::test_unit_parts_give_psi_of_the_unit_part",),
             "unit_parts: a flip leaves out the 2-part's value at s"),
    Mutation("src/formgaps/characters.py",
             "signs[::s] = bytes(len(range(0, k, s)))",
             "if self.disc % s == 0: signs[::s] = bytes(len(range(0, k, s)))",
             ("tests/test_characters.py::test_unit_parts_give_psi_of_the_unit_part",),
             "values: a prime of the modulus that disc lacks (chi6's 2) leaves its multiples unzeroed"),
    Mutation("src/formgaps/cli.py",
             "        record = {k: None if isinstance(v, float) and not math.isfinite(v) else v\n"
             "                  for k, v in {**record, **(extra or {})}.items()}\n",
             "        record = {**record, **(extra or {})}\n",
             ("tests/test_cli.py::test_output_forms",),
             "_render: a non-finite float reaches the strict JSON encoder"),
    Mutation("src/formgaps/characters.py",
             "= saved[(offset - o2) // p2 :: pj // p2]\n",
             "= ok[o2::p2][(offset - o2) // p2 :: pj // p2]\n",
             ("tests/test_characters.py::test_F_positive_edge_windows",),
             "_bytes_parity: the p^2 multiples are restored from the values p's first level has cleared"),
    Mutation("src/formgaps/characters.py",
             "saved = f[o2::p2].copy()",
             "saved = f[o2::p2]",
             ("tests/test_characters.py::test_F_sieve_matches_per_n",),
             "_strided_prime: the p^2 multiples are restored from a view p's own factor has cleared"),
    Mutation("src/formgaps/characters.py",
             "enumerate(_multiples(p, lo, hi), 1)",
             "enumerate(_multiples(p, lo, hi)[:1], 1)",
             ("tests/test_repr_sets.py::test_sieve_examples",),
             "_bytes_parity: the level-2 restore is dropped, so 9 = 3^2 leaves square2"),
    Mutation("src/formgaps/arith.py",
             'odd = bytearray(b"\\1") * half',
             'odd = bytearray(b"\\1") * (half // 2)',
             ("tests/test_arith.py::test_small_primes_are_every_prime_below_two_to_the_16",
              "tests/test_census.py::test_census_across_two_to_the_32"),
             "small_primes: the table is cut at 2^15"),
    Mutation("src/formgaps/characters.py",
             "for s, neg, flip in self.rest:",
             "for s, neg, flip in self.rest[:0]:",
             ("tests/test_characters.py::test_F_sieve_matches_per_n",
              "tests/test_characters.py::test_F_positive_edge_windows"),
             "_UnitSign: a second part of psi.unit_parts (chi6's 2) is never inverted in"),
    Mutation("src/formgaps/census.py",
             "if not shared or abs(a) > c_hi - c_lo or c_lo + min(a, 0) == 0:",
             "if not shared or abs(a) > c_hi - c_lo:",
             ("tests/test_census.py::test_census_shared_window_matches_separate[0-0-set12-set22]",
              "tests/test_census.py::test_census_reads_sieve_members"),
             "_shifted_windows: a chunk whose union holds 0 is shared, so diamond(-4) takes 0 from square2"),
    Mutation("src/formgaps/census.py",
             "max(x, -a), x + H, threads, members)",
             "max(x, -a) + 1, x + H, threads, members)",
             ("tests/test_census.py::test_census_reads_sieve_members",
              "tests/test_census.py::test_census_shared_window_matches_separate[0-0-set12-set22]"),
             "census_interval: the windows start past the first candidate max(x, -a)"),
    Mutation("src/formgaps/repr_sets.py",
             "mask.insert(0, is_member(s, 0))",
             "mask.insert(0, F_positive(psi, 1, 1)[0])",
             ("tests/test_repr_sets.py::test_sieve_examples",),
             "sieve_members: n = 0 is read off F_positive's side (at n = 1), so 0 joins every diamond"),
    Mutation("src/formgaps/characters.py",
             "segments = chunk_ranges(lo, hi, SEGMENT)",
             "segments = [(a, min(a + SEGMENT - 1, hi)) for a in range(lo, hi + 1, SEGMENT)]",
             ("tests/test_util.py::test_chunk_ranges_holds_the_one_window_budget",),
             "_segmented: the segments are cut by range, so F_window and F_positive skip the window budget"),
]

SURVIVORS: list[Mutation] = []


def run_tests(root: Path, tests) -> int:
    """pytest's exit status for the tests on the tree at root: 0 all passed, 1 some failed."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True,
    ).returncode


def main() -> int:
    every = MUTATIONS + SURVIVORS
    stale = [m for m in every if (ROOT / m.file).read_text().count(m.old) != 1]
    for m in stale:
        print(f"STALE {m.file}: the old text of '{m.what}' does not occur exactly once")
    if stale:
        return 1
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        code = run_tests(root, sorted({t for m in every for t in m.tests}))
        if code != 0:
            print(f"ERROR the named tests do not pass on the unchanged tree (pytest exit {code})")
            return 1
        for m in every:
            path = root / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                code = run_tests(root, m.tests)
            finally:
                path.write_text(original)
            want = 0 if m in SURVIVORS else 1
            verdict = {0: "survived", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            ok = code == want
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {verdict:<8} {time.perf_counter() - start:5.1f} s"
                  f"  {m.file}: {m.what}", flush=True)
    print(f"{len(every) - failed} of {len(every)} mutations behave as listed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
