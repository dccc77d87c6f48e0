"""Outside-in layer trace: timing wrappers around formgaps' public functions.

``install`` replaces every module attribute bound to a listed function
(including re-imports such as ``census.F_window`` or ``cli.census_interval``)
by a wrapper that records a span: name, parent span, start, end, whether it
raised, and a few work counters.  Spans stay in memory and are written out
when the traced command ends.  ``util.map_ordered`` hands its own span to
the worker threads, so chunk work has a parent.  ``Totals`` turns the spans
of many commands into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

# the public functions the trace wraps, by module
LAYERS = {
    "characters": ("F_window", "F_sieve", "F"),
    "repr_sets": ("sieve_members", "is_member", "r2", "R2"),
    "census": ("census_interval", "correlation_J", "correlation_general",
               "estermann_correlation"),
    "arith": ("factorize", "primes", "spf_table"),
    "local_densities": ("eta_brute", "eta", "eta_table", "lambda_prime_power"),
    "analytic_constants": ("L_value", "beta", "main_term", "muller_main"),
    "gaps": ("gap_square2_square2", "gap_triangle_square2"),
    "verify": ("run_suite",),
    "cli": ("main",),
}
MAP_ORDERED = "util.map_ordered"
ITEM = "util.map_ordered.item"


def _window_ints(args, kwargs, result):
    # F_window(psi, lo, hi) and sieve_members(s, lo, hi, ...)
    return {"ints": args[2] - args[1] + 1}


def _limit(args, kwargs, result):
    return {"limit": args[0] if args else kwargs["limit"]}


def _terms(args, kwargs, result):
    return {"terms": result.terms_used}


COUNTERS = {
    "characters.F_window": _window_ints,
    "repr_sets.sieve_members": _window_ints,
    "arith.primes": _limit,
    "analytic_constants.beta": _terms,
    "analytic_constants.L_value": _terms,
}


class MissingLayer(RuntimeError):
    """A function the trace must wrap is not defined by the program."""


class Recorder:
    """Spans as tuples (id, parent, name, start, end, failed, counters)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, parent: int | None = None, counters=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        failed, extra, t0 = True, None, time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            if counters is not None:
                extra = counters(args, kwargs, result)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, failed, extra))

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None


def _wrap(rec: Recorder, name: str, fn):
    counters = COUNTERS.get(name)

    def traced(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, counters=counters)

    return traced


def _wrap_map_ordered(rec: Recorder, fn):
    def map_ordered(work, items, threads=1):
        items = list(items)

        def body(work, items, threads):
            parent = rec.current()

            def item(it):
                return rec.call(ITEM, work, (it,), {}, parent=parent)

            return fn(item, items, threads)

        return rec.call(MAP_ORDERED, body, (work, items, threads), {},
                        counters=lambda a, k, r: {"items": len(items), "threads": threads})

    return map_ordered


def _rebind(original, replacement) -> None:
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("formgaps"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(rec: Recorder, layers: dict = LAYERS) -> None:
    """Wrap every listed function wherever formgaps binds it; raise MissingLayer
    if one is not there.  formgaps.cli must already be imported."""
    import importlib

    targets = []
    for module, names in layers.items():
        mod = importlib.import_module(f"formgaps.{module}")
        for fn in names:
            original = getattr(mod, fn, None)
            if not callable(original):
                raise MissingLayer(f"formgaps.{module}.{fn} is not defined")
            targets.append((f"{module}.{fn}", original))
    util = importlib.import_module("formgaps.util")
    original = getattr(util, "map_ordered", None)
    if not callable(original):
        raise MissingLayer("formgaps.util.map_ordered is not defined")
    for name, original_fn in targets:
        _rebind(original_fn, _wrap(rec, name, original_fn))
    _rebind(original, _wrap_map_ordered(rec, original))


# ------------------------------------------------------------------ analysis


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _, _ in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        out[sid] = (t1 - t0) - _union(kids)
    return out


def layer_names() -> list[str]:
    return [f"{m}.{fn}" for m, fns in LAYERS.items() for fn in fns]


class Totals:
    """Per-layer sums over the spans of many commands."""

    def __init__(self):
        self.calls = {n: 0 for n in layer_names()}
        self.self_s = {n: 0.0 for n in layer_names()}
        self.failed = {n: 0 for n in layer_names()}
        self.busy = {n: 0.0 for n in layer_names()}
        self.ints = {"characters.F_window": 0, "repr_sets.sieve_members": 0}
        self.primes_limit_max = 0
        self.terms = {"analytic_constants.beta": 0, "analytic_constants.L_value": 0}
        self.map_calls = self.map_items = 0
        self.map_self = self.map_busy = self.map_capacity = 0.0
        self.main_wall = self.main_covered = 0.0

    def add(self, spans) -> None:
        """Fold in the spans of one command.

        Chunk work (a map_ordered item) counts as self time of the layer that
        called map_ordered; map_ordered's own self time is pool overhead.
        """
        selfs = self_times(spans)
        by_id = {s[0]: s for s in spans}
        mains = {s[0] for s in spans if s[2] == "cli.main"}
        map_busy: dict[int, float] = {}
        main_kids: dict[int, list] = {}
        for sid, parent, name, t0, t1, failed, extra in spans:
            if parent in mains:
                main_kids.setdefault(parent, []).append((t0, t1))
            if name == ITEM:
                map_busy[parent] = map_busy.get(parent, 0.0) + (t1 - t0)
                owner = by_id[parent][1]
                if owner is not None:
                    self.self_s[by_id[owner][2]] += selfs[sid]
                continue
            if name == MAP_ORDERED:
                self.map_calls += 1
                self.map_items += extra["items"] if extra else 0
                self.map_self += selfs[sid]
                continue
            self.calls[name] += 1
            self.self_s[name] += selfs[sid]
            self.busy[name] += t1 - t0
            self.failed[name] += failed
            if extra:
                if "ints" in extra:
                    self.ints[name] += extra["ints"]
                if "limit" in extra:
                    self.primes_limit_max = max(self.primes_limit_max, extra["limit"])
                if "terms" in extra:
                    self.terms[name] += extra["terms"]
        for sid, busy in map_busy.items():
            _, _, _, t0, t1, _, extra = by_id[sid]
            if extra and extra["threads"] >= 2:
                self.map_busy += busy
                self.map_capacity += (t1 - t0) * extra["threads"]
        for sid in mains:
            t0, t1 = by_id[sid][3], by_id[sid][4]
            self.main_wall += t1 - t0
            self.main_covered += _union(main_kids.get(sid, ()))

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for n in layer_names():
            out[f"{n}.calls"] = (self.calls[n], "count")
            out[f"{n}.self_s"] = (self.self_s[n], "s")
            out[f"{n}.failed"] = (self.failed[n], "count")
        for n, ints in self.ints.items():
            out[f"{n}.ints"] = (ints, "count")
            out[f"{n}.ns_per_int"] = (1e9 * self.busy[n] / ints if ints else 0.0, "ns")
        out["util.map_ordered.calls"] = (self.map_calls, "count")
        out["util.map_ordered.items"] = (self.map_items, "count")
        out["util.map_ordered.self_s"] = (self.map_self, "s")
        out["util.map_ordered.utilization"] = (
            self.map_busy / self.map_capacity if self.map_capacity else 0.0, "ratio")
        out["arith.primes.limit_max"] = (self.primes_limit_max, "count")
        for n, terms in self.terms.items():
            out[f"{n}.terms"] = (terms, "count")
        out["trace.coverage"] = (
            self.main_covered / self.main_wall if self.main_wall else 0.0, "ratio")
        return out
