import concurrent.futures
import os

import pytest

from formgaps import util
from formgaps.census import census_interval, correlation_J, correlation_general, estermann_correlation
from formgaps.characters import F_positive, F_sieve, F_window, chi4, chi6, kronecker_character
from formgaps.errors import BudgetError
from formgaps.repr_sets import SQUARE2, TRIANGLE, sieve_members


def test_chunk_ranges_holds_the_one_window_budget(monkeypatch):
    # every route takes its window from chunk_ranges, whatever its height
    monkeypatch.setattr(util, "WINDOW_MAX", 1000)
    k5, x = kronecker_character(5), 10 ** 9
    routes = {  # each called on a window of w integers
        "census": lambda w: census_interval(SQUARE2, TRIANGLE, 1, x, w - 1),  # [x, x + H]
        "J": lambda w: correlation_J(chi6(), 1, w),
        "general": lambda w: correlation_general(k5, k5, x, w),
        "estermann": lambda w: estermann_correlation(-x, x + w),
        "sieve_members": lambda w: sieve_members(SQUARE2, x, x + w - 1),
        "F_sieve": lambda w: F_sieve(chi4(), w),
        "F_window": lambda w: F_window(chi4(), x, x + w - 1),
        "F_positive": lambda w: F_positive(chi4(), x, x + w - 1),
    }
    for name, route in routes.items():
        route(1000)
        with pytest.raises(BudgetError):
            route(1001)
            raise AssertionError(f"{name} took a window of 1001 integers")


def test_map_ordered_clamps_workers_to_items(monkeypatch):
    seen = []

    class RecordingPool:
        """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    assert util.map_ordered(lambda v: v * v, range(3), threads=64) == [0, 1, 4]
    assert util.map_ordered(lambda v: -v, range(10), threads=4) == [-v for v in range(10)]
    assert util.map_ordered(lambda v: v, [5], threads=8) == [5]  # one item: no pool
    assert util.map_ordered(lambda v: v, [], threads=8) == []
    assert util.map_ordered(lambda v: v, range(5), threads=1) == list(range(5))
    assert seen == [3, 4]


def test_resolve_threads_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert util.resolve_threads() == util.resolve_threads(0) == 1
    assert util.resolve_threads(3) == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # platforms without an affinity mask
    assert util.resolve_threads() == 64
