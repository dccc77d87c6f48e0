"""Window chunking and deterministic parallel mapping.

Chunk boundaries are a pure function of the requested range, never of the
worker count, and results are always combined in range order.  Runs are
therefore bit-identical for any thread count.  chunk_ranges cuts every window
the package sieves, down to the segments of characters.F_window and
F_positive, so it alone holds the window budget WINDOW_MAX; only the prime
segments of arith.prime_blocks, which run past it by design, keep a loop of
their own.
map_ordered builds a thread pool only for two or more workers, and imports
concurrent.futures only then, so a window of one chunk runs on the calling
thread and loads no pool module.
"""

from __future__ import annotations

import os

from .errors import BudgetError

DEFAULT_CHUNK = 1 << 22

WINDOW_MAX = 10 ** 9  # integers in one window, whatever its height


def chunk_ranges(lo: int, hi: int, chunk: int = DEFAULT_CHUNK) -> list[tuple[int, int]]:
    """Closed subranges covering [lo, hi] <= WINDOW_MAX integers, in increasing order."""
    if hi - lo + 1 > WINDOW_MAX:
        raise BudgetError(f"window of {hi - lo + 1} integers exceeds {WINDOW_MAX}")
    out = []
    start = lo
    while start <= hi:
        stop = min(start + chunk - 1, hi)
        out.append((start, stop))
        start = stop + 1
    return out


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: the explicit argument if it is at least 1, else every CPU
    this process may use (its affinity mask where the platform has one)."""
    if threads is not None and threads >= 1:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_ordered(fn, items, threads: int = 1) -> list:
    """Map fn over items, preserving item order in the result, on at most
    min(threads, len(items)) worker threads."""
    items = list(items)
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
