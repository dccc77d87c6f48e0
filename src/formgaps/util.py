"""Window chunking and deterministic parallel mapping.

Chunk boundaries are a pure function of the requested range, never of the
worker count, and results are always combined in range order.  Runs are
therefore bit-identical for any thread count.  chunk_ranges cuts every window
the package sieves, so it alone holds the window budget WINDOW_MAX.
map_ordered builds a thread pool only for two or more workers, and imports
concurrent.futures only then, so a window of one chunk runs on the calling
thread and loads no pool module.
"""

from __future__ import annotations

import os

from . import _np as np
from .errors import BudgetError

DEFAULT_CHUNK = 1 << 22

PAIR_BLOCK = 1 << 16

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


def pair_blocks(keys, bounds):
    """Every pair (t, m) with t a key and first <= m <= last, where (first,
    last) = bounds(t) for an int64 array of keys t, as int64 arrays (t, m) of
    at most PAIR_BLOCK pairs in key order.  keys is an iterable of increasing
    int64 arrays; they are taken PAIR_BLOCK keys at a time, so no temporary
    grows with the key count or the pair count.
    """
    for block in keys:
        for k0 in range(0, block.size, PAIR_BLOCK):
            t = block[k0 : k0 + PAIR_BLOCK]
            first, last = bounds(t)
            keep = np.flatnonzero(last >= first)
            t, first = t[keep], first[keep]
            counts = last[keep] - first + 1
            ends = np.cumsum(counts)
            starts = ends - counts
            total = int(ends[-1]) if ends.size else 0
            for s in range(0, total, PAIR_BLOCK):
                e = min(s + PAIR_BLOCK, total)
                i0 = int(np.searchsorted(ends, s, side="right"))
                i1 = int(np.searchsorted(ends, e - 1, side="right")) + 1
                per_key = np.minimum(ends[i0:i1], e) - np.maximum(starts[i0:i1], s)
                idx = np.repeat(np.arange(i0, i1), per_key)
                yield t[idx], first[idx] + (np.arange(s, e) - starts[idx])
