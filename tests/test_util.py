import numpy as np

from formgaps import util


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

    monkeypatch.setattr(util, "ThreadPoolExecutor", RecordingPool)
    assert util.map_ordered(lambda v: v * v, range(3), threads=64) == [0, 1, 4]
    assert util.map_ordered(lambda v: -v, range(10), threads=4) == [-v for v in range(10)]
    assert util.map_ordered(lambda v: v, [5], threads=8) == [5]  # one item: no pool
    assert util.map_ordered(lambda v: v, [], threads=8) == []
    assert util.map_ordered(lambda v: v, range(5), threads=1) == list(range(5))
    assert seen == [3, 4]


def test_pair_blocks_enumerates_every_pair_once():
    def bounds(t):
        return t % 3, 8 * t - 5  # key 0 has no pairs; in all, more than one PAIR_BLOCK

    keys = [np.arange(0, 50, dtype=np.int64), np.arange(60, 200, dtype=np.int64)]
    pairs = [(int(t), int(m)) for ts, ms in util.pair_blocks(keys, bounds) for t, m in zip(ts, ms)]
    expected = [(t, m) for t in [*range(0, 50), *range(60, 200)]
                for m in range(t % 3, 8 * t - 4)]
    assert len(expected) > util.PAIR_BLOCK and pairs == expected
