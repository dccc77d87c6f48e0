"""numpy, imported on the first attribute lookup (`from . import _np as np`).

Most CLI commands (repr, gap, odd-character beta and muller) never touch an
array, and importing numpy is the largest part of their start-up.  The first
lookup of a name runs `import numpy` and caches the attribute here, so later
lookups are plain module-dict hits.  `import numpy` holds the import lock, so
worker threads making their first lookup at once all see a complete numpy;
importlib.util.LazyLoader gives no such guarantee, and threads racing on its
half-initialised module can miss attributes.
"""


def __getattr__(name):
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
