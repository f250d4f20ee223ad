"""Worker-thread configuration.

The element loops (over fixed-size chunks) and the levels of a convergence
study are data-parallel; the environment variable ``VECLAP_THREADS`` sets
how many items run concurrently.  Results are merged in item order, so
output bytes do not depend on the setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

THREADS_ENV = "VECLAP_THREADS"


def worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return max(1, n)


def map_ordered(fn, items):
    """Apply ``fn`` over ``items``, preserving order; threaded when configured."""
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
