"""Worker-thread configuration.

The element loops (over element chunks) and the levels of a convergence
study are data-parallel; the environment variable ``VECLAP_THREADS`` sets
how many items run concurrently.  Results are merged in item order, so
output bytes do not depend on the setting.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from .errors import InputError

THREADS_ENV = "VECLAP_THREADS"


def worker_count() -> int:
    """The configured thread count, at least 1; ``InputError`` if the
    variable is not an integer."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise InputError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return max(1, n)


def map_ordered(fn, items):
    """Apply ``fn`` over ``items`` and yield the results in order; threaded
    when configured.

    With n worker threads at most n items run or wait to be read at once,
    so a consumer that reads each result as it comes holds only a few.
    """
    n = worker_count()
    if n <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=n) as pool:
        pending = deque()
        for item in items:
            if len(pending) == n:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
