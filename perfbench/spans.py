"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the program by replacing the module
attribute through which the program looks a function up (for example
``veclap.analysis.assemble``), so nothing inside the program changes.  Each
span carries a name, start and end times, the id of the span that was open
when it began and the id of the run it belongs to.  Spans stay in memory
until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@contextmanager
def patched(owner, attr: str, on_result=None, around=nullcontext):
    """Within the block, ``owner.attr`` calls the original inside ``around()``
    and hands each result to ``on_result(result)``, outside ``around()``.

    The original is put back when the block ends, however it ends.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with around():
            result = original(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Collects spans; ``patched(..., around=lambda: tracer.span(name))``
    records one span per call of a function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    def write_jsonl(self, fileobj, header: dict) -> None:
        fileobj.write(json.dumps(header, sort_keys=True) + "\n")
        self_time = self_times(self.spans)
        for s in self.spans:
            fileobj.write(json.dumps({**asdict(s), "self": self_time[s.span_id]},
                                     sort_keys=True) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.span_id, ())]
        out[s.span_id] = s.duration - _covered([k for k in kids if k[1] > k[0]])
    return out
