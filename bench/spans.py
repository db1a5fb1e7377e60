"""In-memory spans for the traced run.

A span records its name, start and end (perf_counter, which is the
system-wide monotonic clock on Linux, so spans of different processes line
up), its parent span, the run id and the repetition it belongs to.  Spans
are kept in memory and written out once, when the run ends.
"""

from collections import defaultdict
from contextlib import contextmanager, nullcontext
import time


class Tracer:
    def __init__(self, run_id: str, prefix: str, parent=None):
        self.run_id = run_id
        self.spans = []
        self.rep = None  # set by the caller around each repetition
        self._prefix = prefix
        self._stack = [parent] if parent is not None else []
        self._count = 0

    @contextmanager
    def span(self, name: str):
        sid = f"{self._prefix}{self._count}"
        self._count += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "parent": parent, "name": name, "start": start,
                               "end": end, "run": self.run_id, "rep": self.rep})


class NullTracer:
    """Tracing off: a span costs one call returning a shared no-op context."""

    spans = None
    rep = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null


def add_self_times(spans: list) -> None:
    """Set each span's `self`: its duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        s["self"] = s["end"] - s["start"] - covered
