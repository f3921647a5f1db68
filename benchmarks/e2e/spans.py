"""In-memory spans around the bench's own calls into each layer.

The program under test is not instrumented: every span is opened by
the benchmark around a public call (``session.solve``, ``run_one`` via
the campaign progress hook, ``QueueStore.*``, one HTTP round trip), so
a layer's *self* time is the per-``run_id`` difference between two
adjacent rungs.  Spans stay in memory and are written once, at exit, in
Chrome trace-event format (open the file in Perfetto or
``chrome://tracing`` unmodified).
"""

from __future__ import annotations

import contextlib
import json
import threading
from time import perf_counter


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs ~1 µs."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: ``(name, start, end, parent_name, run_id, thread_id)`` tuples.
        self.spans: list[tuple] = []
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, run_id: str | None = None):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        stack.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (name, start, end, parent, run_id, threading.get_ident())
            )

    def add(self, name: str, start: float, end: float, run_id: str | None = None):
        """Record a span whose bounds were observed from a callback."""
        if self.enabled:
            stack = self._local.__dict__.get("stack") or [None]
            self.spans.append(
                (name, start, end, stack[-1], run_id, threading.get_ident())
            )

    def by_run(self, name: str) -> dict[str, list[float]]:
        """Durations (seconds) of the spans called ``name``, per run id."""
        out: dict[str, list[float]] = {}
        for span_name, start, end, _parent, run_id, _tid in self.spans:
            if span_name == name:
                out.setdefault(run_id, []).append(end - start)
        return out

    def events(self, pid: int, process_name: str) -> list[dict]:
        """The spans as Chrome trace events (``ph: X``, microseconds)."""
        tids = {tid: i for i, tid in enumerate(sorted({s[5] for s in self.spans}))}
        events = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name},
        }]
        for name, start, end, parent, run_id, tid in self.spans:
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tids[tid],
                "args": {"parent": parent, "run_id": run_id},
            })
        return events


def write_chrome_trace(path, events: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
