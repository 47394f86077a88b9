"""In-memory spans for the traced run, self time and Chrome trace export.

Each process of a traced run owns one :class:`SpanRecorder`.  A span
records its name, layer, start, end, parent and, for spans that belong
to one work unit, the unit key ``(problem_id, unit_id, attempt)``.
Parents come from a per-thread stack, so a journal append made inside a
facade call is that call's child.  Spans stay in memory and are written
out when the process ends; the benchmark process merges every file.

Times are ``time.perf_counter()`` seconds, which on Linux is the
system-wide monotonic clock, so spans of different processes share one
time base.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator


class SpanRecorder:
    """Collects spans of one process."""

    def __init__(self, process: str):
        self.process = process
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, key: tuple | None = None) -> Iterator[dict]:
        """Record the enclosed block as one span; yields the span dict
        so the block can fill in ``key`` once it is known."""
        stack = self._stack()
        record = {
            "id": f"{self.process}:{next(self._ids)}",
            "name": name,
            "layer": layer,
            "parent": stack[-1] if stack else None,
            "key": list(key) if key is not None else None,
            "process": self.process,
            "thread": threading.current_thread().name,
            "start": time.perf_counter(),
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()
            with self._lock:
                self.spans.append(record)


def maybe_span(
    recorder: SpanRecorder | None, name: str, layer: str, key: tuple | None = None
) -> ContextManager[dict]:
    """A span on *recorder*, or a no-op yielding a throwaway dict when
    the run is not traced."""
    return recorder.span(name, layer, key=key) if recorder is not None else nullcontext({})


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span: its duration minus the part of its
    interval that its children cover (overlapping children count once)."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def layer_self_times(spans: list[dict], selves: dict[str, float] | None = None) -> dict[str, float]:
    """Total self time per layer."""
    selves = self_times(spans) if selves is None else selves
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + selves[span["id"]]
    return totals


def chrome_trace(spans: list[dict]) -> dict:
    """Spans as Chrome trace-event JSON (complete events), which
    Perfetto and ``chrome://tracing`` open directly."""
    processes = sorted({s["process"] for s in spans})
    pids = {name: i + 1 for i, name in enumerate(processes)}
    threads: dict[tuple[str, str], int] = {}
    origin = min((s["start"] for s in spans), default=0.0)
    events = [
        {"name": "process_name", "ph": "M", "pid": pids[name], "tid": 0,
         "args": {"name": name}}
        for name in processes
    ]
    for span in sorted(spans, key=lambda s: s["start"]):
        tid = threads.setdefault((span["process"], span["thread"]), len(threads) + 1)
        events.append(
            {
                "name": span["name"],
                "cat": span["layer"],
                "ph": "X",
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": pids[span["process"]],
                "tid": tid,
                "args": {"key": span["key"], "id": span["id"], "parent": span["parent"]},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
