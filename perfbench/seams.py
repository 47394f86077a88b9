"""Wrappers around the program's public seams.

The benchmark measures every layer from outside: it wraps the objects
that one layer hands to the next and times the calls that cross.  No
wrapper changes what a call does or returns, except that
:class:`TimedPort` hands the donor a :class:`TimedAlgorithm` around the
shipped Algorithm when tracing, so compute spans can be recorded.

=======================  ==============================  ================
seam                     wrapper                         layer
=======================  ==============================  ================
``ServerPort`` methods   :class:`TimedPort`              ``rmi`` (client)
``Algorithm.compute``    :class:`TimedAlgorithm`         ``bio.align`` …
``blob_fetch=``          :func:`timed_blob_fetch`        ``core.blobs``
``SegmentStore``         :class:`TimedStore`             ``core.journal``
``ServerFacade``         :class:`TimedServerCalls`       ``core.server``
``SimCluster.server``    :class:`TimedServerCalls`       ``core.server``
=======================  ==============================  ================

Without a recorder only :class:`TimedPort` does any work: it still times
each unit's ``request_work`` + ``submit_result`` round trip, two clock
reads per call, which the untraced run reports as ``unit_rtt_*``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from perfbench.spans import SpanRecorder, maybe_span


def compute_layer(algorithm: Any) -> str:
    """The layer an Algorithm's compute belongs to."""
    name = type(algorithm).__name__
    if name.startswith("DSearch"):
        return "bio.align"
    if name.startswith("DPRml"):
        return "bio.phylo"
    return "app.compute"


class TimedAlgorithm:
    """Records a span around ``compute``; everything else passes through."""

    def __init__(self, algorithm: Any, recorder: SpanRecorder, current_key: Callable[[], tuple | None]):
        self._algorithm = algorithm
        self._recorder = recorder
        self._current_key = current_key
        self._layer = compute_layer(algorithm)

    def compute(self, payload: Any) -> Any:
        with self._recorder.span("compute", self._layer, key=self._current_key()):
            return self._algorithm.compute(payload)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._algorithm, name)


class TimedPort:
    """A ``ServerPort`` that times the donor side of every call.

    ``rtt_s`` collects, per completed unit, the ``request_work`` call
    that granted it plus the ``submit_result`` call that returned it:
    the control-plane round trip as the donor observes it.  ``calls``
    and ``failed`` count port calls and the ones that raised.
    """

    def __init__(self, port: Any, recorder: SpanRecorder | None = None):
        self._port = port
        self._recorder = recorder
        self._local = threading.local()
        self._lock = threading.Lock()
        self._granted: dict[tuple[int, int], float] = {}
        self._attempts: dict[tuple[int, int], int] = {}
        self.rtt_s: list[float] = []
        self.calls = 0
        self.failed = 0
        self.idle_polls = 0

    def current_key(self) -> tuple | None:
        """Unit key of the assignment this thread last received."""
        return getattr(self._local, "key", None)

    def _call(self, name: str, *args: Any, key: tuple | None = None) -> tuple[Any, float, dict]:
        with self._lock:
            self.calls += 1
        start = time.perf_counter()
        try:
            with maybe_span(self._recorder, name, "rmi", key=key) as span:
                value = getattr(self._port, name)(*args)
        except Exception:
            with self._lock:
                self.failed += 1
            raise
        return value, time.perf_counter() - start, span

    def request_work(self, donor_id: str):
        assignment, seconds, span = self._call("request_work", donor_id)
        if assignment is None:
            with self._lock:
                self.idle_polls += 1
            self._local.key = None
            return None
        unit = (assignment.problem_id, assignment.unit_id)
        with self._lock:
            attempt = self._attempts.get(unit, 0)
            self._attempts[unit] = attempt + 1
            self._granted[unit] = seconds
        key = (*unit, attempt)
        span["key"] = list(key)
        self._local.key = key
        return assignment

    def submit_result(self, result):
        unit = (result.problem_id, result.unit_id)
        key = (*unit, self._attempts.get(unit, 1) - 1)
        accepted, seconds, _span = self._call("submit_result", result, key=key)
        with self._lock:
            granted = self._granted.pop(unit, None)
            if granted is not None:
                self.rtt_s.append(granted + seconds)
        return accepted

    def get_algorithm(self, problem_id: int):
        algorithm, _seconds, _span = self._call("get_algorithm", problem_id)
        if self._recorder is None:
            return algorithm
        return TimedAlgorithm(algorithm, self._recorder, self.current_key)

    def register_donor(self, donor_id: str, slots: int = 1) -> None:
        self._call("register_donor", donor_id, slots)

    def deregister_donor(self, donor_id: str) -> None:
        self._call("deregister_donor", donor_id)

    def report_failure(self, problem_id: int, unit_id: int, donor_id: str, error: str) -> None:
        self._call("report_failure", problem_id, unit_id, donor_id, error)

    def heartbeat(self, donor_id: str) -> None:
        self._call("heartbeat", donor_id)

    def get_shared_blob(self, problem_id: int, key: str) -> bytes:
        return self._call("get_shared_blob", problem_id, key)[0]

    def all_complete(self) -> bool:
        return self._call("all_complete")[0]

    def __getattr__(self, name: str) -> Any:
        # data_address() and the rest of the proxy surface.
        return getattr(self._port, name)


def timed_blob_fetch(
    fetch: Callable, recorder: SpanRecorder, current_key: Callable[[], tuple | None]
) -> Callable:
    """Wrap a ``DonorClient(blob_fetch=)`` callable; every call is a
    cache miss that went to the wire."""

    def timed(problem_id: int, ref: Any) -> bytes:
        with recorder.span("blob_fetch", "core.blobs", key=current_key()):
            return fetch(problem_id, ref)

    return timed


class TimedStore:
    """A journal ``SegmentStore`` whose ``append`` and ``sync`` are spans."""

    def __init__(self, store: Any, recorder: SpanRecorder):
        self._store = store
        self._recorder = recorder

    def append(self, name: str, data: bytes) -> None:
        with self._recorder.span("journal.append", "core.journal"):
            self._store.append(name, data)

    def sync(self, name: str) -> None:
        with self._recorder.span("journal.fsync", "core.journal"):
            self._store.sync(name)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


def _unit_key(method: str, args: tuple, value: Any, attempts: dict) -> tuple | None:
    if method == "request_work" and value is not None:
        unit = (value.problem_id, value.unit_id)
        attempt = attempts.get(unit, 0)
        attempts[unit] = attempt + 1
        return (*unit, attempt)
    if method == "submit_result" and args:
        unit = (args[0].problem_id, args[0].unit_id)
        return (*unit, attempts.get(unit, 1) - 1)
    return None


class TimedServerCalls:
    """Records a ``core.server`` span named ``<prefix>.<method>`` around
    every public method call of the wrapped object: the
    ``ServerFacade`` bound in the RMI registry (prefix ``facade``) or
    ``SimCluster.server`` (prefix ``server``).  Spans of
    ``request_work`` and ``submit_result`` carry the unit key."""

    def __init__(self, target: Any, recorder: SpanRecorder, prefix: str):
        self._target = target
        self._recorder = recorder
        self._prefix = prefix
        self._attempts: dict[tuple[int, int], int] = {}
        self._attempts_lock = threading.Lock()

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._target, name)
        if name.startswith("_") or not callable(attr):
            return attr
        recorder = self._recorder

        def call(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(f"{self._prefix}.{name}", "core.server") as span:
                value = attr(*args, **kwargs)
            if name in ("request_work", "submit_result"):
                with self._attempts_lock:
                    key = _unit_key(name, args, value, self._attempts)
                if key is not None:
                    span["key"] = list(key)
            return value

        return call
