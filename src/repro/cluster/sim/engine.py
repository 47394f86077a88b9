"""A minimal process-based discrete-event simulation engine.

Processes are Python generators that ``yield`` effect objects:

* ``Timeout(dt)`` — resume after *dt* simulated seconds.
* ``Acquire(resource)`` — resume once the FIFO resource grants a slot;
  the process must later call ``resource.release()``.
* ``WaitEvent(event)`` — resume once the one-shot :class:`SimEvent` has
  fired (immediately when it already did).

The engine is deterministic: events at equal times fire in scheduling
order (a monotone sequence number breaks ties), so a seeded simulation
replays identically.  This is all the machinery the cluster model
needs — machines, network links and lease timers are each a process or
a resource.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator

#: The generator type simulation processes must have.
Process = Generator["Effect", Any, None]


class Effect:
    """Base class for things a process may yield."""


@dataclass(frozen=True, slots=True)
class Timeout(Effect):
    """Suspend the yielding process for ``delay`` simulated seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"negative timeout {self.delay}")


@dataclass(frozen=True, slots=True)
class Acquire(Effect):
    """Suspend until the resource grants a slot (FIFO order)."""

    resource: "SimResource"


@dataclass(frozen=True, slots=True)
class WaitEvent(Effect):
    """Suspend until the one-shot :class:`SimEvent` fires."""

    event: "SimEvent"


class SimEvent:
    """A one-shot completion signal between processes.

    The pipelined machine model needs fork/join: a machine forks a
    download process for unit N+1, computes unit N, then *joins* the
    download.  Waiters arriving after :meth:`fire` resume immediately,
    so a join never races the completion.
    """

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self.fired = False
        self._waiters: list[Callable[[], None]] = []

    def fire(self) -> None:
        """Mark complete and wake every waiter (idempotent)."""
        if self.fired:
            return
        self.fired = True
        waiters, self._waiters = self._waiters, []
        for wake in waiters:
            self._sim.call_soon(wake)

    def _wait(self, wake: Callable[[], None]) -> None:
        if self.fired:
            self._sim.call_soon(wake)
        else:
            self._waiters.append(wake)


class SimResource:
    """A FIFO resource with fixed capacity (e.g. the server's NIC).

    Processes ``yield Acquire(res)`` and must call :meth:`release`
    exactly once per grant.  Waiters are served strictly in arrival
    order, which is how a single socket accept queue behaves.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: list[Callable[[], None]] = []

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def _try_acquire(self, wake: Callable[[], None]) -> None:
        if self._in_use < self.capacity:
            self._in_use += 1
            self._sim.call_soon(wake)
        else:
            self._waiters.append(wake)

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot straight to the next waiter.
            wake = self._waiters.pop(0)
            self._sim.call_soon(wake)
        else:
            self._in_use -= 1


class _ScheduledEvent:
    """A pending callback; set ``cancelled`` to skip it when it comes due.

    The heap orders ``(time, seq, event)`` tuples, so comparison stays
    in C: ``seq`` is unique and never lets a tie reach the event.
    """

    __slots__ = ("action", "cancelled")

    def __init__(self, action: Callable[[], None]):
        self.action = action
        self.cancelled = False


class Simulator:
    """The event loop: a heap of timestamped callbacks.

    When *meters* is supplied (a :class:`repro.obs.meters.MeterRegistry`),
    the loop streams ``sim.events`` / ``sim.processes.alive`` counts and
    the ``sim.time`` gauge into it, so a paused or long-running
    simulation is observable with the same snapshot machinery as a live
    deployment.
    """

    def __init__(self, meters=None) -> None:
        self._heap: list[tuple[float, int, _ScheduledEvent]] = []
        self._seq = 0
        self._now = 0.0
        self._processes_alive = 0
        self.meters = meters

    @property
    def now(self) -> float:
        return self._now

    # -- low-level scheduling -------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> _ScheduledEvent:
        """Run *action* after *delay* simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = _ScheduledEvent(action)
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1
        return event

    def call_soon(self, action: Callable[[], None]) -> _ScheduledEvent:
        return self.schedule(0.0, action)

    def every(
        self, interval: float, action: Callable[[], None], until: Callable[[], bool]
    ) -> None:
        """Run *action* every *interval* seconds while ``until()`` is false."""
        if interval <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            if until():
                return
            action()
            self.schedule(interval, tick)

        self.schedule(interval, tick)

    # -- process management ----------------------------------------------

    def spawn(self, process: Process, delay: float = 0.0) -> None:
        """Start a generator-based process after *delay* seconds."""
        self._processes_alive += 1
        self.schedule(delay, lambda: self._step(process, None))

    def _step(self, process: Process, value: Any) -> None:
        try:
            effect = process.send(value)
        except StopIteration:
            self._processes_alive -= 1
            return
        if isinstance(effect, Timeout):
            self.schedule(effect.delay, lambda: self._step(process, None))
        elif isinstance(effect, Acquire):
            effect.resource._try_acquire(lambda: self._step(process, None))
        elif isinstance(effect, WaitEvent):
            effect.event._wait(lambda: self._step(process, None))
        else:
            raise TypeError(
                f"process yielded {effect!r}; expected Timeout, Acquire, "
                f"or WaitEvent"
            )

    # -- running -----------------------------------------------------------

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Drain the event heap; returns the final simulated time.

        Parameters
        ----------
        until:
            Optional horizon; events after it stay unprocessed.
        max_events:
            Safety valve against runaway simulations.
        """
        processed = 0
        heap = self._heap
        while heap:
            when, _seq, event = heap[0]
            if until is not None and when > until:
                self._now = until
                break
            heapq.heappop(heap)
            if event.cancelled:
                continue
            if when < self._now - 1e-12:
                raise RuntimeError("event heap corrupted: time went backwards")
            self._now = when
            event.action()
            processed += 1
            if processed > max_events:
                raise RuntimeError(f"exceeded {max_events} events; likely livelock")
        if self.meters is not None and processed:
            self.meters.counter("sim.events").inc(processed)
            self.meters.gauge("sim.time").set(self._now)
            self.meters.gauge("sim.processes.alive").set(self._processes_alive)
        return self._now

    def peek(self) -> float | None:
        """Time of the next pending event (None when drained)."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None


def transfer(resource: SimResource, seconds: float) -> Iterator[Effect]:
    """A sub-process: hold *resource* for *seconds* (a network transfer).

    Use as ``yield from transfer(link, size / bandwidth)``.
    """
    yield Acquire(resource)
    try:
        yield Timeout(seconds)
    finally:
        resource.release()
