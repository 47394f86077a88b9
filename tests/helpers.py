"""Shared test fixtures: simple DataManagers/Algorithms, a manual clock,
and reference scans that cross-check the server's O(1) counters."""

from __future__ import annotations

import contextlib
import functools
from typing import Any, Iterator

from repro.core.problem import Algorithm, DataManager
from repro.core.server import ProblemStatus, TaskFarmServer
from repro.core.workunit import UnitPayload, WorkResult


class ManualClock:
    """A clock the test advances explicitly."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


class RangeSumDataManager(DataManager):
    """Sum the integers 0..n-1: the canonical trivially parallel problem.

    Units are contiguous slices of the range; the final result is the
    grand total.  Used throughout the framework tests because every
    intermediate value is checkable in closed form.
    """

    def __init__(self, n: int):
        self.n = n
        self._next = 0
        self._outstanding = 0
        self._total = 0
        self._done_items = 0

    def total_items(self) -> int:
        return self.n

    def next_unit(self, max_items: int) -> UnitPayload | None:
        if self._next >= self.n:
            return None
        lo = self._next
        hi = min(self.n, lo + max_items)
        self._next = hi
        self._outstanding += 1
        return UnitPayload(payload=(lo, hi), items=hi - lo, input_bytes=16)

    def handle_result(self, result: WorkResult) -> None:
        self._total += result.value
        self._done_items += result.items
        self._outstanding -= 1

    def is_complete(self) -> bool:
        return self._done_items >= self.n

    def final_result(self) -> int:
        return self._total


class RangeSumAlgorithm(Algorithm):
    def compute(self, payload: Any) -> int:
        lo, hi = payload
        return sum(range(lo, hi))

    def cost(self, payload: Any) -> float:
        lo, hi = payload
        return float(hi - lo)


class SlowRangeSumAlgorithm(RangeSumAlgorithm):
    """RangeSum with a real per-unit wall-clock cost, so live crash
    tests can kill a server while units are genuinely in flight."""

    def __init__(self, delay: float = 0.05):
        self.delay = delay

    def compute(self, payload: Any) -> int:
        import time

        time.sleep(self.delay)
        return super().compute(payload)


class StagedDataManager(DataManager):
    """A two-phase computation exercising stage barriers.

    Stage 1: square each of ``n`` integers (n units).
    Stage 2 (only after *all* squares are in): sum pairs of squares.
    Mirrors DPRml's structure where a stage must fully complete before
    the next stage's units exist.
    """

    def __init__(self, n: int = 8):
        assert n % 2 == 0
        self.n = n
        self.stage = 1
        self._pending = list(range(n))
        self._stage1_results: dict[int, int] = {}
        self._stage2_pending: list[tuple[int, int]] = []
        self._stage2_expected = 0
        self._total = 0
        self._stage2_done = 0

    def next_unit(self, max_items: int) -> UnitPayload | None:
        if self.stage == 1:
            if not self._pending:
                return None  # barrier: wait for stage-1 results
            x = self._pending.pop()
            return UnitPayload(payload=("square", x), items=1)
        if self._stage2_pending:
            pair = self._stage2_pending.pop()
            return UnitPayload(payload=("addpair", pair), items=1)
        return None

    def handle_result(self, result: WorkResult) -> None:
        kind, value = result.value
        if kind == "square":
            x, squared = value
            self._stage1_results[x] = squared
            if len(self._stage1_results) == self.n:
                squares = [self._stage1_results[i] for i in range(self.n)]
                self._stage2_pending = [
                    (squares[i], squares[i + 1]) for i in range(0, self.n, 2)
                ]
                self._stage2_expected = len(self._stage2_pending)
                self.stage = 2
        else:
            self._total += value
            self._stage2_done += 1

    def is_complete(self) -> bool:
        return self.stage == 2 and self._stage2_done == self._stage2_expected

    def final_result(self) -> int:
        return self._total


class StagedAlgorithm(Algorithm):
    def compute(self, payload: Any) -> Any:
        op, arg = payload
        if op == "square":
            return ("square", (arg, arg * arg))
        a, b = arg
        return ("addpair", a + b)


# ----------------------------------------------------------------------
# reference scans for the server's per-request counters
# ----------------------------------------------------------------------


def reference_remaining_items(server: TaskFarmServer, state) -> int | None:
    """Items of *state*'s problem not yet cut, recomputed from scratch.

    This is the O(history) scan the server once ran on every request:
    completed items, plus every distinct unit still leased or queued.
    The server now answers ``total - items_cut`` instead.
    """
    total = state.problem.data_manager.total_items()
    if not total:
        return None
    pid = state.problem.problem_id
    cut = state.items_completed
    seen: set[int] = set(state.completed_units)
    for lease in server.leases.outstanding(pid):
        uid = lease.unit.unit_id
        if uid not in seen:
            seen.add(uid)
            cut += lease.unit.items
    for queue in (state.requeue, state.replicas):
        for unit in queue:
            if unit.unit_id not in seen:
                seen.add(unit.unit_id)
                cut += unit.items
    return max(0, total - cut)


def reference_busy_donors(server: TaskFarmServer) -> int:
    """Donors holding at least one live lease, counted from scratch."""
    return len({lease.donor_id for lease in server.leases.outstanding()})


def assert_control_plane_counters(server: TaskFarmServer) -> None:
    """The O(1) counters equal their from-scratch reference scans."""
    for pid, state in server._problems.items():
        if state.status is not ProblemStatus.RUNNING:
            continue
        counted = server._remaining_items(state)
        scanned = reference_remaining_items(server, state)
        assert counted == scanned, (
            f"problem {pid}: remaining items {counted} by counter, "
            f"{scanned} by scan"
        )
    busy = server.obs.meters.gauge("farm.donors.busy").value
    assert busy == reference_busy_donors(server), (
        f"farm.donors.busy reads {busy}, "
        f"{reference_busy_donors(server)} donors hold a live lease"
    )


#: Public server calls that can move either counter.
_MUTATORS = (
    "submit",
    "register_donor",
    "deregister_donor",
    "request_work",
    "submit_result",
    "report_failure",
    "cancel_problem",
    "expire_leases",
)


@contextlib.contextmanager
def control_plane_checks() -> Iterator[None]:
    """Check :func:`assert_control_plane_counters` after every public
    server call, and after every simulated server restart (checkpoint
    restore or journal recovery), while the block runs."""
    from repro.cluster.sim.cluster import SimCluster

    def then_check(original, check):
        @functools.wraps(original)
        def call(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            check(self)
            return result

        return call

    checks = {
        (TaskFarmServer, name): assert_control_plane_counters for name in _MUTATORS
    }
    checks[(SimCluster, "_restart_server")] = (
        lambda cluster: assert_control_plane_counters(cluster.server)
    )
    originals = {key: getattr(*key) for key in checks}
    try:
        for (cls, name), check in checks.items():
            setattr(cls, name, then_check(originals[cls, name], check))
        yield
    finally:
        for (cls, name), original in originals.items():
            setattr(cls, name, original)
