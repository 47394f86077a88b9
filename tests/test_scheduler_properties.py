"""Property-based tests for the adaptive granularity policy.

These pin the scheduler invariants the rest of the farm relies on:

* a unit is never smaller than the policy minimum (or larger than the
  maximum),
* a faster donor never receives a *smaller* unit than a slower one with
  the same history,
* the ramp cap bounds growth between consecutive units, and
* the server never hands out more items than remain in the problem.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import Problem
from repro.core.scheduler import AdaptiveGranularity, DonorState
from repro.core.server import TaskFarmServer
from repro.core.workunit import WorkResult
from tests.helpers import (
    RangeSumAlgorithm,
    RangeSumDataManager,
    assert_control_plane_counters,
)

#: (items, seconds) observation pairs a donor might report.
observations = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    ),
    max_size=8,
)

policies = st.builds(
    AdaptiveGranularity,
    target_seconds=st.floats(min_value=0.1, max_value=600.0),
    probe_items=st.integers(min_value=1, max_value=100),
    min_items=st.integers(min_value=1, max_value=50),
    max_items=st.integers(min_value=1000, max_value=100_000),
    alpha=st.floats(min_value=0.05, max_value=1.0),
    max_growth=st.floats(min_value=1.1, max_value=16.0),
)


def _donor_with_history(policy: AdaptiveGranularity, history) -> DonorState:
    donor = DonorState("d", registered_at=0.0, last_seen=0.0)
    model = donor.perf_for(1, alpha=policy.alpha)
    for items, seconds in history:
        model.observe(items, seconds)
    return donor


class TestItemsForBounds:
    @given(policy=policies, history=observations)
    @settings(max_examples=200, deadline=None)
    def test_within_policy_bounds(self, policy, history):
        donor = _donor_with_history(policy, history)
        items = policy.items_for(donor, 1)
        assert items >= min(policy.min_items, policy.probe_items)
        assert items <= policy.max_items

    @given(policy=policies)
    @settings(max_examples=50, deadline=None)
    def test_uncalibrated_donor_gets_probe(self, policy):
        donor = DonorState("d", registered_at=0.0, last_seen=0.0)
        assert policy.items_for(donor, 1) == policy.probe_items

    @given(policy=policies, history=observations)
    @settings(max_examples=200, deadline=None)
    def test_ramp_cap_bounds_growth(self, policy, history):
        donor = _donor_with_history(policy, history)
        model = donor.perf_for(1, alpha=policy.alpha)
        items = policy.items_for(donor, 1)
        if model.calibrated:
            cap = max(policy.probe_items, model.last_items) * policy.max_growth
            assert items <= cap


class TestSpeedMonotonicity:
    @given(
        policy=policies,
        items=st.integers(min_value=1, max_value=10_000),
        fast_seconds=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        slowdown=st.floats(min_value=1.0, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_faster_donor_never_gets_smaller_unit(
        self, policy, items, fast_seconds, slowdown
    ):
        """Same history shape, different speeds: the donor that did the
        same work in less time gets at least as many items next."""
        fast = _donor_with_history(policy, [(items, fast_seconds)])
        slow = _donor_with_history(policy, [(items, fast_seconds * slowdown)])
        assert policy.items_for(fast, 1) >= policy.items_for(slow, 1)

    @given(policy=policies, items=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_sizing_targets_duration(self, policy, items):
        """A calibrated unramped donor's unit approximates rate × target."""
        donor = _donor_with_history(policy, [(items, 1.0)])  # rate = items/s
        expected = math.ceil(items * policy.target_seconds)
        cap = max(policy.probe_items, items) * policy.max_growth
        want = int(min(policy.max_items, cap, max(policy.min_items, expected)))
        assert policy.items_for(donor, 1) == want


class TestNeverExceedsRemainingWork:
    @given(
        n=st.integers(min_value=1, max_value=400),
        target=st.floats(min_value=0.5, max_value=120.0),
        speed=st.floats(min_value=0.01, max_value=100.0),
        probe=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_issued_units_partition_the_problem(self, n, target, speed, probe):
        """Drive a whole farm: every issued unit fits in the remaining
        range, sizes follow the policy, and the final sum is exact."""
        server = TaskFarmServer(
            policy=AdaptiveGranularity(target_seconds=target, probe_items=probe)
        )
        pid = server.submit(
            Problem("sum", RangeSumDataManager(n), RangeSumAlgorithm()), now=0.0
        )
        server.register_donor("d0", now=0.0)
        now, issued_items = 0.0, 0
        while not server.all_complete():
            assignment = server.request_work("d0", now)
            assert assignment is not None, "work remains but none was issued"
            assert_control_plane_counters(server)
            lo, hi = assignment.payload
            assert 0 <= lo < hi <= n
            assert assignment.items == hi - lo
            issued_items += assignment.items
            assert issued_items <= n  # never hands out more than remains
            duration = assignment.items / speed
            now += duration
            server.submit_result(
                WorkResult(
                    problem_id=pid,
                    unit_id=assignment.unit_id,
                    value=sum(range(lo, hi)),
                    donor_id="d0",
                    compute_seconds=duration,
                    items=assignment.items,
                ),
                now,
            )
            assert_control_plane_counters(server)
        assert issued_items == n
        assert server.final_result(pid) == n * (n - 1) // 2
