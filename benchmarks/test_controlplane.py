"""Control-plane cost per unit: flat in history and in fleet size.

The server state machine and the simulator pay a small CPU cost for
every unit they dispatch and fold.  That cost must not grow with how
many units a problem has already completed, nor with how many donors
the farm serves, or a long-running server slows down as it ages and a
fleet-scale simulation becomes quadratic.  Two probes measure it in
wall-clock microseconds per unit:

* **bare server** — one in-process donor pulls one-item no-op units
  from a ``TaskFarmServer`` (no journal, facade or wire) at 2k, 8k and
  20k units;
* **sim** — ``SimCluster`` in trace mode (no compute) with 100, 400
  and 1000 heterogeneous donors of 20 items each, 2 items per unit.

Each figure is the best of ``REPEATS`` runs, which filters scheduler
noise out of a CPU-bound loop.  Writes ``BENCH_controlplane.json`` and
**fails if the 20k-unit server cost exceeds 1.25x the 2k-unit cost, or
the 1000-donor sim cost exceeds 2x the 100-donor cost** — ratio gates,
so a slower CI runner cannot flake them.
"""

import json
import random
import time

from conftest import OUT_DIR, write_report
from repro.cluster.sim import SimCluster, heterogeneous_pool
from repro.cluster.sim.trace import WorkloadTrace, trace_problem
from repro.core.problem import Algorithm, DataManager, Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import TaskFarmServer
from repro.core.workunit import UnitPayload, WorkResult

SERVER_UNITS = (2_000, 8_000, 20_000)
SIM_DONORS = (100, 400, 1_000)
SIM_ITEMS_PER_DONOR = 20
SIM_ITEMS_PER_UNIT = 2
REPEATS = 3
GATE_SERVER_RATIO = 1.25
GATE_SIM_RATIO = 2.0
SEED = 11


class _CountDM(DataManager):
    """*n* one-item units whose results are counted, nothing else."""

    def __init__(self, n: int):
        self.n = n
        self._cut = 0
        self._done = 0

    def total_items(self) -> int:
        return self.n

    def next_unit(self, max_items: int) -> UnitPayload | None:
        if self._cut >= self.n:
            return None
        items = min(max_items, self.n - self._cut)
        self._cut += items
        return UnitPayload(payload=items, items=items, input_bytes=16)

    def handle_result(self, result: WorkResult) -> None:
        self._done += result.value

    def is_complete(self) -> bool:
        return self._done >= self.n

    def final_result(self) -> int:
        return self._done


class _EchoAlgorithm(Algorithm):
    def compute(self, payload):
        return payload


def server_us_per_unit(units: int) -> float:
    server = TaskFarmServer(policy=FixedGranularity(1))
    pid = server.submit(Problem("count", _CountDM(units), _EchoAlgorithm()), 0.0)
    server.register_donor("probe", 0.0)
    now = 0.0
    start = time.perf_counter()
    while True:
        now += 1e-3
        assignment = server.request_work("probe", now)
        if assignment is None:
            break
        server.submit_result(
            WorkResult(
                problem_id=pid,
                unit_id=assignment.unit_id,
                value=assignment.payload,
                donor_id="probe",
                compute_seconds=1e-3,
                items=assignment.items,
            ),
            now,
        )
    elapsed = time.perf_counter() - start
    assert server.final_result(pid) == units
    return elapsed / units * 1e6


def sim_us_per_unit(donors: int) -> float:
    rng = random.Random(SEED)
    costs = [rng.uniform(20.0, 60.0) for _ in range(donors * SIM_ITEMS_PER_DONOR)]
    trace = WorkloadTrace.single_stage(costs, bytes_per_item=2_000, name="fleet")
    cluster = SimCluster(
        heterogeneous_pool(donors, seed=SEED),
        policy=FixedGranularity(SIM_ITEMS_PER_UNIT),
        lease_timeout=3_600.0,
        idle_poll=30.0,
        execute=False,
        seed=SEED,
    )
    start = time.perf_counter()
    pid = cluster.submit(trace_problem(trace))
    report = cluster.run()
    elapsed = time.perf_counter() - start
    assert report.completed and report.results[pid]["items"] == len(costs)
    units = cluster.obs.meters.snapshot()["counters"]["farm.units.completed"]
    return elapsed / units * 1e6


def _best(probe, arg) -> float:
    return min(probe(arg) for _ in range(REPEATS))


def test_control_plane_cost_is_flat():
    server = {units: _best(server_us_per_unit, units) for units in SERVER_UNITS}
    sim = {donors: _best(sim_us_per_unit, donors) for donors in SIM_DONORS}
    server_ratio = server[SERVER_UNITS[-1]] / server[SERVER_UNITS[0]]
    sim_ratio = sim[SIM_DONORS[-1]] / sim[SIM_DONORS[0]]

    lines = [
        f"wall-clock us per unit, best of {REPEATS}",
        "",
        f"{'bare server, units':<22}"
        + "".join(f"{units:>10,}" for units in SERVER_UNITS),
        f"{'us/unit':<22}" + "".join(f"{server[u]:>10.1f}" for u in SERVER_UNITS),
        "",
        f"{'sim, donors':<22}" + "".join(f"{d:>10,}" for d in SIM_DONORS),
        f"{'us/unit':<22}" + "".join(f"{sim[d]:>10.1f}" for d in SIM_DONORS),
        "",
        f"server {SERVER_UNITS[-1]:,} / {SERVER_UNITS[0]:,} units: "
        f"{server_ratio:.2f}x (gate: <= {GATE_SERVER_RATIO}x)",
        f"sim {SIM_DONORS[-1]:,} / {SIM_DONORS[0]:,} donors: "
        f"{sim_ratio:.2f}x (gate: <= {GATE_SIM_RATIO}x)",
    ]
    write_report("controlplane", "Control-plane cost per unit", lines)

    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "repeats": REPEATS,
        "server_us_per_unit": {str(u): round(server[u], 2) for u in SERVER_UNITS},
        "sim_us_per_unit": {str(d): round(sim[d], 2) for d in SIM_DONORS},
        "server_ratio": round(server_ratio, 3),
        "sim_ratio": round(sim_ratio, 3),
        "gate_server_ratio": GATE_SERVER_RATIO,
        "gate_sim_ratio": GATE_SIM_RATIO,
        "workload": {
            "sim_items_per_donor": SIM_ITEMS_PER_DONOR,
            "sim_items_per_unit": SIM_ITEMS_PER_UNIT,
            "seed": SEED,
        },
    }
    (OUT_DIR / "BENCH_controlplane.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    assert server_ratio <= GATE_SERVER_RATIO, (
        f"server cost grows with history: {server_ratio:.2f}x from "
        f"{SERVER_UNITS[0]:,} to {SERVER_UNITS[-1]:,} units"
    )
    assert sim_ratio <= GATE_SIM_RATIO, (
        f"sim cost grows with fleet size: {sim_ratio:.2f}x from "
        f"{SIM_DONORS[0]} to {SIM_DONORS[-1]} donors"
    )
