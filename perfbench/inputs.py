"""Seeded inputs for every workload, and the no-op problem.

Everything a workload feeds the program is built here from the
workload seed alone, so the same seed gives byte-identical inputs.  The
program only ever receives the generated inputs, never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import Algorithm, DataManager, Problem
from repro.core.workunit import UnitPayload, WorkResult

# -- sizes ------------------------------------------------------------------

DSEARCH_QUERIES = 2
DSEARCH_QUERY_LENGTH = 300
DSEARCH_SUBJECTS = 3000
DSEARCH_HOMOLOGS = 3
DSEARCH_UNIT_TARGET_S = 0.5

DPRML_TAXA = 16
DPRML_SITES = 400
DPRML_INSTANCES = 2

NOOP_UNITS = 8000

FLEET_DONORS = 400
FLEET_ITEMS_PER_DONOR = 20
FLEET_ITEMS_PER_UNIT = 2
FLEET_ITEM_COST = (20.0, 60.0)
#: Longer than the slowest donor's unit (2 items x 60 at 0.25x speed,
#: 40 % available: 1200 sim-s), so no lease expires on a live donor.
FLEET_LEASE_TIMEOUT_S = 3600.0
#: An idle simulated donor asks again after this long: about the cap of
#: the live donor's idle backoff (``repro-donor --idle-sleep 2`` x 16).
FLEET_IDLE_POLL_S = 30.0


# -- dsearch-live -----------------------------------------------------------


@dataclass
class DSearchInputs:
    database: list
    queries: list
    homologs: dict[str, list[str]]
    config: object


def dsearch_inputs(seed: int) -> DSearchInputs:
    """``DSEARCH_QUERIES`` DNA queries against one database that holds
    ``DSEARCH_HOMOLOGS`` diverged copies of each query among
    ``DSEARCH_SUBJECTS`` subjects of about the query's length."""
    from repro.apps.dsearch import DSearchConfig
    from repro.bio.seq import DNA
    from repro.bio.seq.generate import mutate_sequence, random_sequence, seeded_database

    rng = np.random.default_rng([seed, 1])
    queries = [
        random_sequence(f"query{i}", DSEARCH_QUERY_LENGTH, DNA, rng)
        for i in range(DSEARCH_QUERIES)
    ]
    # The first query's homologs come with the decoys; the others' are
    # planted at seeded positions.
    database, first = seeded_database(
        queries[0],
        decoy_count=DSEARCH_SUBJECTS - DSEARCH_QUERIES * DSEARCH_HOMOLOGS,
        homolog_count=DSEARCH_HOMOLOGS,
        seed=seed,
        substitution_rate=0.15,
    )
    homologs = {queries[0].seq_id: first}
    for query in queries[1:]:
        ids = []
        for h in range(DSEARCH_HOMOLOGS):
            hom = mutate_sequence(
                query, rng, substitution_rate=0.15, new_id=f"{query.seq_id}-homolog{h}"
            )
            database.insert(int(rng.integers(0, len(database) + 1)), hom)
            ids.append(hom.seq_id)
        homologs[query.seq_id] = ids
    config = DSearchConfig(unit_target_seconds=DSEARCH_UNIT_TARGET_S)
    return DSearchInputs(database, queries, homologs, config)


def dsearch_problems(inputs: DSearchInputs) -> list[Problem]:
    from repro.apps.dsearch.driver import build_problem

    return [build_problem(inputs.database, inputs.queries, inputs.config)]


def dsearch_policy_args(inputs: DSearchInputs, donors: int) -> dict:
    """The adaptive policy ``run_dsearch`` uses for *donors* donors."""
    n = len(inputs.database)
    return {
        "kind": "adaptive",
        "target_seconds": inputs.config.unit_target_seconds,
        "probe_items": max(1, n // (donors * 8)),
        "max_items": max(1, n // donors),
    }


# -- dprml-staged -----------------------------------------------------------


@dataclass
class DPRmlInputs:
    alignment: object
    configs: list


def dprml_inputs(seed: int) -> DPRmlInputs:
    """One HKY85 alignment simulated on a random Yule tree; one config
    per concurrent instance, each with its own addition order."""
    from repro.apps.dprml import DPRmlConfig
    from repro.bio.phylo.models import HKY85
    from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment

    freqs = (0.3, 0.2, 0.2, 0.3)
    tree = random_yule_tree(DPRML_TAXA, seed=seed, mean_branch=0.12)
    alignment = simulate_alignment(tree, HKY85(2.5, freqs), sites=DPRML_SITES, seed=seed + 1)
    configs = [
        DPRmlConfig(model="hky85", kappa=2.5, freqs=freqs, order_seed=seed * 10 + i + 1)
        for i in range(DPRML_INSTANCES)
    ]
    return DPRmlInputs(alignment, configs)


def dprml_problems(inputs: DPRmlInputs) -> list[Problem]:
    from repro.apps.dprml.driver import build_problem

    return [
        build_problem(inputs.alignment, config, name=f"dprml-{i}")
        for i, config in enumerate(inputs.configs)
    ]


def dprml_policy_args(inputs: DPRmlInputs) -> dict:
    """The adaptive policy ``run_many_dprml`` uses."""
    return {
        "kind": "adaptive",
        "target_seconds": inputs.configs[0].unit_target_seconds,
        "probe_items": 1,
    }


# -- farm-noop --------------------------------------------------------------


class NoopDataManager(DataManager):
    """One item per value; a unit's result is the sum of its values.

    Folds are counted per unit id, so a unit folded twice shows as
    ``duplicate_folds`` in the final result instead of silently
    inflating the sum.
    """

    def __init__(self, values: list[int]):
        self.values = list(values)
        self._cursor = 0
        self._sum = 0
        self._items_folded = 0
        self._folded_units: set[int] = set()
        self._duplicates = 0

    def total_items(self) -> int:
        return len(self.values)

    def next_unit(self, max_items: int) -> UnitPayload | None:
        if self._cursor >= len(self.values):
            return None
        lo = self._cursor
        hi = min(len(self.values), lo + max_items)
        self._cursor = hi
        return UnitPayload(payload=(lo, self.values[lo:hi]), items=hi - lo, input_bytes=16)

    def handle_result(self, result: WorkResult) -> None:
        lo, total = result.value
        if lo in self._folded_units:
            self._duplicates += 1
        self._folded_units.add(lo)
        self._sum += total
        self._items_folded += result.items

    def is_complete(self) -> bool:
        return self._items_folded >= len(self.values)

    def progress(self) -> float:
        return self._items_folded / len(self.values)

    def final_result(self) -> dict:
        return {
            "sum": self._sum,
            "items_issued": self._cursor,
            "items_folded": self._items_folded,
            "duplicate_folds": self._duplicates,
        }


class NoopAlgorithm(Algorithm):
    """Returns ``(offset, sum of the unit's values)``: no compute."""

    def compute(self, payload):
        lo, values = payload
        return lo, sum(values)


def noop_values(seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 3])
    return [int(v) for v in rng.integers(0, 1_000_000, size=NOOP_UNITS)]


def noop_problems(values: list[int]) -> list[Problem]:
    return [Problem("noop", NoopDataManager(values), NoopAlgorithm())]


NOOP_POLICY = {"kind": "fixed", "items": 1}


# -- fleet-sim --------------------------------------------------------------


@dataclass
class FleetInputs:
    machines: list
    costs: list[float]


def fleet_inputs(seed: int, donors: int = FLEET_DONORS) -> FleetInputs:
    """*donors* heterogeneous semi-idle machines (speeds 0.25-2x, mean
    availability 50-100 %) and ``FLEET_ITEMS_PER_DONOR`` items each."""
    from repro.cluster.sim.machines import heterogeneous_pool

    machines = heterogeneous_pool(donors, seed=seed)
    rng = np.random.default_rng([seed, 4])
    costs = rng.uniform(*FLEET_ITEM_COST, size=donors * FLEET_ITEMS_PER_DONOR)
    return FleetInputs(machines, [float(c) for c in costs])


# -- shared -----------------------------------------------------------------


def make_policy(args: dict):
    """Build the server's granularity policy from a plain dict (it
    crosses a process boundary as JSON)."""
    from repro.core.scheduler import AdaptiveGranularity, FixedGranularity

    args = dict(args)
    kind = args.pop("kind")
    if kind == "fixed":
        return FixedGranularity(args["items"])
    if kind == "adaptive":
        return AdaptiveGranularity(**args)
    raise ValueError(f"unknown policy kind {kind!r}")
