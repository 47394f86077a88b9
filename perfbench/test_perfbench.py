"""Self-tests of the benchmark's helpers.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``
"""

from __future__ import annotations

import hashlib
import json
import pickle
from types import SimpleNamespace

import pytest

from perfbench import inputs, layers, oracles, stats
from perfbench.spans import SpanRecorder, chrome_trace, layer_self_times, self_times

# -- percentile rule ---------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(99) is None
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10_000) == 99.9
    for n in (100, 200, 1000, 10_000, 123_457):
        assert stats.beyond(n, stats.tail_percentile(n)) >= stats.MIN_BEYOND


def test_nearest_rank_percentile_and_summary():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50.0) == 50.0
    assert stats.percentile(values, 90.0) == 90.0
    summary = stats.summarize(values)
    assert summary == {"n": 100, "median": 50.5, "tail_q": 90.0, "tail": 90.0}
    assert stats.summarize([1.0, 2.0])["tail_q"] is None


def test_p99_metric_is_absent_without_enough_samples():
    m = layers.Metrics()
    m.set_p99("journal.fsync_us_p99", [1.0] * 999, 1.0)
    assert m.values["journal.fsync_us_p99"] == 0.0
    assert "journal.fsync_us_p99" in m.absent
    m.set_p99("journal.fsync_us_p99", [float(i) for i in range(1000)], 2.0)
    assert m.values["journal.fsync_us_p99"] == 2.0 * 989
    assert "journal.fsync_us_p99" not in m.absent


# -- spans and self time -----------------------------------------------------


def _span(sid, start, end, parent=None, layer="x", process="p", name="s", key=None):
    return {"id": sid, "name": name, "layer": layer, "parent": parent, "key": key,
            "process": process, "thread": "t", "start": start, "end": end}


def test_self_time_subtracts_children_once_and_clips():
    spans = [
        _span("root", 0.0, 10.0, layer="a"),
        _span("c1", 1.0, 3.0, "root", layer="b"),
        _span("c2", 2.0, 5.0, "root", layer="b"),  # overlaps c1
        _span("c3", 8.0, 12.0, "root", layer="c"),  # runs past its parent
        _span("g", 1.5, 2.5, "c1", layer="c"),
    ]
    selves = self_times(spans)
    assert selves["root"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selves["c1"] == pytest.approx(1.0)
    assert selves["c2"] == pytest.approx(3.0)
    totals = layer_self_times(spans, selves)
    assert totals == pytest.approx({"a": 4.0, "b": 4.0, "c": 5.0})


def test_recorder_nests_spans_per_thread():
    rec = SpanRecorder("proc")
    with rec.span("outer", "a") as outer:
        with rec.span("inner", "b", key=(1, 2, 0)) as inner:
            pass
    assert inner["parent"] == outer["id"]
    assert outer["parent"] is None
    assert inner["key"] == [1, 2, 0]
    assert [s["name"] for s in rec.spans] == ["inner", "outer"]


def test_remote_span_linking_and_chrome_export():
    spans = [
        _span("d:1", 0.0, 1.0, layer="core.client", process="d", name="donor.run"),
        _span("d:2", 0.1, 0.3, "d:1", layer="rmi", process="d", name="request_work", key=[1, 0, 0]),
        _span("s:1", 0.15, 0.25, None, layer="core.server", process="server",
              name="facade.request_work", key=[1, 0, 0]),
        _span("s:2", 0.4, 0.5, None, layer="core.server", process="server",
              name="facade.request_work"),
    ]
    layers.link_remote_spans(spans)
    assert spans[2]["parent"] == "d:2"
    assert spans[3]["parent"] is None
    assert {s["id"] for s in layers.subtree(spans, "d:1")} == {"d:1", "d:2", "s:1"}
    trace = json.loads(json.dumps(chrome_trace(spans)))
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == 4
    assert {e["cat"] for e in complete} == {"core.client", "rmi", "core.server"}
    assert min(e["ts"] for e in complete) == 0.0


# -- oracles -----------------------------------------------------------------


def _small_dsearch():
    from repro.apps.dsearch import DSearchConfig
    from repro.apps.dsearch.algorithm import DSearchAlgorithm
    from repro.apps.dsearch.datamanager import SearchReport
    from repro.bio.seq import DNA
    from repro.bio.seq.generate import random_sequence, seeded_database

    import numpy as np

    query = random_sequence("q", 80, DNA, np.random.default_rng(5))
    database, homologs = seeded_database(query, decoy_count=30, homolog_count=2, seed=5)
    config = DSearchConfig(top_hits=5)
    data = inputs.DSearchInputs(database, [query], {"q": homologs}, config)
    hits = DSearchAlgorithm(config).compute(([query], database))
    report = SearchReport(hits=hits, database_size=len(database), queries=["q"])
    return data, report


def test_dsearch_oracle_accepts_and_rejects_tampering():
    from dataclasses import replace

    data, report = _small_dsearch()
    assert oracles.check_dsearch(data, report) == []
    hits = report.hits["q"]
    report.hits["q"] = [replace(hits[0], score=hits[0].score + 1.0)] + hits[1:]
    assert oracles.check_dsearch(data, report)
    report.hits["q"] = hits[1:]  # a planted homolog drops out of the top
    assert oracles.check_dsearch(data, report)


def _small_dprml():
    from repro.apps.dprml import DPRmlConfig
    from repro.apps.dprml.datamanager import DPRmlReport
    from repro.bio.phylo.likelihood import TreeLikelihood
    from repro.bio.phylo.models import HKY85
    from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment
    from repro.bio.phylo.tree import parse_newick

    freqs = (0.3, 0.2, 0.2, 0.3)
    tree = random_yule_tree(6, seed=3, mean_branch=0.1)
    alignment = simulate_alignment(tree, HKY85(2.5, freqs), sites=120, seed=4)
    config = DPRmlConfig(model="hky85", kappa=2.5, freqs=freqs)
    parsed = parse_newick(tree.newick())
    logl = TreeLikelihood(
        parsed, alignment.subset(parsed.leaf_names()), config.substitution_model(), config.rates()
    ).log_likelihood()
    data = inputs.DPRmlInputs(alignment, [config])
    return data, DPRmlReport(newick=tree.newick(), log_likelihood=logl, addition_order=[])


def test_dprml_oracle_accepts_and_rejects_tampering():
    from dataclasses import replace

    from repro.bio.phylo.tree import parse_newick

    data, report = _small_dprml()
    assert oracles.check_dprml(data, [report]) == []
    assert oracles.check_dprml(data, [replace(report, log_likelihood=report.log_likelihood + 0.5)])
    tree = parse_newick(report.newick)
    smaller = data.alignment.subset(tree.leaf_names()[:-1])
    assert oracles.check_dprml(inputs.DPRmlInputs(smaller, data.configs), [report])


def test_noop_oracle_accepts_and_rejects_tampering():
    values = [3, 1, 4, 1, 5]
    good = {"sum": 14, "items_issued": 5, "items_folded": 5, "duplicate_folds": 0}
    assert oracles.check_noop(values, good) == []
    assert oracles.check_noop(values, {**good, "sum": 15})
    assert oracles.check_noop(values, {**good, "items_folded": 6})
    assert oracles.check_noop(values, {**good, "duplicate_folds": 1})


def test_noop_problem_runs_exactly_once_in_process():
    from repro.cluster.local import ThreadCluster
    from repro.core.scheduler import FixedGranularity

    values = inputs.noop_values(1)[:300]
    cluster = ThreadCluster(workers=2, policy=FixedGranularity(7))
    pid = cluster.submit(inputs.noop_problems(values)[0])
    cluster.run()
    assert oracles.check_noop(values, cluster.final_result(pid)) == []


def test_fleet_oracle_and_makespan_repeat():
    from perfbench.workloads import fleet_trial

    first = fleet_trial(7, donors=40)
    second = fleet_trial(7, donors=40)
    assert first["errors"] == [] and first["failed"] == 0
    assert first["makespan_sim_s"] == second["makespan_sim_s"]
    unfinished = SimpleNamespace(completed=False)
    assert oracles.check_fleet(unfinished, 10, 10)
    assert oracles.check_fleet(SimpleNamespace(completed=True), 9, 10)


# -- inputs ------------------------------------------------------------------


def _digest(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()


@pytest.mark.parametrize(
    "build",
    [
        lambda seed: inputs.dsearch_inputs(seed).database,
        lambda seed: inputs.dprml_inputs(seed).alignment,
        inputs.noop_values,
        lambda seed: inputs.fleet_inputs(seed, donors=50),
    ],
    ids=["dsearch", "dprml", "noop", "fleet"],
)
def test_same_seed_same_inputs(build):
    assert _digest(build(11)) == _digest(build(11))
    assert _digest(build(11)) != _digest(build(12))


def test_dsearch_inputs_plant_every_homolog_once():
    data = inputs.dsearch_inputs(2)
    ids = [s.seq_id for s in data.database]
    assert len(ids) == len(set(ids)) == inputs.DSEARCH_SUBJECTS
    for query in data.queries:
        assert len(data.homologs[query.seq_id]) == inputs.DSEARCH_HOMOLOGS
        assert set(data.homologs[query.seq_id]) <= set(ids)
