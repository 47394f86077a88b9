"""Per-layer metrics of one traced trial.

Timings come from the trial's spans (see :mod:`perfbench.seams`);
counts come from the meters the program exports (``farm.*``, ``rmi.*``,
``data.*``, ``sim.*``).  Every metric in :data:`PER_LAYER` is reported
for every workload; one a workload cannot produce reads 0 and gets a
reason in ``absent``.
"""

from __future__ import annotations

import statistics

from perfbench.spans import layer_self_times, self_times
from perfbench.stats import MIN_BEYOND, beyond, percentile

#: Per-layer metric name -> unit, grouped by the layer they describe.
PER_LAYER: dict[str, str] = {
    # bio.align
    "align.cells": "count",
    "align.pad_eff": "ratio",
    "align.compute_s": "s",
    "align.mcells_per_s": "Mcells/s",
    # bio.phylo
    "phylo.placements": "count",
    "phylo.compute_s": "s",
    "phylo.placements_per_s": "1/s",
    # core.client
    "donor.busy_frac": "ratio",
    "donor.idle_s": "s",
    "donor.idle_polls_per_unit": "ratio",
    # core.scheduler
    "sched.units": "count",
    "sched.unit_s_p50": "s",
    "sched.unit_s_p90": "s",
    "sched.tail_s": "s",
    # core.server
    "server.request_us_p50": "us",
    "server.request_us_p99": "us",
    "server.submit_us_p50": "us",
    "server.submit_us_p99": "us",
    "server.us_per_unit": "us",
    "server.bytes_per_unit": "B",
    "server.wasted_frac": "ratio",
    "server.idle_poll_frac": "ratio",
    # core.journal
    "journal.records_per_unit": "ratio",
    "journal.fsyncs_per_unit": "ratio",
    "journal.bytes_per_unit": "B",
    "journal.append_us_p50": "us",
    "journal.fsync_us_p50": "us",
    "journal.fsync_us_p99": "us",
    # rmi
    "rmi.calls_per_unit": "ratio",
    "rmi.bytes_per_unit": "B",
    "rmi.overhead_us_p50": "us",
    "rmi.unit_rtt_p50_ms": "ms",
    "rmi.unit_rtt_p99_ms": "ms",
    # core.blobs / rmi.datachannel
    "blob.fetches": "count",
    "blob.bytes": "B",
    "blob.fetch_s": "s",
    "cache.hit_frac": "ratio",
    # cluster.sim
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.server_frac": "ratio",
    "sim.us_per_unit": "us",
    "sim.makespan_s": "sim_s",
    # scaling probe
    "server.us_per_unit.2k": "us",
    "server.us_per_unit.8k": "us",
    "server.us_per_unit.20k": "us",
    "sim.us_per_unit.100": "us",
    "sim.us_per_unit.400": "us",
    "sim.us_per_unit.1000": "us",
    # tracing itself
    "trace.overhead_s": "s",
}


class Metrics:
    """Collects values and the reason for every metric left at 0."""

    def __init__(self) -> None:
        self.values = {name: 0.0 for name in PER_LAYER}
        self.absent: dict[str, str] = {}

    def set(self, name: str, value: float) -> None:
        if name not in PER_LAYER:
            raise KeyError(name)
        self.values[name] = float(value)
        self.absent.pop(name, None)

    def skip(self, reason: str, *names: str) -> None:
        for name in names:
            self.values[name] = 0.0
            self.absent[name] = reason

    def set_p99(self, name: str, samples: list[float], scale: float) -> None:
        """A p99 is only reported with at least MIN_BEYOND samples beyond it."""
        if beyond(len(samples), 99.0) >= MIN_BEYOND:
            self.set(name, percentile(samples, 99.0) * scale)
        else:
            self.skip(
                f"{len(samples)} samples; a p99 needs {MIN_BEYOND} beyond it", name
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def link_remote_spans(spans: list[dict]) -> None:
    """Make each server-side facade span of a unit the child of the
    donor-side port call it served, matched by call name and unit key,
    so the donor's RMI span keeps only the wire and marshalling time."""
    client = {
        (s["name"], tuple(s["key"])): s
        for s in spans
        if s["layer"] == "rmi" and s["key"] is not None
    }
    for span in spans:
        if span["layer"] != "core.server" or span["key"] is None:
            continue
        name = span["name"].split(".", 1)[1]
        caller = client.get((name, tuple(span["key"])))
        if caller and caller["start"] <= span["start"] and span["end"] <= caller["end"]:
            span["parent"] = caller["id"]


def subtree(spans: list[dict], root_id: str) -> list[dict]:
    """The span *root_id* and all its descendants."""
    children: dict[str, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    found = [s for s in spans if s["id"] == root_id]
    for span in found:
        found.extend(children.get(span["id"], ()))
    return found


def _durations(spans: list[dict], **match) -> list[float]:
    return [
        s["end"] - s["start"]
        for s in spans
        if all(s.get(k) == v for k, v in match.items())
    ]


def live_metrics(trial: dict, untraced: dict) -> tuple[Metrics, dict]:
    """Per-layer metrics of a traced live trial; also returns the
    per-layer self-time table along the donors' blocking path."""
    m = Metrics()
    spans = trial["spans"]
    link_remote_spans(spans)
    selves = self_times(spans)
    counters = trial["server"]["meters"]["counters"]
    units = counters.get("farm.units.completed", 0)
    issued = counters.get("farm.units.issued", 0)
    donors = trial["donors"]

    # bio.align
    align_s = sum(_durations(spans, layer="bio.align"))
    cells = counters.get("farm.align.cells.effective", 0)
    if align_s:
        m.set("align.cells", cells)
        m.set("align.pad_eff", _ratio(cells, counters.get("farm.align.cells.padded", 0)))
        m.set("align.compute_s", align_s)
        m.set("align.mcells_per_s", _ratio(cells, align_s) / 1e6)
    else:
        m.skip("no alignment work in this workload",
               "align.cells", "align.pad_eff", "align.compute_s", "align.mcells_per_s")
    # bio.phylo
    phylo_s = sum(_durations(spans, layer="bio.phylo"))
    if phylo_s:
        placements = sum(getattr(r, "evaluations", 0) for r in trial["results"])
        m.set("phylo.placements", placements)
        m.set("phylo.compute_s", phylo_s)
        m.set("phylo.placements_per_s", _ratio(placements, phylo_s))
    else:
        m.skip("no likelihood work in this workload",
               "phylo.placements", "phylo.compute_s", "phylo.placements_per_s")

    # core.client: per donor, busy = computing; idle = the loop's own time.
    run_spans = [s for s in spans if s["name"] == "donor.run"]
    compute_layers = ("bio.align", "bio.phylo", "app.compute")
    busy = [
        _ratio(
            sum(s["end"] - s["start"] for s in spans
                if s["process"] == run["process"] and s["layer"] in compute_layers),
            run["end"] - run["start"],
        )
        for run in run_spans
    ]
    m.set("donor.busy_frac", statistics.mean(busy) if busy else 0.0)
    m.set("donor.idle_s", sum(selves[run["id"]] for run in run_spans))
    m.set("donor.idle_polls_per_unit", _ratio(sum(d["idle_polls"] for d in donors), units))

    # core.scheduler: a unit's time on its donor, grant to submit.
    granted = {tuple(s["key"]): s["end"] for s in spans
               if s["layer"] == "rmi" and s["name"] == "request_work" and s["key"]}
    unit_s = [s["start"] - granted[tuple(s["key"])] for s in spans
              if s["layer"] == "rmi" and s["name"] == "submit_result"
              and s["key"] and tuple(s["key"]) in granted]
    m.set("sched.units", issued)
    if unit_s:
        m.set("sched.unit_s_p50", statistics.median(unit_s))
        m.set("sched.unit_s_p90", percentile(unit_s, 90.0))
    last_done = [
        max((s["end"] for s in spans if s["process"] == run["process"]
             and s["name"] == "submit_result"), default=run["start"])
        for run in run_spans
    ]
    m.set("sched.tail_s", max(last_done) - min(last_done) if last_done else 0.0)

    # core.server: facade self time, journal excluded.
    request_us = [selves[s["id"]] * 1e6 for s in spans if s["name"] == "facade.request_work"]
    submit_us = [selves[s["id"]] * 1e6 for s in spans if s["name"] == "facade.submit_result"]
    if request_us:
        m.set("server.request_us_p50", statistics.median(request_us))
    if submit_us:
        m.set("server.submit_us_p50", statistics.median(submit_us))
    m.set_p99("server.request_us_p99", request_us, 1.0)
    m.set_p99("server.submit_us_p99", submit_us, 1.0)
    server_self = sum(selves[s["id"]] for s in spans if s["layer"] == "core.server")
    m.set("server.us_per_unit", _ratio(server_self * 1e6, units))
    report = trial["server"]
    m.set("server.bytes_per_unit",
          _ratio(report["rss_peak_bytes"] - report["rss_ready_bytes"], units))
    wasted = sum(counters.get(f"farm.units.{k}", 0) for k in ("duplicate", "stale", "requeued"))
    m.set("server.wasted_frac", _ratio(wasted, issued))
    m.set("server.idle_poll_frac", _ratio(sum(d["idle_polls"] for d in donors), len(request_us)))

    # core.journal
    m.set("journal.records_per_unit", _ratio(counters.get("farm.journal.records", 0), units))
    m.set("journal.fsyncs_per_unit", _ratio(counters.get("farm.journal.fsyncs", 0), units))
    m.set("journal.bytes_per_unit", _ratio(counters.get("farm.journal.bytes", 0), units))
    appends = [d * 1e6 for d in _durations(spans, name="journal.append")]
    fsyncs = [d * 1e6 for d in _durations(spans, name="journal.fsync")]
    if appends:
        m.set("journal.append_us_p50", statistics.median(appends))
    if fsyncs:
        m.set("journal.fsync_us_p50", statistics.median(fsyncs))
    m.set_p99("journal.fsync_us_p99", fsyncs, 1.0)

    # rmi: calls and bytes per unit; a call's own cost is the donor's
    # round trip minus the facade time it contains.
    m.set("rmi.calls_per_unit", _ratio(counters.get("rmi.calls", 0), units))
    m.set("rmi.bytes_per_unit", _ratio(
        counters.get("rmi.bytes.sent", 0) + counters.get("rmi.bytes.received", 0), units))
    served = {s["parent"] for s in spans if s["layer"] == "core.server" and s["parent"]}
    overhead = [selves[s["id"]] * 1e6 for s in spans if s["id"] in served]
    if overhead:
        m.set("rmi.overhead_us_p50", statistics.median(overhead))
    rtt = [x for d in untraced["donors"] for x in d["rtt_s"]]
    if rtt:
        m.set("rmi.unit_rtt_p50_ms", statistics.median(rtt) * 1e3)
    m.set_p99("rmi.unit_rtt_p99_ms", rtt, 1e3)

    # core.blobs / rmi.datachannel
    fetches = _durations(spans, layer="core.blobs")
    hits = counters.get("farm.cache.hits", 0)
    misses = counters.get("farm.cache.misses", 0)
    if fetches or hits or misses:
        m.set("blob.fetches", len(fetches))
        m.set("blob.bytes", sum(v for k, v in counters.items() if k.startswith("data.bytes.")))
        m.set("blob.fetch_s", sum(fetches))
        m.set("cache.hit_frac", _ratio(hits, hits + misses))
    else:
        m.skip("this workload ships no shared blobs",
               "blob.fetches", "blob.bytes", "blob.fetch_s", "cache.hit_frac")

    m.skip("live workload: no simulator", "sim.events", "sim.us_per_event",
           "sim.server_frac", "sim.us_per_unit", "sim.makespan_s")
    m.set("trace.overhead_s", trial["solve_s"] - untraced["solve_s"])

    # Blocking path: one donor's loop, layer by layer (self times), plus
    # what the benchmark process does around it.
    table = {run["process"]: layer_self_times(subtree(spans, run["id"]), selves)
             for run in run_spans}
    table["bench"] = layer_self_times([s for s in spans if s["process"] == "bench"], selves)
    return m, table


def sim_metrics(trial: dict, untraced: dict) -> tuple[Metrics, dict]:
    """Per-layer metrics of a traced fleet-sim trial."""
    m = Metrics()
    spans = trial["spans"]
    selves = self_times(spans)
    counters = trial["meters"]["counters"]
    units = counters.get("farm.units.completed", 0)
    issued = counters.get("farm.units.issued", 0)
    run = next(s for s in spans if s["name"] == "sim.run")
    run_s = run["end"] - run["start"]
    server_s = sum(s["end"] - s["start"] for s in spans if s["layer"] == "core.server")

    m.skip("trace mode: the simulator charges cost hints, no alignment runs",
           "align.cells", "align.pad_eff", "align.compute_s", "align.mcells_per_s")
    m.skip("trace mode: no likelihood work", "phylo.placements", "phylo.compute_s",
           "phylo.placements_per_s")
    m.skip("simulated donors have no wall-clock loop",
           "donor.busy_frac", "donor.idle_s", "donor.idle_polls_per_unit")
    m.set("sched.units", issued)
    m.skip("simulated units take simulated time; see sim.makespan_s",
           "sched.unit_s_p50", "sched.unit_s_p90", "sched.tail_s")

    request_us = [selves[s["id"]] * 1e6 for s in spans if s["name"] == "server.request_work"]
    submit_us = [selves[s["id"]] * 1e6 for s in spans if s["name"] == "server.submit_result"]
    if request_us:
        m.set("server.request_us_p50", statistics.median(request_us))
    if submit_us:
        m.set("server.submit_us_p50", statistics.median(submit_us))
    m.set_p99("server.request_us_p99", request_us, 1.0)
    m.set_p99("server.submit_us_p99", submit_us, 1.0)
    m.set("server.us_per_unit", _ratio(server_s * 1e6, units))
    m.skip("the simulator shares the benchmark process", "server.bytes_per_unit")
    wasted = sum(counters.get(f"farm.units.{k}", 0) for k in ("duplicate", "stale", "requeued"))
    m.set("server.wasted_frac", _ratio(wasted, issued))
    m.set("server.idle_poll_frac", _ratio(len(request_us) - issued, len(request_us)))

    m.skip("the simulated server runs without a journal",
           "journal.records_per_unit", "journal.fsyncs_per_unit", "journal.bytes_per_unit",
           "journal.append_us_p50", "journal.fsync_us_p50", "journal.fsync_us_p99")
    m.skip("the simulated server is called in-process",
           "rmi.calls_per_unit", "rmi.bytes_per_unit", "rmi.overhead_us_p50",
           "rmi.unit_rtt_p50_ms", "rmi.unit_rtt_p99_ms")
    m.skip("trace mode ships no shared blobs",
           "blob.fetches", "blob.bytes", "blob.fetch_s", "cache.hit_frac")

    events = counters.get("sim.events", 0)
    m.set("sim.events", events)
    m.set("sim.us_per_event", _ratio(untraced["solve_s"] * 1e6, events))
    m.set("sim.server_frac", _ratio(server_s, run_s))
    m.set("sim.us_per_unit", _ratio(untraced["solve_s"] * 1e6, units))
    m.set("sim.makespan_s", untraced["makespan_sim_s"])
    m.set("trace.overhead_s", trial["solve_s"] - untraced["solve_s"])
    table = {"sim": layer_self_times(spans, selves)}
    return m, table
