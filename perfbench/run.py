"""Farm benchmark: wall-clock time-to-result on four workloads.

Usage (from the root of a checkout of this repository)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed loops: donors pull work, as the paper's clients do):

``dsearch-live``
    One DNA Smith-Waterman search over RMI and the data channel: 2
    queries against 3000 subjects of ~300 bp with planted homologs.
``dprml-staged``
    Two concurrent DPRml instances on one 16-taxon x 400-site HKY85
    alignment, each with its own addition order.
``farm-noop``
    8000 one-item no-op units through the full live control plane, two
    closed-loop donor connections from this process; the journal is
    kept in memory (``MemoryStore``) so disk latency stays out.
``fleet-sim``
    ``SimCluster`` in trace mode: 400 heterogeneous semi-idle donors,
    20 items each, 2 items per unit.

Live workloads run the server in its own process with a journal (an
fsync'd ``JournalWriter(DirStore)`` like ``repro-server --journal``,
except farm-noop) and two donors.  With ``--trace 0`` the benchmark repeats trials (each
with inputs derived from the seed and the trial number) until
``--seconds`` have passed and reports the median of each end-to-end
metric.  With ``--trace 1`` it runs one untraced and one traced trial
plus the scaling probe, and reports the per-layer metrics; the spans go
to a Chrome trace-event file next to a per-layer table under
``.perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"

#: Never plan trials past this many seconds, whatever --seconds says.
HARD_STOP_S = 150.0

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def fingerprint(journal_dir: Path) -> dict:
    """What the timings depend on: cores, CPU, versions, and whether
    the journal lives on tmpfs (an fsync there costs almost nothing)."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fstype = "unknown"
    try:
        best = ""
        target = str(journal_dir.resolve())
        for line in Path("/proc/self/mountinfo").read_text().splitlines():
            fields = line.split()
            mount = fields[4]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
                best, fstype = mount, fields[fields.index("-") + 1]
    except (OSError, ValueError, IndexError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "journal_fs": fstype,
        "journal_on_tmpfs": fstype == "tmpfs",
    }


def _warm_imports(workload: str) -> None:
    """Import what a trial imports, so the first trial's timings do not
    include module loading that later trials skip."""
    import repro.rmi  # noqa: F401
    from perfbench import inputs

    if workload == "dsearch-live":
        import repro.apps.dsearch.driver  # noqa: F401
        import repro.bio.align.sw  # noqa: F401
        inputs.dsearch_inputs(0)
    elif workload == "dprml-staged":
        import repro.apps.dprml.driver  # noqa: F401
        import repro.bio.phylo.likelihood  # noqa: F401
        inputs.dprml_inputs(0)
    elif workload == "fleet-sim":
        import repro.cluster.sim  # noqa: F401
        inputs.fleet_inputs(0, donors=2)


def _trial_line(k: int, trial: dict) -> str:
    line = (
        f"trial {k}: setup {trial['setup_s']:.4f} s, solve {trial['solve_s']:.4f} s, "
        f"peak RSS {trial['peak_rss_bytes'] / 1e6:.1f} MB, "
        f"{trial['failed']}/{trial['attempted']} failed"
    )
    if trial["errors"]:
        line += f", OUTPUT CHECK FAILED: {trial['errors'][:3]}"
    return line


def _outcome(trials: list[dict]) -> tuple[bool, int, int]:
    """correct, attempted, failed over *trials*; a trial whose output
    check failed counts as entirely failed."""
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["attempted"] if t["errors"] else t["failed"] for t in trials)
    return all(not t["errors"] for t in trials), max(1, attempted), failed


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from perfbench import workloads
    from perfbench.stats import describe

    trials = []
    start = time.perf_counter()
    budget = min(seconds, HARD_STOP_S)
    while True:
        trial_start = time.perf_counter()
        trial = workloads.trial(workload, seed * 1000 + len(trials), WORK / "work")
        print(_trial_line(len(trials), trial), flush=True)
        trials.append(trial)
        # Start another trial only if it should end within the budget.
        last = time.perf_counter() - trial_start
        if time.perf_counter() - start + last > budget:
            break
    correct, attempted, failed = _outcome(trials)
    setup = [t["setup_s"] for t in trials]
    solve = [t["solve_s"] for t in trials]
    rss = [t["peak_rss_bytes"] / 1e6 for t in trials]
    print(describe("setup_s", "s", setup))
    print(describe("solve_s", "s", solve))
    print(describe("peak_rss_mb", "MB", rss))
    rtt = [x for t in trials for d in t.get("donors", ()) for x in d["rtt_s"]]
    if rtt:
        print(describe("unit_rtt_ms", "ms", rtt, scale=1e3))
    if workload == "fleet-sim":
        print(describe("makespan_sim_s", "sim_s", [t["makespan_sim_s"] for t in trials]))
    print(f"fail_frac: {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    values = {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(solve),
        "peak_rss_mb": statistics.median(rss),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, {"trials": [_strip(t) for t in trials]}


def trace_run(workload: str, seed: int) -> tuple[dict, dict]:
    from perfbench import layers, workloads
    from perfbench.spans import chrome_trace

    trial_seed = seed * 1000
    untraced = workloads.trial(workload, trial_seed, WORK / "work")
    print("untraced " + _trial_line(0, untraced), flush=True)
    traced = workloads.trial(workload, trial_seed, WORK / "work", trace=True)
    print("traced   " + _trial_line(0, traced), flush=True)
    trials = [untraced, traced]
    if workload == "fleet-sim":
        metrics, table = layers.sim_metrics(traced, untraced)
        if traced["makespan_sim_s"] != untraced["makespan_sim_s"]:
            traced["errors"].append(
                f"makespan {traced['makespan_sim_s']} traced != {untraced['makespan_sim_s']} untraced"
            )
        for donors in (100, 400, 1000):
            metrics.set(f"sim.us_per_unit.{donors}", workloads.sim_probe(donors, trial_seed))
        metrics.skip("probe runs on farm-noop",
                     "server.us_per_unit.2k", "server.us_per_unit.8k", "server.us_per_unit.20k")
    else:
        metrics, table = layers.live_metrics(traced, untraced)
        if workload == "farm-noop":
            for units, label in ((2000, "2k"), (8000, "8k"), (20000, "20k")):
                metrics.set(f"server.us_per_unit.{label}", workloads.server_probe(units, trial_seed))
        else:
            metrics.skip("probe runs on farm-noop",
                         "server.us_per_unit.2k", "server.us_per_unit.8k", "server.us_per_unit.20k")
        metrics.skip("probe runs on fleet-sim",
                     "sim.us_per_unit.100", "sim.us_per_unit.400", "sim.us_per_unit.1000")

    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    trace_path = out / f"{stem}.trace.json"
    trace_path.write_text(json.dumps(chrome_trace(traced["spans"])))
    table_text = _layer_table(workload, traced, table, metrics)
    (out / f"{stem}.layers.txt").write_text(table_text)
    print(table_text)
    print(f"trace file: {trace_path.relative_to(ROOT)} ({len(traced['spans'])} spans)")
    correct, attempted, failed = _outcome(trials)
    from perfbench.layers import PER_LAYER

    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics.values[n], "unit": u} for n, u in PER_LAYER.items()},
    }
    return summary, {"trials": [_strip(t) for t in trials], "absent": metrics.absent,
                     "blocking_path": table}


def _layer_table(workload: str, traced: dict, table: dict, metrics) -> str:
    from perfbench.layers import PER_LAYER

    lines = [f"per-layer self time along the blocking path ({workload}, "
             f"traced solve_s {traced['solve_s']:.4f} s)"]
    for path, layer_times in table.items():
        total = sum(layer_times.values())
        lines.append(f"  {path}: {total:.4f} s = {total / traced['solve_s']:.1%} of solve_s")
        for layer, secs in sorted(layer_times.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {layer:<14} {secs:10.4f} s")
    lines.append("per-layer metrics")
    for name, unit in PER_LAYER.items():
        value = metrics.values[name]
        reason = metrics.absent.get(name)
        lines.append(f"  {name:<28} {value:14.6g} {unit}" + (f"   (absent: {reason})" if reason else ""))
    return "\n".join(lines)


def _strip(trial: dict) -> dict:
    """A trial without its spans and program outputs, for the result file."""
    keep = {k: v for k, v in trial.items() if k not in ("spans", "results", "server", "donors", "meters")}
    keep["units_per_donor"] = [d["units"] for d in trial.get("donors", ())]
    return keep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dsearch-live", "dprml-staged", "farm-noop", "fleet-sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    env = fingerprint(WORK)
    print("env: " + json.dumps(env), flush=True)
    _warm_imports(args.workload)
    if args.trace:
        summary, detail = trace_run(args.workload, args.seed)
    else:
        summary, detail = measure(args.workload, args.seed, args.seconds)
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "args": vars(args), "summary": summary, **detail}, indent=1)
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
