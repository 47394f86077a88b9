"""One trial of each workload: set up, solve, verify, tear down.

A live trial starts a fresh server process (journal, data channel,
facade, RMI) and its donors, submits the workload's problems, waits for
them to complete, fetches and verifies the results, and stops every
process it started.  ``setup_s`` runs from the first input built until
the donors are connected and waiting; ``solve_s`` from the first submit
until the last result has been fetched and verified.

A fleet-sim trial replays a trace through ``SimCluster`` in trace mode
in this process.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench import inputs as inp
from perfbench import oracles
from perfbench.server_proc import MEMORY
from perfbench.spans import SpanRecorder, maybe_span

#: Donors of every live workload, one per core of a two-core host.
DONORS = 2

#: A trial that is not done by then is broken, not slow.
TRIAL_TIMEOUT_S = 120.0

LIVE_WORKLOADS = ("dsearch-live", "dprml-staged", "farm-noop")
WORKLOADS = LIVE_WORKLOADS + ("fleet-sim",)


class TrialError(RuntimeError):
    """A trial could not run to the end (not an output mismatch)."""


def _live_spec(workload: str, seed: int) -> dict:
    """Inputs, problems, server policy and output check of a live workload."""
    if workload == "dsearch-live":
        data = inp.dsearch_inputs(seed)
        return {
            "problems": inp.dsearch_problems(data),
            "policy": inp.dsearch_policy_args(data, DONORS),
            "check": lambda results: oracles.check_dsearch(data, results[0]),
            "donors": "processes",
        }
    if workload == "dprml-staged":
        data = inp.dprml_inputs(seed)
        return {
            "problems": inp.dprml_problems(data),
            "policy": inp.dprml_policy_args(data),
            "check": lambda results: oracles.check_dprml(data, results),
            "donors": "processes",
        }
    if workload == "farm-noop":
        values = inp.noop_values(seed)
        return {
            "problems": inp.noop_problems(values),
            "policy": inp.NOOP_POLICY,
            "check": lambda results: oracles.check_noop(values, results[0]),
            "donors": "threads",
            # Two fsyncs per unit put the shared disk's latency swings
            # (up to 2x in solve_s between runs minutes apart) into
            # every number; the in-memory store keeps the journal's
            # records, framing and pickling and drops only the disk.
            "journal": MEMORY,
        }
    raise ValueError(f"unknown live workload {workload!r}")


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def _read_json_line(proc: subprocess.Popen, what: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise TrialError(f"{what} exited before it was ready (code {proc.wait()})")
    return json.loads(line)


def _stop(proc: subprocess.Popen) -> None:
    """Close a child's stdin and wait for it; kill it if it lingers."""
    try:
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout:
        proc.stdout.close()


def live_trial(workload: str, seed: int, workdir: Path, trace: bool = False) -> dict:
    """Run one live trial; returns its timings, counts and reports."""
    from repro.rmi import connect

    root = Path.cwd()
    trial_dir = workdir / f"{workload}-{seed}"
    shutil.rmtree(trial_dir, ignore_errors=True)
    trial_dir.mkdir(parents=True)
    bench = SpanRecorder("bench") if trace else None
    procs: list[subprocess.Popen] = []
    proxies = []
    threads: list[threading.Thread] = []
    thread_reports: list[dict] = []
    finished = threading.Event()
    try:
        t0 = time.perf_counter()
        spec = _live_spec(workload, seed)
        modules = ",".join(sorted(
            {type(p.data_manager).__module__ for p in spec["problems"]}
            | {type(p.algorithm).__module__ for p in spec["problems"]}
        ))
        server = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server_proc",
             spec.get("journal", str(trial_dir / "journal")),
             str(trial_dir / "server.json"), json.dumps(spec["policy"]), "1" if trace else "0",
             modules],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(root),
        )
        procs.append(server)
        port = _read_json_line(server, "server")["port"]
        proxy = connect("127.0.0.1", port, "taskfarm")
        proxies.append(proxy)
        donor_ids = [f"donor-{i}" for i in range(DONORS)]
        if spec["donors"] == "processes":
            donors = [
                subprocess.Popen(
                    [sys.executable, "-m", "perfbench.donor_proc", "127.0.0.1", str(port),
                     donor_id, str(trial_dir / f"{donor_id}.json"), "1" if trace else "0", modules],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(root),
                )
                for donor_id in donor_ids
            ]
            procs.extend(donors)
            for donor_id, donor in zip(donor_ids, donors):
                _read_json_line(donor, donor_id)
        else:
            from perfbench.donor_proc import run_donor

            donor_proxies = [connect("127.0.0.1", port, "taskfarm") for _ in donor_ids]
            proxies.extend(donor_proxies)

            def donor_thread(donor_proxy, donor_id):
                recorder = SpanRecorder(donor_id) if trace else None
                try:
                    thread_reports.append(run_donor(donor_proxy, donor_id, recorder))
                finally:
                    finished.set()

            threads = [
                threading.Thread(target=donor_thread, args=(p, d), name=d, daemon=True)
                for p, d in zip(donor_proxies, donor_ids)
            ]
        setup_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        with maybe_span(bench, "trial.submit", "bench.submit"):
            pids = [proxy.submit(problem) for problem in spec["problems"]]
        if spec["donors"] == "processes":
            for donor in procs[1:]:
                donor.stdin.write("go\n")
                donor.stdin.flush()
                # The donor prints a line when its loop ends (or dies).
                threading.Thread(
                    target=lambda d=donor: (d.stdout.readline(), finished.set()), daemon=True
                ).start()
        else:
            for thread in threads:
                thread.start()
        # A donor leaves its loop as soon as the server reports every
        # problem complete, so the first donor to finish marks the end;
        # watching donors costs the server nothing, unlike polling it.
        with maybe_span(bench, "trial.wait", "bench.wait"):
            if not finished.wait(TRIAL_TIMEOUT_S):
                raise TrialError(f"{workload} not done after {TRIAL_TIMEOUT_S:.0f}s")
            for pid in pids:
                status = proxy.status_name(pid)
                if status != "complete":
                    raise TrialError(f"problem {pid} ended {status}: {proxy.failure_reason(pid)}")
        with maybe_span(bench, "trial.fetch", "bench.fetch"):
            results = [proxy.final_result(pid) for pid in pids]
        with maybe_span(bench, "trial.verify", "bench.oracle"):
            errors = spec["check"](results)
        solve_s = time.perf_counter() - t1

        for thread in threads:
            thread.join(timeout=TRIAL_TIMEOUT_S)
            if thread.is_alive():
                raise TrialError(f"donor thread {thread.name} did not finish")
        donor_reports = list(thread_reports)
        for donor_id, donor in zip(donor_ids, procs[1:]):
            if donor.wait(timeout=TRIAL_TIMEOUT_S) != 0:
                raise TrialError(f"{donor_id} exited with code {donor.returncode}")
            donor_reports.append(json.loads((trial_dir / f"{donor_id}.json").read_text()))
        for p in proxies:
            p.close()
        proxies.clear()
        _stop(server)
        if server.returncode != 0:
            raise TrialError(f"server exited with code {server.returncode}")
        server_report = json.loads((trial_dir / "server.json").read_text())
    finally:
        for p in proxies:
            p.close()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            _stop(proc)
        shutil.rmtree(trial_dir, ignore_errors=True)

    counters = server_report["meters"]["counters"]
    attempted = counters.get("rmi.calls", 0) + counters.get("farm.units.issued", 0)
    failed = (
        counters.get("rmi.calls.failed", 0)
        + sum(r["failed"] for r in donor_reports)
        + sum(counters.get(f"farm.units.{k}", 0) for k in ("failed", "requeued", "stale"))
        + counters.get("farm.problems.failed", 0)
    )
    return {
        "workload": workload,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "errors": errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "peak_rss_bytes": server_report["rss_peak_bytes"],
        "server": server_report,
        "donors": donor_reports,
        "results": results,
        "spans": (bench.spans if bench else [])
        + server_report["spans"]
        + [s for r in donor_reports for s in r["spans"]],
    }


def fleet_trial(seed: int, trace: bool = False, donors: int = inp.FLEET_DONORS) -> dict:
    """Run one fleet-sim trial in this process."""
    from perfbench.seams import TimedServerCalls
    from repro.cluster.sim import SimCluster
    from repro.cluster.sim.trace import WorkloadTrace, trace_problem
    from repro.core.scheduler import FixedGranularity

    recorder = SpanRecorder("sim") if trace else None
    t0 = time.perf_counter()
    data = inp.fleet_inputs(seed, donors)
    workload = WorkloadTrace.single_stage(data.costs, bytes_per_item=2000, name="fleet")
    cluster = SimCluster(
        data.machines,
        policy=FixedGranularity(inp.FLEET_ITEMS_PER_UNIT),
        lease_timeout=inp.FLEET_LEASE_TIMEOUT_S,
        idle_poll=inp.FLEET_IDLE_POLL_S,
        execute=False,
        seed=seed,
    )
    if recorder is not None:
        cluster.server = TimedServerCalls(cluster.server, recorder, "server")
    problem = trace_problem(workload)
    setup_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    with maybe_span(recorder, "sim.run", "cluster.sim"):
        pid = cluster.submit(problem)
        report = cluster.run()
    result = report.results.get(pid) or {}
    errors = oracles.check_fleet(report, result.get("items", 0), workload.total_items)
    solve_s = time.perf_counter() - t1

    counters = cluster.obs.meters.snapshot()["counters"]
    failed = sum(counters.get(f"farm.units.{k}", 0) for k in ("failed", "requeued", "stale"))
    return {
        "workload": "fleet-sim",
        "setup_s": setup_s,
        "solve_s": solve_s,
        "errors": errors,
        "attempted": int(counters.get("farm.units.issued", 0)),
        "failed": int(failed + counters.get("farm.problems.failed", 0)),
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "makespan_sim_s": report.makespans.get(pid, 0.0),
        "meters": cluster.obs.meters.snapshot(),
        "units": int(counters.get("farm.units.completed", 0)),
        "spans": recorder.spans if recorder else [],
    }


def trial(workload: str, seed: int, workdir: Path, trace: bool = False) -> dict:
    if workload == "fleet-sim":
        return fleet_trial(seed, trace)
    return live_trial(workload, seed, workdir, trace)


# -- scaling probes (traced run only) ----------------------------------------


def server_probe(units: int, seed: int) -> float:
    """Wall-clock µs per unit of the bare ``TaskFarmServer`` state
    machine (no facade, journal or wire) serving *units* one-item no-op
    units to one in-process donor."""
    from repro.core.scheduler import FixedGranularity
    from repro.core.server import TaskFarmServer
    from repro.core.workunit import WorkResult

    values = inp.noop_values(seed)
    values = (values * (units // len(values) + 1))[:units]
    server = TaskFarmServer(policy=FixedGranularity(1))
    algorithm = inp.NoopAlgorithm()
    now = 0.0
    server.register_donor("probe", now)
    pid = server.submit(inp.noop_problems(values)[0], now)
    start = time.perf_counter()
    while True:
        now += 1e-3
        assignment = server.request_work("probe", now)
        if assignment is None:
            break
        server.submit_result(
            WorkResult(
                problem_id=assignment.problem_id,
                unit_id=assignment.unit_id,
                value=algorithm.compute(assignment.payload),
                donor_id="probe",
                compute_seconds=1e-3,
                items=assignment.items,
            ),
            now,
        )
    elapsed = time.perf_counter() - start
    errors = oracles.check_noop(values, server.final_result(pid))
    if errors:
        raise TrialError(f"server probe at {units} units: {errors}")
    return elapsed / units * 1e6


def sim_probe(donors: int, seed: int) -> float:
    """Wall-clock µs per simulated unit of fleet-sim at *donors* donors."""
    result = fleet_trial(seed, donors=donors)
    if result["errors"]:
        raise TrialError(f"sim probe at {donors} donors: {result['errors']}")
    return result["solve_s"] / result["units"] * 1e6
