"""One donor: the real ``DonorClient`` against the RMI server.

:func:`run_donor` runs the closed donor loop (pull a unit, compute,
submit, until every problem is complete) over a :class:`TimedPort` and
returns what the benchmark needs: per-unit round trips, call and
failure counts, and, when traced, its spans.  The farm-noop workload
calls it on threads of the benchmark process; the compute workloads run
this module as a donor process, which prints ``{"ready": true}`` once
connected, starts the loop when a line arrives on its standard input,
prints ``{"done": true}`` when the loop ends and then writes its report
as JSON.

Usage: python -m perfbench.donor_proc HOST PORT DONOR_ID REPORT_PATH TRACE MODULES
"""

from __future__ import annotations

import json
import sys

#: Base of the donor's idle backoff, as ``LocalCluster`` uses it.
IDLE_SLEEP_S = 0.05


def run_donor(proxy, donor_id: str, recorder=None) -> dict:
    from perfbench.seams import TimedPort, timed_blob_fetch
    from repro.cluster.local import make_blob_fetch
    from repro.core.client import DonorClient

    port = TimedPort(proxy, recorder)
    fetch = make_blob_fetch(proxy)
    if recorder is not None:
        fetch = timed_blob_fetch(fetch, recorder, port.current_key)
    client = DonorClient(donor_id, port, idle_sleep=IDLE_SLEEP_S, blob_fetch=fetch)
    if recorder is not None:
        with recorder.span("donor.run", "core.client"):
            units = client.run()
    else:
        units = client.run()
    return {
        "donor": donor_id,
        "units": units,
        "rtt_s": port.rtt_s,
        "calls": port.calls,
        "failed": port.failed,
        "idle_polls": port.idle_polls,
        "spans": recorder.spans if recorder is not None else [],
    }


def main(argv: list[str]) -> int:
    host, port, donor_id, report_path, trace, modules = argv
    from perfbench.server_proc import import_modules
    from perfbench.spans import SpanRecorder

    import_modules(modules)
    from repro.rmi import connect

    proxy = connect(host, int(port), "taskfarm")
    recorder = SpanRecorder(donor_id) if trace == "1" else None
    try:
        print(json.dumps({"ready": True}), flush=True)
        if not sys.stdin.readline():
            return 1  # the benchmark went away before starting us
        report = run_donor(proxy, donor_id, recorder)
        print(json.dumps({"done": True}), flush=True)
    finally:
        proxy.close()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
