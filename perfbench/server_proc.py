"""The live server process of one trial.

Builds the stack ``repro-server --journal DIR`` runs: a
``TaskFarmServer`` journaling through ``JournalWriter(DirStore)`` with an
fsync per record (installed by ``recover`` on the empty journal; with
``JOURNAL_DIR`` = ``:memory:`` the writer appends to a ``MemoryStore``), the
bulk data channel, the thread-safe ``ServerFacade`` with its lease
sweeper, and the RMI server.  It prints its port as one JSON line, then
serves until its standard input closes, and finally writes a report:
peak RSS at ready and at exit, the farm's meter snapshot and, when
traced, its spans.

Usage: python -m perfbench.server_proc JOURNAL_DIR REPORT_PATH POLICY_JSON TRACE MODULES
"""

from __future__ import annotations

import json
import resource
import sys
import time


#: JOURNAL_DIR value that journals into memory (``MemoryStore``): the
#: same writer, framing and records, without the disk.
MEMORY = ":memory:"


def import_modules(modules: str) -> None:
    """Import the workload's application modules (comma-separated) up
    front: a long-running server or donor loads them once, so the first
    unpickled problem should not pay for it inside ``solve_s``."""
    import importlib

    for name in filter(None, modules.split(",")):
        importlib.import_module(name)


def _peak_rss_bytes() -> int:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main(argv: list[str]) -> int:
    journal_dir, report_path, policy_json, trace, modules = argv
    import_modules(modules)
    from perfbench.inputs import make_policy
    from perfbench.seams import TimedServerCalls, TimedStore
    from perfbench.spans import SpanRecorder
    from repro.cluster.local import ServerFacade
    from repro.core.journal import DirStore, MemoryStore, recover
    from repro.core.server import TaskFarmServer
    from repro.rmi import RMIServer
    from repro.rmi.datachannel import DataChannelServer

    recorder = SpanRecorder("server") if trace == "1" else None
    server = TaskFarmServer(policy=make_policy(json.loads(policy_json)), lease_timeout=30.0)
    base_store = MemoryStore() if journal_dir == MEMORY else DirStore(journal_dir)
    store = TimedStore(base_store, recorder) if recorder else base_store
    recover(server, store, checkpoint=None, now=time.monotonic())
    data_channel = DataChannelServer(meters=server.obs.meters)
    facade = ServerFacade(server, data_channel=data_channel)
    facade.start_lease_sweeper()
    rmi = RMIServer(obs=server.obs)
    rmi.bind("taskfarm", TimedServerCalls(facade, recorder, "facade") if recorder else facade)
    rss_ready = _peak_rss_bytes()
    print(json.dumps({"port": rmi.port}), flush=True)
    try:
        sys.stdin.read()  # the benchmark closes our stdin to stop us
    finally:
        facade.stop_lease_sweeper()
        rmi.close()
        data_channel.close()
        if isinstance(base_store, DirStore):
            base_store.close()
    report = {
        "rss_ready_bytes": rss_ready,
        "rss_peak_bytes": _peak_rss_bytes(),
        "meters": server.obs.meters.snapshot(),
        "spans": recorder.spans if recorder else [],
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
