"""Measure a commit: every workload over several seeds, plus one traced run.

Usage (from the root of a checkout)::

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json

For each workload it runs ``perfbench/run.py`` once per seed (1..runs)
for ``run_seconds`` from ``BENCHMARK.json`` and records every
end-to-end value, its median and its spread (the distance between the
first and third quartile as a share of the median), then one traced run
(seed 1) for the per-layer values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env: "))
    return {"env": env, **json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "runs": args.runs, "workloads": {}}
    for name in names:
        results = [run_once(name, seed, bench["run_seconds"], 0) for seed in range(1, args.runs + 1)]
        report["env"] = results[-1]["env"]
        metrics = {
            m["name"]: spread([r["metrics"][m["name"]]["value"] for r in results])
            for m in bench["end_to_end"]
        }
        traced = run_once(name, 1, bench["run_seconds"], 1)
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in metrics.items():
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
