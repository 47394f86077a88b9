"""Batched vs scalar alignment kernel throughput.

The batched engine (:mod:`repro.bio.align.batch`) exists for one
reason: real FASTA databases are dominated by short-to-mid length
sequences, where the scalar kernel's per-row NumPy dispatch overhead
dominates the actual arithmetic.  This benchmark measures both engines
on representative length distributions, asserts the scores agree
exactly, writes ``BENCH_batch_kernels.json`` for trend tracking, and
**fails unless the batched engine is at least** ``MIN_SPEEDUP`` **times
faster than the scalar one** on the many-short reference workload — the
regression gate CI runs.  Both engines are timed in the same run, so the
ratio does not move with the runner's speed.
"""

import json
import time

import numpy as np

from conftest import OUT_DIR, write_report
from repro.bio.align.batch import SubjectBucket, batched_scores, plan_buckets
from repro.bio.align.nw import needleman_wunsch_score
from repro.bio.align.scoring import blosum62, dna_scheme
from repro.bio.align.sw import smith_waterman_score
from repro.bio.seq import DNA, PROTEIN
from repro.bio.seq.generate import random_sequence

#: (name, subjects, query_length, mode, alphabet, length sampler)
WORKLOADS = [
    # The reference workload: lots of short subjects, where batching
    # pays most.  This is the one the regression gate applies to.
    ("many-short dna/sw", 500, 360, "sw", DNA,
     lambda rng, n: rng.integers(60, 200, size=n)),
    # Right-skewed mid-length distribution, like a real nt slice.
    ("mid-length dna/sw", 150, 360, "sw", DNA,
     lambda rng, n: np.clip(50 + rng.gamma(2.0, 175.0, size=n), 50, 1000).astype(int)),
    # Protein global search against typical protein lengths.
    ("protein nw/blosum62", 300, 350, "nw", PROTEIN,
     lambda rng, n: rng.integers(100, 400, size=n)),
]

REFERENCE = "many-short dna/sw"

#: The gate on the reference workload's batched/scalar speedup.  The
#: subject-contiguous float32 sweep reads 15-17x; the float64 sweep with
#: a sequential max-accumulate it replaced read about 5x.
MIN_SPEEDUP = 8.0


def _measure(name, n_subjects, query_len, mode, alphabet, sampler):
    rng = np.random.default_rng(17)
    scheme = dna_scheme() if alphabet is DNA else blosum62()
    scalar_fn = smith_waterman_score if mode == "sw" else needleman_wunsch_score
    query = random_sequence("q", query_len, alphabet, rng)
    lengths = [int(x) for x in sampler(rng, n_subjects)]
    subjects = [
        random_sequence(f"s{i:04d}", length, alphabet, rng)
        for i, length in enumerate(lengths)
    ]
    effective_cells = query_len * sum(lengths)

    # Warm both paths once (matrix parsing, icodes memoisation) so the
    # timed runs compare steady-state kernels.
    scalar_fn(query, subjects[0], scheme)
    plans = plan_buckets(lengths)
    buckets = [SubjectBucket(plan, subjects) for plan in plans]

    t0 = time.perf_counter()
    scalar = np.array([scalar_fn(query, s, scheme) for s in subjects])
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = np.empty(n_subjects)
    padded_cells = 0
    for plan, bucket in zip(plans, buckets):
        batched[list(plan.indices)] = batched_scores(
            [query], bucket, scheme, local=(mode == "sw")
        )[0]
        padded_cells += plan.padded_cells(query_len)
    batched_s = time.perf_counter() - t0

    assert np.array_equal(scalar, batched), f"{name}: batched scores diverge"
    return {
        "name": name,
        "subjects": n_subjects,
        "query_length": query_len,
        "mode": mode,
        "effective_cells": effective_cells,
        "padded_cells": padded_cells,
        "scalar_seconds": round(scalar_s, 4),
        "batched_seconds": round(batched_s, 4),
        "scalar_mcells_per_s": round(effective_cells / scalar_s / 1e6, 1),
        "batched_mcells_per_s": round(effective_cells / batched_s / 1e6, 1),
        "speedup": round(scalar_s / batched_s, 2),
    }


def test_batched_kernels_beat_scalar():
    rows = [_measure(*spec) for spec in WORKLOADS]

    lines = [
        f"{'workload':<22} {'cells(M)':>9} {'scalar':>9} {'batched':>9} "
        f"{'Mcells/s':>9} {'speedup':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<22} {row['effective_cells'] / 1e6:>9.1f} "
            f"{row['scalar_seconds']:>8.2f}s {row['batched_seconds']:>8.2f}s "
            f"{row['batched_mcells_per_s']:>9.1f} {row['speedup']:>7.1f}x"
        )
    reference = next(r for r in rows if r["name"] == REFERENCE)
    lines.append("")
    lines.append(
        f"reference ({REFERENCE}): {reference['speedup']:.1f}x, "
        f"padding efficiency "
        f"{reference['effective_cells'] / reference['padded_cells']:.1%}"
    )
    write_report("batch_kernels", "Batched vs scalar alignment kernels", lines)

    OUT_DIR.mkdir(exist_ok=True)
    payload = {"reference": REFERENCE, "workloads": rows}
    (OUT_DIR / "BENCH_batch_kernels.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # The gate: on the many-short reference workload the batched engine
    # must keep its margin over the scalar one.
    assert reference["speedup"] >= MIN_SPEEDUP, (
        f"batched engine only {reference['speedup']:.2f}x faster than "
        f"scalar on {REFERENCE} (gate {MIN_SPEEDUP:.0f}x)"
    )
