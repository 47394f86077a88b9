"""Summary statistics for timing samples.

A timing is reported as its median plus the highest percentile that
still has at least :data:`MIN_BEYOND` samples beyond it, together with
the sample count, so a tail figure is never read off a handful of
points.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES: tuple[float, ...] = (90.0, 95.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # Rounded first, so 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile *q* (0 < q <= 100) of *values*."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank percentile *q*."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` of *n* samples beyond it (None if there is none)."""
    best = None
    for q in TAIL_PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def summarize(values: list[float]) -> dict:
    """``{"n", "median", "tail_q", "tail"}`` of *values*; the tail keys
    are None when there are too few samples for any tail percentile."""
    n = len(values)
    q = tail_percentile(n)
    return {
        "n": n,
        "median": statistics.median(values) if values else None,
        "tail_q": q,
        "tail": percentile(values, q) if q is not None else None,
    }


def describe(name: str, unit: str, values: list[float], scale: float = 1.0) -> str:
    """One human-readable line: median, tail percentile and count."""
    s = summarize([v * scale for v in values])
    if s["n"] == 0:
        return f"{name}: no samples"
    line = f"{name}: median {s['median']:.6g} {unit}"
    if s["tail_q"] is not None:
        line += f", p{s['tail_q']:g} {s['tail']:.6g} {unit}"
    return line + f" (n={s['n']})"
