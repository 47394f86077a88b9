"""Batched multi-subject alignment: one DP row-sweep per *bucket*.

The scalar kernel (:mod:`repro.bio.align.kernels`) already vectorises
each DP row across the subject's columns, but for the short-to-mid
length sequences a real FASTA database is full of, a row is only a few
hundred elements and Python/NumPy dispatch overhead dominates.  This
module applies the inter-sequence SIMD idea used by striped aligners:
pack many subjects into a length-bucketed, padded tensor and sweep the
Gotoh recurrence **across the whole bucket at once**, so each NumPy row
operation scores hundreds of subjects instead of one.

The sweep
    The DP state is ``(variants, width + 1, n_subjects)``: subjects on
    the last axis, so shifting by one column shifts by ``n_subjects``
    elements and every ``[1:]`` / ``[:-1]`` column slice is one
    contiguous block rather than a strided view.  :class:`SubjectBucket`
    stores the codes as ``(width, n_subjects)`` once per work unit, and
    substitution sheets are ``matrix[:, codes]``, read per row as a
    view.  The lazy-E prefix max runs as ``ceil(log2 width)``
    Hillis–Steele passes (``max(src[s:], src[:-s])`` ping-ponged
    between two buffers) instead of ``np.maximum.accumulate``, which
    walks the axis one element at a time.  The sweep runs in float32
    when :func:`sweep_dtype` finds that exact, float64 otherwise.

Correctness of padding and precision
    Affine-gap DP information flows strictly left-to-right within a
    row (the lazy-E prefix scan) and top-to-bottom between rows, so a
    cell ``(i, j)`` never reads a column ``> j``.  Padding columns sit
    to the *right* of every subject's last real column and therefore
    cannot influence real scores: global scores are gathered at each
    subject's own final column, and local maxima are taken under a
    per-subject validity mask.  Every cell goes through the same
    primitive operations in the same order as in the scalar kernel on
    the shared column prefix, except the prefix max, where ``max`` is
    exact so any pass order gives the same bits.  In float32 every
    value the DP reaches is an integer below ``2**24``, which float32
    holds exactly, and ``NEG`` still absorbs whatever is added to it
    and loses every comparison; float32 therefore rounds nowhere
    float64 would not.  Batched scores, returned as float64, are
    bit-identical to scalar scores, not merely close.

Bucketing
    Subjects are sorted by length and grouped greedily so that padding
    waste ``1 - effective/padded`` stays below a configurable cap — one
    10 kb subject lands in its own bucket instead of inflating the
    padding of hundreds of short ones.  Buckets also cap the subject
    count so working-set memory stays bounded.

Fallback rules
    Packing decisions (:func:`plan_buckets`) and the batched-vs-scalar
    choice (:func:`use_batched`) depend only on sequence *lengths*, so
    :meth:`DSearchAlgorithm.cost` can charge exactly the cells the
    donor will fill.  A bucket falls back to the scalar reference
    kernels when it is too small to amortise anything (a single
    subject), or — for banded alignment, where the batched engine fills
    the full padded matrix rather than just the band — when the band
    window is so much narrower than the bucket that full-width sweeping
    would outweigh the vectorisation win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence as PySequence

import numpy as np

from repro.bio.align.kernels import NEG
from repro.bio.align.scoring import ScoringScheme
from repro.bio.seq.sequence import Sequence

#: Maximum tolerated padding waste ``1 - effective/padded`` per bucket.
DEFAULT_WASTE_CAP = 0.25

#: Maximum subjects per bucket (bounds the working set: state arrays are
#: ``O(n_subjects × width)`` floats).
DEFAULT_MAX_BUCKET = 256

#: Integers below this magnitude are exact in float32 (24-bit significand).
FLOAT32_EXACT = 2**24

#: Buckets below this size gain nothing from batching.
MIN_BATCH_SUBJECTS = 2

#: Banded buckets batch only when full padded cells stay within this
#: factor of the banded cost model (the batched engine sweeps full
#: rows; a narrow band over long subjects is better off scalar).
BANDED_BATCH_FACTOR = 1.35


@dataclass(frozen=True)
class BucketPlan:
    """Membership of one length bucket, decided from lengths alone.

    ``indices`` point back into the original subject list; ``width`` is
    the padded (maximum) length.  The plan is all
    :meth:`~repro.apps.dsearch.algorithm.DSearchAlgorithm.cost` needs,
    so the simulator's cost model and the donor's actual work agree
    without materialising any tensors.
    """

    indices: tuple[int, ...]
    lengths: tuple[int, ...]
    width: int

    @property
    def size(self) -> int:
        return len(self.indices)

    def padded_cells(self, rows: int) -> int:
        """DP cells the batched engine fills for *rows* query rows."""
        return rows * self.size * self.width

    def effective_cells(self, rows: int) -> int:
        """DP cells a perfectly packed (waste-free) sweep would fill."""
        return rows * sum(self.lengths)


def plan_buckets(
    lengths: PySequence[int],
    waste_cap: float = DEFAULT_WASTE_CAP,
    max_bucket: int = DEFAULT_MAX_BUCKET,
) -> list[BucketPlan]:
    """Greedy length bucketing with a padding-waste cap.

    Subjects are visited in (length, index) order; a bucket closes when
    admitting the next (longer) subject would push padding waste above
    *waste_cap* or the bucket above *max_bucket* subjects.  Deterministic
    in the input lengths, so server-side cost accounting and donor-side
    execution always agree on the packing.
    """
    if not (0.0 <= waste_cap < 1.0):
        raise ValueError("waste_cap must be in [0, 1)")
    if max_bucket < 1:
        raise ValueError("max_bucket must be >= 1")
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    plans: list[BucketPlan] = []
    cur: list[int] = []
    cur_sum = 0
    for i in order:
        length = lengths[i]
        if cur:
            padded = length * (len(cur) + 1)
            waste = padded - (cur_sum + length)
            if len(cur) >= max_bucket or waste > waste_cap * padded:
                plans.append(_close(cur, lengths))
                cur, cur_sum = [], 0
        cur.append(i)
        cur_sum += length
    if cur:
        plans.append(_close(cur, lengths))
    return plans


def _close(members: list[int], lengths: PySequence[int]) -> BucketPlan:
    bucket_lengths = tuple(lengths[i] for i in members)
    return BucketPlan(tuple(members), bucket_lengths, max(bucket_lengths))


def banded_model_cells(m: int, lengths: PySequence[int], band: int) -> float:
    """Cells the banded cost model charges for one *m*-row query.

    Matches the scalar kernels' semantics: the band is widened per pair
    to ``|m − len|`` so the terminal cell stays reachable, and a band
    wider than the matrix degenerates to the full ``m × len`` sweep.
    """
    total = 0.0
    for length in lengths:
        band_j = max(band, abs(m - length))
        total += min(m * length, (2 * band_j + 1) * max(m, length))
    return total


def use_batched(plan: BucketPlan, m: int, algorithm: str, band: int) -> bool:
    """Whether the batched engine should score this (query, bucket).

    Depends only on lengths and configuration, so the server's cost
    model can replay the same decision the donor will make.
    """
    if plan.size < MIN_BATCH_SUBJECTS:
        return False
    if algorithm == "banded":
        return plan.padded_cells(m) <= BANDED_BATCH_FACTOR * banded_model_cells(
            m, plan.lengths, band
        )
    return True


class SubjectBucket:
    """A materialised bucket: padded int-encoded subject tensor.

    ``codes`` is ``(width, n_subjects)``: subject-contiguous, the layout
    the sweep keeps its DP state in, so building it here once per work
    unit means no query or strand variant ever transposes.
    """

    __slots__ = ("plan", "codes", "lengths", "alphabet")

    def __init__(self, plan: BucketPlan, subjects: PySequence[Sequence]):
        members = [subjects[i] for i in plan.indices]
        alphabet = members[0].alphabet
        for seq in members:
            if seq.alphabet != alphabet:
                raise ValueError("bucket mixes alphabets")
            if len(seq) == 0:
                raise ValueError("cannot align empty sequences")
        self.plan = plan
        self.alphabet = alphabet
        self.lengths = np.asarray(plan.lengths, dtype=np.intp)
        codes = np.zeros((plan.width, plan.size), dtype=np.intp)
        for col, seq in enumerate(members):
            codes[: len(seq), col] = seq.icodes
        self.codes = codes


def sweep_dtype(scheme: ScoringScheme, m: int, width: int) -> np.dtype:
    """The float type the batched sweep can use without changing a bit.

    float32 when every matrix entry and both gap penalties are integers
    and the largest magnitude the DP can reach, bounded by
    ``(m + 2·(width + 1)) · (max|S| + |open| + |extend|)``, stays below
    ``2**24``: every value is then an integer float32 holds exactly, so
    it rounds nowhere float64 would not.  float64 otherwise.
    """
    matrix = scheme.matrix
    go, ge = scheme.gap_open, scheme.gap_extend
    integral = (
        np.array_equal(matrix, np.round(matrix))
        and float(go).is_integer()
        and float(ge).is_integer()
    )
    step = float(np.abs(matrix).max()) + abs(go) + abs(ge)
    if integral and (m + 2 * (width + 1)) * step < FLOAT32_EXACT:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def batched_scores(
    variants: PySequence[Sequence],
    bucket: SubjectBucket,
    scheme: ScoringScheme,
    local: bool,
    band: int | None = None,
) -> np.ndarray:
    """Score every variant against every subject in one bucket.

    *variants* are equal-length query rows sharing the DP sweep (the
    query and its reverse complement for a both-strands search).
    Returns a float64 ``(n_variants, n_subjects)`` score array,
    bit-identical to the scalar kernels.  With *band* set (global
    only), each subject's band is auto-widened to ``|m − len|`` exactly
    as the scalar path does.
    """
    if not variants:
        raise ValueError("need at least one query variant")
    m = len(variants[0])
    if m == 0:
        raise ValueError("cannot align empty sequences")
    for v in variants:
        if len(v) != m:
            raise ValueError("query variants must share one length")
        if v.alphabet != scheme.alphabet:
            raise ValueError(
                f"scheme {scheme.name!r} is over alphabet "
                f"{scheme.alphabet.name!r}; got query {v.alphabet.name!r}"
            )
    if bucket.alphabet != scheme.alphabet:
        raise ValueError(
            f"scheme {scheme.name!r} is over alphabet {scheme.alphabet.name!r}; "
            f"got subject {bucket.alphabet.name!r}"
        )
    if band is not None and local:
        raise ValueError("banded batching applies to global alignment only")

    codes = bucket.codes  # (W, n) intp
    lengths = bucket.lengths  # (n,)
    width, n = codes.shape
    nvar = len(variants)
    dtype = sweep_dtype(scheme, m, width)
    go, ge = scheme.gap_open, scheme.gap_extend
    qcodes = np.stack([v.icodes for v in variants])  # (V, m)
    # The DP state is (variants, columns, subjects): a shift by k
    # columns is a shift by k·n elements, so every shifted-column slice
    # below is one contiguous block per variant.
    jidx = np.arange(width + 1, dtype=np.float64)
    ge_jidx = ge * jidx
    e_base = (go + ge_jidx[1:]).astype(dtype)[:, None]
    c_off = ge_jidx[:width].astype(dtype)[:, None]

    # Per-bucket substitution sheets: sheets[c] is the (W, n) score
    # sheet for query residue code c, so each row's substitution term
    # is read straight from a view.  Gathered per row instead for huge
    # (long-subject) buckets, to bound memory.
    matrix = scheme.matrix.astype(dtype)
    n_codes = matrix.shape[0]
    if n_codes * n * width <= 40_000_000:
        sheets = matrix[:, codes]  # (A+1, W, n)
    else:
        sheets = None

    if band is not None:
        band_j = np.maximum(band, np.abs(m - lengths))  # (n,)
        col = np.arange(width + 1)[:, None]

    shape = (nvar, width + 1, n)
    if local:
        H = np.zeros(shape, dtype)
        # Running cell-wise max over all rows; the best local score is
        # its maximum over each subject's *valid* columns at the end
        # (max is exactly associative, so this equals the scalar
        # row-by-row tracking bit for bit).
        maxH = np.zeros(shape, dtype)
    else:
        H = np.empty(shape, dtype)
        H[:] = (go + ge_jidx)[:, None]
        H[:, 0] = 0.0
    F = np.full(shape, NEG, dtype)
    if band is not None:
        _mask_band_rows(H, 0, band_j, col)

    # Ping-pong row and scan buffers; every per-row temporary is
    # preallocated so the sweep allocates nothing inside the loop.
    Hn = np.empty(shape, dtype)
    tmp = np.empty(shape, dtype)
    scan = np.empty((nvar, width, n), dtype)
    scan_alt = np.empty((nvar, width, n), dtype)
    for i in range(1, m + 1):
        # Same primitive ops, same order, as the scalar gotoh_rows —
        # just with a (variants, subjects) batch around the columns.
        np.add(H, go, out=tmp)
        np.maximum(F, tmp, out=F)
        F += ge
        Hn[:, 0] = 0.0 if local else go + ge * i
        Htmp = Hn[:, 1:]
        for v in range(nvar):
            q = qcodes[v, i - 1]
            sub = sheets[q] if sheets is not None else matrix[q][codes]
            np.add(H[v, :-1], sub, out=Htmp[v])
        np.maximum(Htmp, F[:, 1:], out=Htmp)
        if local:
            np.maximum(Htmp, 0.0, out=Htmp)
        # Exact within-row E via the prefix max-scan (lazy-E), as
        # log-step Hillis–Steele passes: after the pass with step s,
        # scan[j] is the max over c[j-2s+1 .. j].  Max is exact, so the
        # pass order cannot change a bit.  Each pass writes [s:] from
        # the other buffer; [:s//2] of the target already holds final
        # values from two passes back, so only [s//2:s] is copied.
        src, dst = scan, scan_alt
        np.subtract(Hn[:, :width], c_off, out=src)
        s = 1
        while s < width:
            dst[:, s // 2 : s] = src[:, s // 2 : s]
            np.maximum(src[:, s:], src[:, :-s], out=dst[:, s:])
            src, dst = dst, src
            s *= 2
        E = tmp[:, 1:]
        np.add(e_base, src, out=E)
        # A local H' is already >= 0, so unlike the scalar kernel no
        # second clamp is needed after folding in E.
        np.maximum(Htmp, E, out=Htmp)
        if band is not None:
            _mask_band_rows(Hn, i, band_j, col)
        H, Hn = Hn, H
        if local:
            np.maximum(maxH, H, out=maxH)

    if local:
        # Columns beyond a subject's own length must not win its max.
        valid = jidx[:, None] <= lengths[None, :]  # (W+1, n)
        best = np.where(valid, maxH, NEG).max(axis=1)
    else:
        # Each subject's global score sits at its own final column.
        best = H[:, lengths, np.arange(n)]
    return best.astype(np.float64)


def _mask_band_rows(
    H: np.ndarray, i: int, band_j: np.ndarray, col: np.ndarray
) -> None:
    """Apply the per-subject band mask to one DP row (in place)."""
    outside = (col < i - band_j) | (col > i + band_j)  # (W+1, n)
    np.copyto(H, NEG, where=outside)
