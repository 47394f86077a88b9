"""Batched multi-subject alignment: bit-exactness against the scalar
kernels, bucketing invariants, deterministic top-k, cost-model/meter
consistency, and the donor→server unit-stat plumbing."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.dsearch import DSearchAlgorithm, DSearchConfig, build_problem
from repro.apps.dsearch.translated import build_translated_problem
from repro.bio.align.banded import banded_global_score
from repro.bio.align.batch import (
    FLOAT32_EXACT,
    BucketPlan,
    SubjectBucket,
    banded_model_cells,
    batched_scores,
    plan_buckets,
    sweep_dtype,
    use_batched,
)
from repro.bio.align.hits import Hit, TopK
from repro.bio.align.nw import needleman_wunsch_score
from repro.bio.align.scoring import blosum62, dna_scheme, pam250
from repro.bio.align.sw import smith_waterman_score
from repro.bio.seq import DNA, PROTEIN
from repro.bio.seq.generate import random_sequence, seeded_database
from repro.bio.seq.sequence import Sequence
from repro.core.client import run_to_completion
from repro.core.server import TaskFarmServer
from repro.core.workunit import WorkResult
from repro.obs import unitstats


def _make_seqs(seed, m, lengths, alphabet):
    rng = np.random.default_rng(seed)
    query = random_sequence("q0", m, alphabet, rng)
    subjects = [
        random_sequence(f"s{i:03d}", length, alphabet, rng)
        for i, length in enumerate(lengths)
    ]
    return query, subjects


def _full_plan(lengths):
    """One ragged bucket holding every subject (worst-case padding)."""
    return BucketPlan(tuple(range(len(lengths))), tuple(lengths), max(lengths))


def _scalar(query, subject, scheme, mode, band):
    if mode == "sw":
        return smith_waterman_score(query, subject, scheme)
    if mode == "nw":
        return needleman_wunsch_score(query, subject, scheme)
    return banded_global_score(query, subject, scheme, band=band)


class TestBatchedExactness:
    """batched_scores must equal the scalar kernels *bit for bit*."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        lengths=st.lists(st.integers(1, 60), min_size=1, max_size=10),
        mode=st.sampled_from(["sw", "nw", "banded"]),
        protein=st.booleans(),
        both=st.booleans(),
        band=st.integers(0, 8),
    )
    def test_matches_scalar(self, seed, m, lengths, mode, protein, both, band):
        alphabet = PROTEIN if protein else DNA
        scheme = blosum62() if protein else dna_scheme()
        both = both and not protein
        query, subjects = _make_seqs(seed, m, lengths, alphabet)
        variants = [query] + ([query.reverse_complement()] if both else [])
        bucket = SubjectBucket(_full_plan(lengths), subjects)
        band_arg = band if mode == "banded" else None
        got = batched_scores(
            variants, bucket, scheme, local=(mode == "sw"), band=band_arg
        )
        assert got.shape == (len(variants), len(subjects))
        for vi, variant in enumerate(variants):
            for si, subject in enumerate(subjects):
                assert got[vi, si] == _scalar(variant, subject, scheme, mode, band)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        lengths=st.lists(st.integers(1, 60), min_size=1, max_size=10),
        mode=st.sampled_from(["sw", "nw", "banded"]),
        protein=st.booleans(),
        both=st.booleans(),
        band=st.integers(0, 8),
    )
    def test_matches_scalar_non_integer_scheme(
        self, seed, m, lengths, mode, protein, both, band
    ):
        """Fractional scores take the float64 sweep, still bit-exact."""
        alphabet = PROTEIN if protein else DNA
        if protein:
            scheme = blosum62(gap_open=-10.5, gap_extend=-0.35)
        else:
            scheme = dna_scheme(
                match=2.5, mismatch=-1.75, gap_open=-3.3, gap_extend=-0.7
            )
        both = both and not protein
        query, subjects = _make_seqs(seed, m, lengths, alphabet)
        variants = [query] + ([query.reverse_complement()] if both else [])
        bucket = SubjectBucket(_full_plan(lengths), subjects)
        assert sweep_dtype(scheme, m, max(lengths)) == np.float64
        band_arg = band if mode == "banded" else None
        got = batched_scores(
            variants, bucket, scheme, local=(mode == "sw"), band=band_arg
        )
        for vi, variant in enumerate(variants):
            for si, subject in enumerate(subjects):
                assert got[vi, si] == _scalar(variant, subject, scheme, mode, band)

    def test_single_subject_and_uniform_lengths(self):
        scheme = dna_scheme()
        query, subjects = _make_seqs(5, 24, [17], DNA)
        bucket = SubjectBucket(_full_plan([17]), subjects)
        got = batched_scores([query], bucket, scheme, local=True)
        assert got[0, 0] == smith_waterman_score(query, subjects[0], scheme)

        query, subjects = _make_seqs(6, 24, [30] * 8, DNA)
        bucket = SubjectBucket(_full_plan([30] * 8), subjects)
        got = batched_scores([query], bucket, scheme, local=False)
        for si, subject in enumerate(subjects):
            assert got[0, si] == needleman_wunsch_score(query, subject, scheme)

    def test_input_validation(self):
        scheme = dna_scheme()
        query, subjects = _make_seqs(7, 12, [10, 20], DNA)
        bucket = SubjectBucket(_full_plan([10, 20]), subjects)
        with pytest.raises(ValueError, match="at least one"):
            batched_scores([], bucket, scheme, local=True)
        with pytest.raises(ValueError, match="global"):
            batched_scores([query], bucket, scheme, local=True, band=4)
        short = random_sequence("short", 5, DNA, np.random.default_rng(0))
        with pytest.raises(ValueError, match="share one length"):
            batched_scores([query, short], bucket, scheme, local=False)
        protein_query = random_sequence("p", 12, PROTEIN, np.random.default_rng(0))
        with pytest.raises(ValueError, match="alphabet"):
            batched_scores([protein_query], bucket, scheme, local=False)
        with pytest.raises(ValueError, match="alphabet"):
            batched_scores([query], bucket, blosum62(), local=False)
        empty = Sequence("e", np.empty(0, dtype=np.uint8), DNA)
        with pytest.raises(ValueError, match="empty"):
            SubjectBucket(BucketPlan((0,), (0,), 0), [empty])
        with pytest.raises(ValueError, match="alphabet"):
            SubjectBucket(_full_plan([10, 12]), [subjects[0], protein_query])


class TestSweepDtype:
    """float32 only where every value the DP reaches is exact in it."""

    def test_builtin_schemes_sweep_in_float32(self):
        for scheme in (dna_scheme(), blosum62(), pam250()):
            assert sweep_dtype(scheme, 300, 1000) == np.float32

    def test_fractional_scheme_sweeps_in_float64(self):
        assert sweep_dtype(dna_scheme(match=2.5), 10, 10) == np.float64
        assert sweep_dtype(dna_scheme(gap_extend=-0.5), 10, 10) == np.float64

    def test_bound_at_two_to_the_24(self):
        scheme = dna_scheme()  # max|S| + |open| + |extend| = 5 + 10 + 1
        width = 100
        limit = FLOAT32_EXACT // 16 - 2 * (width + 1)
        assert sweep_dtype(scheme, limit - 1, width) == np.float32
        assert sweep_dtype(scheme, limit, width) == np.float64

    @pytest.mark.parametrize("mode", ["sw", "nw"])
    def test_long_query_crosses_the_bound_exactly(self, mode):
        # Scores of 2**15 put a 20-residue query under the bound and a
        # 200-residue one over it; both sides must equal the scalar
        # kernels.
        big = float(2**15)
        scheme = dna_scheme(
            match=big, mismatch=-big + 3, gap_open=-big + 1, gap_extend=-7.0
        )
        lengths = [30, 24, 18]
        for m, dtype in ((20, np.float32), (200, np.float64)):
            query, subjects = _make_seqs(m, m, lengths, DNA)
            assert sweep_dtype(scheme, m, max(lengths)) == dtype
            bucket = SubjectBucket(_full_plan(lengths), subjects)
            got = batched_scores([query], bucket, scheme, local=(mode == "sw"))
            for si, subject in enumerate(subjects):
                assert got[0, si] == _scalar(query, subject, scheme, mode, None)

    def test_scores_float32_cannot_hold_stay_exact(self):
        # 2**25 + 1 has no float32 representation: a float32 sweep would
        # round every match score.
        scheme = dna_scheme(match=float(2**25 + 1))
        query, subjects = _make_seqs(3, 12, [12, 9], DNA)
        assert sweep_dtype(scheme, 12, 12) == np.float64
        bucket = SubjectBucket(_full_plan([12, 9]), subjects)
        got = batched_scores([query], bucket, scheme, local=True)
        for si, subject in enumerate(subjects):
            assert got[0, si] == smith_waterman_score(query, subject, scheme)


class TestPlanBuckets:
    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 5000), min_size=0, max_size=150),
        waste_cap=st.floats(0.0, 0.9),
        max_bucket=st.integers(1, 64),
    )
    def test_partition_and_waste_invariants(self, lengths, waste_cap, max_bucket):
        plans = plan_buckets(lengths, waste_cap, max_bucket)
        covered = sorted(i for plan in plans for i in plan.indices)
        assert covered == list(range(len(lengths)))
        for plan in plans:
            assert 1 <= plan.size <= max_bucket
            assert plan.width == max(plan.lengths)
            assert all(
                lengths[i] == length
                for i, length in zip(plan.indices, plan.lengths)
            )
            if plan.size > 1:
                padded = plan.padded_cells(1)
                waste = padded - plan.effective_cells(1)
                assert waste <= waste_cap * padded + 1e-9

    def test_deterministic_and_empty(self):
        lengths = [300, 40, 41, 44, 2000, 39, 300]
        assert plan_buckets(lengths) == plan_buckets(lengths)
        assert plan_buckets([]) == []

    def test_outlier_isolated(self):
        lengths = [50] * 100 + [10_000]
        plans = plan_buckets(lengths, waste_cap=0.25)
        outlier = [p for p in plans if 10_000 in p.lengths]
        assert len(outlier) == 1 and outlier[0].size == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_buckets([10], waste_cap=1.0)
        with pytest.raises(ValueError):
            plan_buckets([10], max_bucket=0)

    def test_use_batched_rules(self):
        pair = _full_plan([100, 100])
        single = _full_plan([100])
        assert use_batched(pair, 100, "sw", 0)
        assert not use_batched(single, 100, "sw", 0)
        # Narrow band over long similar-length subjects: full-width
        # sweeping costs far more than the band — stay scalar.
        assert not use_batched(_full_plan([1000] * 8), 1000, "banded", 8)
        # Band wide relative to the matrix: batch.
        assert use_batched(_full_plan([60] * 8), 60, "banded", 40)


class TestTopKDeterminism:
    def _hits(self):
        # Deliberate score ties across distinct subjects.
        return [
            Hit("q", f"s{i:02d}", score)
            for i, score in enumerate([5.0, 3.0, 5.0, 1.0, 3.0, 3.0, 7.0, 5.0])
        ]

    def test_order_independent(self):
        hits = self._hits()
        expected = None
        rng = random.Random(11)
        for _ in range(20):
            shuffled = hits[:]
            rng.shuffle(shuffled)
            top = TopK(4)
            top.extend(shuffled)
            best = top.best()
            if expected is None:
                expected = best
            assert best == expected

    def test_tie_prefers_smaller_subject_id(self):
        for order in ([0, 1], [1, 0]):
            top = TopK(1)
            candidates = [Hit("q", "s_b", 9.0), Hit("q", "s_a", 9.0)]
            for i in order:
                top.offer(candidates[i])
            assert top.best()[0].subject_id == "s_a"

    def test_identical_hits_do_not_crash(self):
        # Fully equal keys force the heap to its final tiebreaker; it
        # must never compare Hit objects themselves.
        top = TopK(3)
        for _ in range(10):
            top.offer(Hit("q", "s", 1.0))
        assert len(top.best()) == 3


class TestCostModel:
    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(21)
        queries = [
            random_sequence("qa", 90, DNA, rng),
            random_sequence("qb", 140, DNA, rng),
        ]
        database = [
            random_sequence(f"d{i:03d}", int(length), DNA, rng)
            for i, length in enumerate(rng.integers(20, 400, size=50))
        ]
        return queries, database

    @pytest.mark.parametrize("algorithm", ["sw", "nw", "banded"])
    @pytest.mark.parametrize("both_strands", [False, True])
    def test_cost_equals_cells_charged_to_meters(
        self, workload, algorithm, both_strands
    ):
        """cost() must charge exactly the cells compute() reports filling."""
        queries, database = workload
        cfg = DSearchConfig(
            algorithm=algorithm, both_strands=both_strands, band=16, top_hits=5
        )
        algo = DSearchAlgorithm(cfg)
        payload = (queries, database)
        with unitstats.collect() as stats:
            algo.compute(payload)
        assert stats["farm.align.cells.padded"] == algo.cost(payload)
        assert stats["farm.align.cells.effective"] <= stats["farm.align.cells.padded"]

    def test_banded_cost_widens_per_pair_without_batching(self, workload):
        """Length-mismatched pairs widen the band; a band wider than the
        matrix degenerates to the full sweep (the scalar kernels'
        actual behaviour, which cost() must mirror)."""
        _, database = workload
        query = random_sequence("q", 100, DNA, np.random.default_rng(3))
        subject = random_sequence("s", 10, DNA, np.random.default_rng(4))
        cfg = DSearchConfig(algorithm="banded", band=2, batch=False)
        cost = DSearchAlgorithm(cfg).cost(([query], [subject]))
        # band widens to |100-10|=90 > matrix: full 100×10 sweep.
        assert cost == 100 * 10
        assert banded_model_cells(100, [10], 2) == 100 * 10


class TestSearchEquivalence:
    """Whole-application check: batch on/off give identical hit lists."""

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(7)
        query = random_sequence("query0", 120, DNA, rng)
        database, homolog_ids = seeded_database(
            query, decoy_count=60, homolog_count=3, seed=13
        )
        extra_query = random_sequence("query1", 75, DNA, rng)
        return [query, extra_query], database, homolog_ids

    @pytest.mark.parametrize("algorithm", ["sw", "nw", "banded"])
    @pytest.mark.parametrize("both_strands", [False, True])
    def test_identical_hit_lists(self, workload, algorithm, both_strands):
        queries, database, homolog_ids = workload
        kwargs = dict(
            algorithm=algorithm, both_strands=both_strands, band=12, top_hits=8
        )
        batched = DSearchAlgorithm(DSearchConfig(batch=True, **kwargs))
        scalar = DSearchAlgorithm(DSearchConfig(batch=False, **kwargs))
        payload = (queries, database)
        got, want = batched.compute(payload), scalar.compute(payload)
        assert got == want
        if algorithm == "sw":
            top = {h.subject_id for h in got["query0"][: len(homolog_ids)]}
            assert top == set(homolog_ids)

    def test_translated_search_identical(self):
        rng = np.random.default_rng(31)
        protein_db = [
            random_sequence(f"p{i:02d}", int(length), PROTEIN, rng)
            for i, length in enumerate(rng.integers(25, 90, size=20))
        ]
        dna_queries = [
            random_sequence("dq0", 60, DNA, rng),
            random_sequence("dq1", 45, DNA, rng),
        ]
        reports = {}
        for batch in (True, False):
            config = DSearchConfig(scoring="blosum62", batch=batch, top_hits=4)
            server = TaskFarmServer()
            pid = server.submit(
                build_translated_problem(protein_db, dna_queries, config)
            )
            run_to_completion(server, donors=2)
            reports[batch] = server.final_result(pid)
        assert reports[True].hits == reports[False].hits


class TestNoSilentFallback:
    """compute() reruns a query through the scalar kernels when the
    batched path raises, so a broken kernel would still pass every
    exactness check, only slower.  On a realistic slice it must not."""

    def test_perfbench_shaped_slice_stays_batched(self):
        rng = np.random.default_rng(41)
        query = random_sequence("query0", 300, DNA, rng)
        # Skewed lengths around the query's, plus one long outlier that
        # the waste cap leaves in a bucket of its own.
        lengths = np.clip(rng.gamma(6.0, 50.0, size=299), 40, 900).astype(int)
        lengths = [int(x) for x in lengths] + [2400]
        subjects = [
            random_sequence(f"s{i:03d}", length, DNA, rng)
            for i, length in enumerate(lengths)
        ]
        plans = plan_buckets(lengths)
        assert [p.lengths for p in plans if p.size == 1] == [(2400,)]
        payload = ([query], subjects)
        batched = DSearchAlgorithm(DSearchConfig(top_hits=10))
        with unitstats.collect() as stats:
            got = batched.compute(payload)
        assert "farm.align.batch.fallbacks" not in stats
        assert stats["farm.align.buckets.batched"] == len(plans) - 1
        assert stats["farm.align.pairs.scalar"] == 1.0
        scalar = DSearchAlgorithm(DSearchConfig(top_hits=10, batch=False))
        assert got == scalar.compute(payload)


class TestMeterPlumbing:
    def test_record_is_noop_outside_collect(self):
        unitstats.record("farm.align.cells.effective", 5.0)  # must not raise

    def test_collect_nests(self):
        with unitstats.collect() as outer:
            unitstats.record("a", 1.0)
            with unitstats.collect() as inner:
                unitstats.record("a", 2.0)
            unitstats.record("a", 4.0)
        assert inner == {"a": 2.0}
        assert outer == {"a": 5.0}

    def test_server_folds_only_align_counters(self):
        server = TaskFarmServer()
        server._fold_unit_meters(
            WorkResult(
                problem_id=0,
                unit_id=0,
                value=None,
                extra={
                    "meters": {
                        "farm.align.cells.effective": 10.0,
                        "farm.align.cells.padded": 12.5,
                        "farm.units.completed": 100.0,  # forged: ignored
                        "farm.align.bogus.negative": -5.0,
                        "farm.align.bogus.nan": float("nan"),
                        "farm.align.bogus.inf": math.inf,
                        42: 1.0,
                    }
                },
            )
        )
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.align.cells.effective"] == 10.0
        assert counters["farm.align.cells.padded"] == 12.5
        assert counters.get("farm.units.completed", 0.0) == 0.0
        assert "farm.align.bogus.negative" not in counters
        assert "farm.align.bogus.nan" not in counters
        assert "farm.align.bogus.inf" not in counters

    def test_end_to_end_through_donor_client(self):
        rng = np.random.default_rng(17)
        query = random_sequence("query0", 80, DNA, rng)
        database, _ = seeded_database(query, decoy_count=30, homolog_count=2, seed=5)
        server = TaskFarmServer()
        server.submit(build_problem(database, [query], DSearchConfig(top_hits=3)))
        run_to_completion(server, donors=3)
        counters = server.obs.meters.snapshot()["counters"]
        effective = counters["farm.align.cells.effective"]
        padded = counters["farm.align.cells.padded"]
        assert 0 < effective <= padded
        assert counters["farm.align.buckets.batched"] >= 1

    def test_sim_cluster_folds_meters(self):
        from repro.cluster.sim import SimCluster, homogeneous_pool

        rng = np.random.default_rng(19)
        query = random_sequence("query0", 60, DNA, rng)
        database, _ = seeded_database(query, decoy_count=20, homolog_count=2, seed=3)
        cluster = SimCluster(homogeneous_pool(3), seed=1, execute=True)
        cluster.submit(build_problem(database, [query], DSearchConfig(top_hits=3)))
        report = cluster.run()
        assert report.completed
        counters = cluster.server.obs.meters.snapshot()["counters"]
        assert counters["farm.align.cells.effective"] > 0
        assert (
            counters["farm.align.cells.effective"]
            <= counters["farm.align.cells.padded"]
        )
