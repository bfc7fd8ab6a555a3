"""The load generator itself must be deterministic and exact.

CI cannot assert wall-clock latencies — machines differ — so the load
harness's *own* math is what gets pinned here: seeded schedules are
byte-identical across runs, histogram percentiles match hand-computed
oracles (the fixed bucket edges make that possible), and the report
plumbing (merge, per-lake split, JSON shape) is exact.  The live-
traffic scenarios live in ``benchmarks/test_http_load.py``; nothing
in this file opens a socket.
"""

import math

import pytest

from repro.bench.loadgen import (
    BUCKET_EDGES,
    DEFAULT_MIX,
    LatencyHistogram,
    LoadOp,
    build_mixed_schedule,
    split_schedule,
)


class TestHistogram:
    def test_empty_histogram_is_all_zeros(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile(50) == 0.0
        assert hist.mean == 0.0 and hist.min == 0.0 and hist.max == 0.0

    def test_percentiles_match_hand_computed_oracle(self):
        # Seven samples; p50 is the ceil(0.5*7) = 4th smallest (5ms),
        # answered as its covering bucket edge: the smallest
        # 1e-4 * 1.02**i that is >= 0.005 is i=198
        # (1.02**197 = 49.46 < 50 <= 1.02**198 = 50.45).
        hist = LatencyHistogram()
        for ms in (1, 2, 3, 5, 8, 13, 100):
            hist.record(ms / 1000)
        assert hist.percentile(50) == pytest.approx(1e-4 * 1.02 ** 198)
        # p99 -> ceil(0.99*7) = 7th sample = the max, and the edge cap
        # makes percentile(q) never exceed the true maximum.
        assert hist.percentile(99) == pytest.approx(0.1)
        assert hist.percentile(100) == pytest.approx(0.1)
        assert hist.max == pytest.approx(0.1)
        assert hist.min == pytest.approx(0.001)
        assert hist.mean == pytest.approx(0.132 / 7)

    def test_percentile_is_within_one_bucket_of_truth(self):
        # The 2% bucket resolution is the advertised error bound.
        hist = LatencyHistogram()
        samples = [0.0003 * (i + 1) for i in range(200)]
        for sample in samples:
            hist.record(sample)
        true_p95 = samples[int(math.ceil(0.95 * len(samples))) - 1]
        assert true_p95 <= hist.percentile(95) <= true_p95 * 1.02

    def test_extremes_clamp_into_terminal_buckets(self):
        hist = LatencyHistogram()
        hist.record(0.0)            # below the first edge
        hist.record(1e9)            # beyond the last edge
        assert hist.count == 2
        assert hist.percentile(50) == pytest.approx(BUCKET_EDGES[0])
        # The overflow bucket caps at the recorded max, not the edge.
        assert hist.percentile(100) == pytest.approx(1e9)

    def test_merge_equals_single_histogram_over_union(self):
        left, right, union = (
            LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        )
        for ms in (1, 5, 9):
            left.record(ms / 1000)
            union.record(ms / 1000)
        for ms in (2, 40):
            right.record(ms / 1000)
            union.record(ms / 1000)
        left.merge(right)
        assert left.count == union.count == 5
        assert left.to_dict() == union.to_dict()

    def test_to_dict_is_milliseconds(self):
        hist = LatencyHistogram()
        hist.record(0.25)
        payload = hist.to_dict()
        assert payload["count"] == 1
        assert payload["min_ms"] == pytest.approx(250.0)
        assert payload["max_ms"] == pytest.approx(250.0)
        assert 250.0 <= payload["p99_ms"] <= 250.0 * 1.02


class TestScheduleDeterminism:
    def test_same_seed_means_identical_schedule(self):
        first = build_mixed_schedule(("a", "b"), ops=200, seed=42)
        second = build_mixed_schedule(("a", "b"), ops=200, seed=42)
        assert first == second       # LoadOp is a frozen dataclass

    def test_different_seeds_differ(self):
        assert build_mixed_schedule(("a", "b"), ops=200, seed=1) != \
            build_mixed_schedule(("a", "b"), ops=200, seed=2)

    def test_schedule_covers_lakes_and_kinds(self):
        schedule = build_mixed_schedule(("a", "b", "c"), ops=300, seed=0)
        assert len(schedule) == 300
        assert {op.lake for op in schedule} == {"a", "b", "c"}
        assert {op.kind for op in schedule} == \
            {kind for kind, _ in DEFAULT_MIX}

    def test_miss_ops_have_unique_cache_identities(self):
        schedule = build_mixed_schedule(("a",), ops=400, seed=0)
        misses = [op for op in schedule if op.kind == "detect_miss"]
        seeds = [op.request["seed"] for op in misses]
        assert len(seeds) == len(set(seeds)) > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="at least one lake"):
            build_mixed_schedule((), ops=10)
        with pytest.raises(ValueError, match="ops must be"):
            build_mixed_schedule(("a",), ops=-1)
        with pytest.raises(ValueError, match="unknown op kind"):
            build_mixed_schedule(("a",), ops=10, mix=(("nope", 1),))


class TestSplitSchedule:
    def test_round_robin_partition_preserves_every_op(self):
        schedule = build_mixed_schedule(("a", "b"), ops=101, seed=3)
        parts = split_schedule(schedule, 4)
        assert len(parts) == 4
        assert sorted(len(part) for part in parts) == [25, 25, 25, 26]
        flattened = sorted(
            (op for part in parts for op in part),
            key=lambda op: op.op_id,
        )
        assert flattened == schedule

    def test_more_workers_than_ops_leaves_idle_workers(self):
        ops = [LoadOp("detect_hit", "a", {"measure": "lcc"}, 0)]
        parts = split_schedule(ops, 3)
        assert [len(part) for part in parts] == [1, 0, 0]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be"):
            split_schedule([], 0)
