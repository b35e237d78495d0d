"""LogHistogram: constant-memory percentiles with bounded relative error."""

import math
import random

import pytest

from repro.telemetry import LogHistogram
from repro.telemetry.histogram import BUCKETS_PER_DECADE, MIN_TRACKABLE_US


class TestRecording:
    def test_empty(self):
        h = LogHistogram()
        assert h.count == 0
        assert h.percentiles((50.0, 99.0)) == [0.0, 0.0]
        assert h.mean == 0.0

    def test_single_value_is_exact(self):
        h = LogHistogram()
        h.record(42.5)
        assert h.percentiles((50.0, 99.0, 99.9)) == [42.5, 42.5, 42.5]
        assert h.min == 42.5
        assert h.max == 42.5

    def test_min_max_sum_are_exact(self):
        h = LogHistogram()
        values = [3.7, 120.0, 0.9, 55.5]
        for v in values:
            h.record(v)
        assert h.min == min(values)
        assert h.max == max(values)
        assert h.sum == pytest.approx(sum(values))
        assert h.count == len(values)

    def test_sub_resolution_values_share_bucket_zero(self):
        h = LogHistogram()
        h.record(0.0)
        h.record(MIN_TRACKABLE_US / 10)
        assert h.count == 2
        assert list(h.counts) == [0]
        assert h.percentile(50.0) == 0.0  # rank 1 reports the exact min
        assert h.percentile(100.0) == MIN_TRACKABLE_US / 10

    def test_weighted_record(self):
        h = LogHistogram()
        h.record(10.0, count=5)
        assert h.count == 5
        assert h.sum == pytest.approx(50.0)

    def test_memory_is_bounded_by_range_not_samples(self):
        h = LogHistogram()
        rng = random.Random(1)
        for _ in range(50_000):
            h.record(rng.uniform(1.0, 1_000.0))  # three decades
        assert len(h.counts) <= 3 * BUCKETS_PER_DECADE + 2

    def test_out_of_range_percentile_rejected(self):
        h = LogHistogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentiles((101.0,))


class TestPercentileAccuracy:
    def test_relative_error_bound(self):
        # ~2.6 % worst-case relative error at 90 buckets/decade; exact
        # min/max clamping makes the extremes better than the bound.
        rng = random.Random(7)
        values = [rng.lognormvariate(3.0, 1.5) for _ in range(20_000)]
        h = LogHistogram()
        for v in values:
            h.record(v)
        ordered = sorted(values)
        bound = 10 ** (1 / BUCKETS_PER_DECADE) - 1  # one bucket's width
        for q in (50.0, 90.0, 99.0, 99.9):
            rank = min(len(ordered), max(1, math.ceil(q / 100 * len(ordered))))
            exact = ordered[rank - 1]
            (approx,) = h.percentiles((q,))
            assert abs(approx - exact) / exact <= bound + 1e-9

    def test_p100_is_exact_max(self):
        h = LogHistogram()
        for v in (1.0, 10.0, 321.5):
            h.record(v)
        assert h.percentile(100.0) == 321.5

    def test_p0_is_exact_min(self):
        h = LogHistogram()
        for v in (1.25, 10.0, 321.5):
            h.record(v)
        assert h.percentile(0.0) == 1.25

    def test_batch_query_matches_individual_queries(self):
        h = LogHistogram()
        for v in range(1, 500):
            h.record(float(v))
        qs = (99.9, 50.0, 99.0)  # deliberately unsorted
        batch = h.percentiles(qs)
        assert batch == [h.percentile(q) for q in qs]


class TestSerialization:
    def test_json_roundtrip(self):
        h = LogHistogram()
        for v in (0.5, 3.0, 3.1, 250.0):
            h.record(v)
        clone = LogHistogram.from_json(h.to_json())
        assert clone.counts == h.counts
        assert clone.min == h.min
        assert clone.max == h.max
        assert clone.sum == h.sum
        assert clone.percentiles((50.0, 99.9)) == h.percentiles((50.0, 99.9))

    def test_empty_roundtrip(self):
        clone = LogHistogram.from_json(LogHistogram().to_json())
        assert clone.count == 0
        assert clone.percentiles((99.0,)) == [0.0]

    def test_buckets_serialized_sorted(self):
        h = LogHistogram()
        for v in (100.0, 1.0, 10.0):
            h.record(v)
        indices = [idx for idx, _ in h.to_json()["buckets"]]
        assert indices == sorted(indices)
