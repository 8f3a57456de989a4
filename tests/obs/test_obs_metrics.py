"""Tests for repro.obs.metrics: instruments, snapshot/reset."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = Counter("c")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_reset(self):
        c = Counter("c")
        c.inc(3)
        c.reset()
        assert c.value == 0

    def test_thread_safety(self):
        c = Counter("c")

        def bump():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(10.0)
        g.inc(2.5)
        g.dec(0.5)
        assert g.value == 12.0


class TestHistogramBuckets:
    def test_value_on_edge_goes_to_that_bucket(self):
        # edges 1, 2, 5: v <= edge lands in that bucket
        h = Histogram("h", buckets=(1, 2, 5))
        h.observe(1.0)        # bucket 0 (<= 1)
        h.observe(1.5)        # bucket 1 (<= 2)
        h.observe(2.0)        # bucket 1 (edge inclusive)
        h.observe(5.0)        # bucket 2
        h.observe(100.0)      # overflow bucket
        snap = h.snapshot()
        assert snap["counts"] == [1, 2, 1, 1]
        assert snap["count"] == 5

    def test_min_max_sum_mean(self):
        h = Histogram("h", buckets=(10,))
        for v in (2.0, 4.0, 6.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 12.0
        assert h.mean == 4.0
        snap = h.snapshot()
        assert snap["min"] == 2.0
        assert snap["max"] == 6.0

    def test_counts_length_is_edges_plus_one(self):
        h = Histogram("h", buckets=(1, 2, 3))
        assert len(h.snapshot()["counts"]) == 4

    def test_empty_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=())

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1, 1, 2))
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(2, 1))

    def test_reset(self):
        h = Histogram("h", buckets=(1,))
        h.observe(0.5)
        h.reset()
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["counts"] == [0, 0]
        assert snap["min"] is None


class TestHistogramPercentiles:
    def test_uniform_distribution_estimates(self):
        h = Histogram("h", buckets=tuple(range(10, 101, 10)))
        for v in range(1, 101):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["p50"] == pytest.approx(50.0)
        assert snap["p95"] == pytest.approx(95.0)
        assert snap["p99"] == pytest.approx(99.0)

    def test_percentile_method_matches_snapshot(self):
        h = Histogram("h", buckets=(1, 2, 5, 10))
        for v in (0.5, 1.5, 3.0, 7.0, 20.0):
            h.observe(v)
        assert h.percentile(50) == h.snapshot()["p50"]

    def test_empty_histogram_has_no_percentiles(self):
        h = Histogram("h", buckets=(1, 2))
        assert h.percentile(50) is None
        snap = h.snapshot()
        assert snap["p50"] is None
        assert snap["p99"] is None

    def test_estimates_clamped_to_observed_range(self):
        # One observation in a huge bucket: interpolation would invent
        # values up to the edge; clamping pins every percentile to it.
        h = Histogram("h", buckets=(100,))
        h.observe(7.0)
        assert h.percentile(1) == 7.0
        assert h.percentile(50) == 7.0
        assert h.percentile(99) == 7.0

    def test_overflow_bucket_bounded_by_observed_range(self):
        # Both observations sit in the open-ended overflow bucket;
        # the estimate must stay inside [min, max], never extrapolate.
        h = Histogram("h", buckets=(1,))
        for v in (500.0, 900.0):
            h.observe(v)
        assert 500.0 <= h.percentile(50) <= 900.0
        assert 500.0 <= h.percentile(99) <= 900.0

    def test_percentiles_monotone_in_q(self):
        h = Histogram("h", buckets=(1, 5, 10, 50, 100))
        for v in (0.2, 0.9, 3.0, 4.0, 8.0, 30.0, 70.0, 95.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["p50"] <= snap["p95"] <= snap["p99"]


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")

    def test_kind_clash_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ConfigurationError):
            r.gauge("x")

    def test_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("c").inc(2)
        r.gauge("g").set(1.5)
        r.histogram("h", buckets=(1, 2)).observe(0.5)
        snap = r.snapshot()
        assert snap["c"] == {"type": "counter", "value": 2}
        assert snap["g"] == {"type": "gauge", "value": 1.5}
        assert snap["h"]["type"] == "histogram"
        assert snap["h"]["buckets"] == [1.0, 2.0]

    def test_snapshot_is_sorted(self):
        r = MetricsRegistry()
        r.counter("zz")
        r.counter("aa")
        assert list(r.snapshot()) == ["aa", "zz"]

    def test_reset_zeroes_but_keeps_instances(self):
        r = MetricsRegistry()
        c = r.counter("c")
        c.inc(5)
        r.reset()
        assert r.counter("c") is c
        assert c.value == 0
