"""Histogram sketches and their participation in Metrics phase diffing."""

from __future__ import annotations

import math

import pytest

from repro.obs.histogram import Histogram, HistogramSnapshot, bucket_mid
from repro.sim.metrics import Metrics


def bucket_of(value: float) -> int:
    """Bucket oracle: the binary exponent ``e`` with ``2**(e-1) <= value <
    2**e``, computed per value as ``Histogram`` does for a whole column."""
    return math.frexp(value)[1]


class TestHistogram:
    def test_observe_and_summary(self):
        h = Histogram()
        for v in (1.0, 2.0, 4.0, 8.0):
            h.observe(v)
        s = h.snapshot()
        assert s.count == 4
        assert s.total == pytest.approx(15.0)
        assert s.mean == pytest.approx(3.75)
        assert s.minimum == 1.0 and s.maximum == 8.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1.0)

    def test_zeros_tracked_separately(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(0.0)
        h.observe(4.0)
        s = h.snapshot()
        assert s.zeros == 2 and s.count == 3
        assert s.percentile(50) == 0.0

    def test_percentile_monotone_and_clamped(self):
        h = Histogram()
        for i in range(1, 101):
            h.observe(float(i))
        s = h.snapshot()
        ps = [s.percentile(p) for p in (0, 25, 50, 75, 90, 99, 100)]
        assert ps == sorted(ps)
        # Clamped into the observed range, factor-2 accurate.
        assert s.minimum <= ps[0] and ps[-1] <= s.maximum
        assert 25.0 <= s.percentile(50) <= 100.0

    def test_percentile_range_validated(self):
        s = Histogram().snapshot()
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_empty_snapshot(self):
        s = HistogramSnapshot()
        assert s.count == 0 and s.mean == 0.0 and s.percentile(99) == 0.0

    def test_since_returns_only_new_samples(self):
        h = Histogram()
        for _ in range(10):
            h.observe(1.0)
        snap = h.snapshot()
        for _ in range(5):
            h.observe(16.0)
        delta = h.snapshot().since(snap)
        assert delta.count == 5
        assert delta.total == pytest.approx(80.0)
        # All delta samples sit in the 16.0 bucket.
        assert delta.percentile(1) == delta.percentile(99)

    def test_since_none_is_identity(self):
        h = Histogram()
        h.observe(2.0)
        s = h.snapshot()
        assert s.since(None) == s

    def test_reset(self):
        h = Histogram()
        h.observe(3.0)
        h.reset()
        assert h.snapshot() == HistogramSnapshot()

    def test_exact_snapshot_clamps_to_observed_extrema(self):
        h = Histogram()
        h.observe(65.0)  # bucket [64, 128), midpoint 96
        s = h.snapshot()
        assert s.extrema_exact
        assert s.percentile(99) == 65.0  # clamped to the exact maximum

    def test_delta_snapshot_skips_extrema_clamp(self):
        """Phase deltas carry bucket-edge extrema approximations; the
        percentile must report the honest bucket midpoint, not a value
        clamped to those synthetic edges."""
        h = Histogram()
        for _ in range(10):
            h.observe(1.0)
        snap = h.snapshot()
        h.observe(65.0)  # phase 2: one slow sample
        delta = h.snapshot().since(snap)
        assert not delta.extrema_exact
        assert delta.minimum == 64.0 and delta.maximum == 128.0  # bucket edges
        assert delta.percentile(99) == bucket_mid(bucket_of(65.0))  # == 96.0

    def test_phase_delta_p99_via_metrics(self):
        """Regression: a phase-diffed p99 through Metrics.since must be the
        unclamped bucket representative of the phase's own samples."""
        m = Metrics()
        for _ in range(50):
            m.observe("lat", 0.001)
        snap = m.snapshot()
        for _ in range(20):
            m.observe("lat", 3.0)  # bucket [2, 4), midpoint 3.0
        h = m.since(snap).histogram("lat")
        assert h.count == 20
        assert not h.extrema_exact
        assert h.percentile(99) == bucket_mid(bucket_of(3.0))

    def test_bucket_helpers_bracket_values(self):
        for v in (0.001, 0.5, 1.0, 3.0, 1000.0):
            e = bucket_of(v)
            mid = bucket_mid(e)
            # The bucket [2^(e-1), 2^e) contains v; its midpoint is within 2x.
            assert mid / 2 <= v <= mid * 2


class TestMetricsHistograms:
    def test_observe_creates_histogram(self):
        m = Metrics()
        m.observe("lat", 0.5)
        m.observe("lat", 2.0)
        snap = m.snapshot()
        assert snap.histogram("lat").count == 2
        assert snap.histogram_names() == ["lat"]
        assert snap.histogram("missing").count == 0

    def test_snapshot_includes_histograms(self):
        m = Metrics()
        m.observe("lat", 1.0)
        snap = m.snapshot()
        assert snap.histogram("lat").count == 1
        assert snap.histogram("lat").percentile(50) > 0.0

    def test_since_diffs_histograms_like_counters(self):
        """No stale distribution leaks across phases (phase-diff parity)."""
        m = Metrics()
        m.incr("ops", 3)
        for _ in range(100):
            m.observe("lat", 0.001)  # phase 1: fast ops
        snap = m.snapshot()
        m.incr("ops", 2)
        for _ in range(10):
            m.observe("lat", 1.0)  # phase 2: slow ops
        delta = m.since(snap)
        assert delta.count("ops") == 2
        h = delta.histogram("lat")
        assert h.count == 10
        # Phase-2 percentiles must not be dragged down by phase-1 samples.
        assert h.percentile(50) > 0.5

    def test_since_drops_unchanged_histograms(self):
        m = Metrics()
        m.observe("lat", 1.0)
        snap = m.snapshot()
        m.observe("other", 2.0)
        delta = m.since(snap)
        assert "lat" not in delta.histograms
        assert delta.histogram("other").count == 1

    def test_reset_clears_histograms(self):
        m = Metrics()
        m.observe("lat", 1.0)
        m.reset()
        snap = m.snapshot()
        assert snap.histogram("lat").count == 0
        assert snap.histogram_names() == []

    def test_snapshot_keeps_histograms_apart(self):
        m = Metrics()
        m.incr("c")
        m.add("a", 1.5)
        m.observe("lat", 1.0)
        snap = m.snapshot()
        assert (snap.counters, snap.accumulators) == ({"c": 1}, {"a": 1.5})
        assert list(snap.histograms) == ["lat"]
