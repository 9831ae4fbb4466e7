"""Time-series telemetry: windowing, snapshots, exact histogram merges."""

from __future__ import annotations

import pickle

import pytest

from repro.obs.histogram import Histogram
from repro.obs.timeseries import FrameSnapshot, TimeSeries, TimeSeriesSnapshot


class TestWindowing:
    def test_signals_land_in_their_windows(self):
        ts = TimeSeries(window_s=1.0)
        ts.incr(0.2, "arrivals")
        ts.incr(0.9, "arrivals")
        ts.incr(2.5, "arrivals")
        ts.add(0.5, "bytes", 100.0)
        ts.observe(2.1, "latency_s", 0.25)
        snap = ts.snapshot()
        assert len(snap.frames) == 3  # windows 0, 1 (gap), 2
        assert snap.counter_values("arrivals") == [2, 0, 1]
        assert snap.sum_values("bytes") == [100.0, 0.0, 0.0]
        assert snap.frames[2].percentile("latency_s", 50.0) > 0.0

    def test_window_boundary_goes_to_upper_window(self):
        ts = TimeSeries(window_s=0.5)
        ts.incr(0.5, "x")  # exactly on the boundary -> window 1
        snap = ts.snapshot()
        assert snap.counter_values("x") == [0, 1]

    def test_gap_windows_materialize_empty(self):
        ts = TimeSeries(window_s=1.0)
        ts.incr(4.5, "x")
        snap = ts.snapshot()
        assert len(snap.frames) == 5
        assert all(f == FrameSnapshot(f.index, f.start_s) for f in snap.frames[:4])
        assert snap.frames[4].counters == {"x": 1}
        assert snap.frames[3].start_s == 3.0

    def test_empty_series_snapshots_empty(self):
        snap = TimeSeries(window_s=1.0).snapshot()
        assert snap.frames == ()
        assert snap.duration_s == 0.0
        assert snap.counter_names() == []
        assert snap.hist_names() == []

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            TimeSeries(window_s=0.0)
        with pytest.raises(ValueError, match="window"):
            TimeSeries(window_s=-1.0)

    def test_negative_timestamp_rejected(self):
        ts = TimeSeries(window_s=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            ts.incr(-0.1, "x")


class TestSnapshot:
    def _sample(self):
        ts = TimeSeries(window_s=0.5)
        for i, v in enumerate([0.001, 0.004, 0.002, 0.032]):
            ts.observe(i * 0.5, "lat", v)
            ts.incr(i * 0.5, "n")
        ts.add(0.0, "bytes", 64.0)
        return ts.snapshot()

    def test_names_are_sorted_unions(self):
        ts = TimeSeries(window_s=1.0)
        ts.incr(0.0, "b")
        ts.incr(1.5, "a")
        ts.observe(0.0, "z.lat", 1.0)
        ts.observe(1.5, "a.lat", 1.0)
        snap = ts.snapshot()
        assert snap.counter_names() == ["a", "b"]
        assert snap.hist_names() == ["a.lat", "z.lat"]

    def test_duration_covers_frame_grid(self):
        snap = self._sample()
        assert snap.duration_s == pytest.approx(4 * 0.5)

    def test_percentile_values_zero_on_empty_windows(self):
        ts = TimeSeries(window_s=1.0)
        ts.observe(2.5, "lat", 0.125)
        vals = ts.snapshot().percentile_values("lat", 99.0)
        assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] > 0.0

    def test_merged_equals_single_histogram(self):
        """Merging per-window sketches reproduces one histogram that saw
        every sample — the property SLO compliance windows rely on."""
        samples = [0.001, 0.002, 0.004, 0.031, 0.0005, 0.26]
        ts = TimeSeries(window_s=0.25)
        whole = Histogram()
        for i, v in enumerate(samples):
            ts.observe(i * 0.3, "lat", v)
            whole.observe(v)
        merged = ts.snapshot().merged("lat")
        ref = whole.snapshot()
        assert merged.count == ref.count
        assert merged.buckets == ref.buckets
        for p in (50.0, 99.0, 99.9):
            assert merged.percentile(p) == ref.percentile(p)

    def test_merged_respects_span_bounds(self):
        ts = TimeSeries(window_s=1.0)
        ts.observe(0.5, "lat", 1.0)
        ts.observe(1.5, "lat", 2.0)
        ts.observe(2.5, "lat", 4.0)
        snap = ts.snapshot()
        assert snap.merged("lat", 0, 2).count == 2
        assert snap.merged("lat", 2).count == 1
        assert snap.merged("lat", 0, None).count == 3

    def test_merged_unknown_series_is_empty(self):
        snap = self._sample()
        assert snap.merged("nope").count == 0

    def test_snapshot_is_picklable_and_comparable(self):
        snap = self._sample()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert clone.percentile_values("lat", 99.0) == snap.percentile_values(
            "lat", 99.0
        )

    def test_snapshot_is_decoupled_from_collector(self):
        ts = TimeSeries(window_s=1.0)
        ts.incr(0.0, "x")
        snap = ts.snapshot()
        ts.incr(0.0, "x")
        ts.incr(5.0, "x")
        assert snap.counter_values("x") == [1]


class TestFrameSnapshot:
    def test_defaults(self):
        f = FrameSnapshot(index=3, start_s=1.5)
        assert (f.counters, f.sums, f.hists) == ({}, {}, {})
        assert f.count("anything") == 0
        assert f.total("anything") == 0.0
        assert f.percentile("anything", 99.0) == 0.0

    def test_empty_snapshot_type_roundtrip(self):
        snap = TimeSeriesSnapshot(window_s=2.0)
        assert snap.frames == ()
