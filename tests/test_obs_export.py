"""Exporter round trips: traces (JSONL/Chrome) and telemetry time series (CSV)."""

from __future__ import annotations

import csv
import io
import json

from repro.obs import (
    SamplingTracer,
    TraceEvent,
    Tracer,
    timeseries_to_csv,
    to_chrome,
    to_jsonl,
)
from repro.obs.timeseries import TimeSeries
from tests.trace_reference import read_chrome, read_jsonl


class TestTraceRoundTrips:
    def test_empty_event_list_round_trips(self, tmp_path):
        jl = tmp_path / "empty.jsonl"
        ch = tmp_path / "empty.json"
        assert to_jsonl([], jl) == 0
        assert read_jsonl(jl) == []
        assert to_chrome([], ch) == 0
        assert read_chrome(ch) == []
        assert json.loads(ch.read_text())["traceEvents"] == []

    def test_non_ascii_op_names_survive(self, tmp_path):
        events = [
            TraceEvent(t=0.0, layer="meta", op="crèate", dur=0.1, stream=1,
                       attrs={"name": "ファイル.dat"}),
            TraceEvent(t=0.5, layer="disk", op="чтение", stream=None, attrs={}),
        ]
        jl = tmp_path / "uni.jsonl"
        to_jsonl(events, jl)
        assert read_jsonl(jl) == events
        ch = tmp_path / "uni.json"
        to_chrome(events, ch)
        assert read_chrome(ch) == events

    def test_stream_zero_and_none_round_trip_through_chrome(self, tmp_path):
        """Stream 0 and stream-less events share thread 0 on the timeline,
        yet each comes back as it went in — stream 0 is the first stream a
        ``SamplingTracer`` at its default offset samples."""
        tr = SamplingTracer(every=4)
        with tr.op(0):
            tr.emit("meta", "create", t=0.5, dur=0.25)
        events = [
            *tr.events(),
            TraceEvent(t=1.0, layer="fsm", op="free", attrs={"start": 8}),
            TraceEvent(t=1.5, layer="disk", op="read", stream=5, attrs={}),
        ]
        assert [e.stream for e in events] == [0, None, 5]
        path = tmp_path / "zero.json"
        assert to_chrome(events, path) == 3
        doc = json.loads(path.read_text())
        assert [(r["ph"], r["pid"], r["tid"]) for r in doc["traceEvents"]] == [
            ("X", 0, 0), ("X", 0, 0), ("X", 0, 5),
        ]
        assert read_chrome(path) == events
        # A file without the exact key still reads by thread id.
        for r in doc["traceEvents"]:
            del r["stream"]
        path.write_text(json.dumps(doc))
        assert [e.stream for e in read_chrome(path)] == [None, None, 5]

    def test_large_ring_buffer_wrap_round_trips(self, tmp_path):
        """Export after heavy eviction: only the retained tail is written,
        in order, and it round-trips exactly."""
        tr = Tracer(capacity=128)
        for i in range(1000):
            tr.emit("disk", "read", t=float(i), dur=0.5, stream=i % 7)
        assert tr.dropped == 1000 - 128
        events = tr.events()
        assert [e.t for e in events] == [float(i) for i in range(872, 1000)]
        path = tmp_path / "wrap.jsonl"
        assert to_jsonl(events, path) == 128
        assert read_jsonl(path) == events


def _sample_ts():
    ts = TimeSeries(window_s=0.5)
    for i in range(6):
        t = i * 0.5 + 0.1
        ts.incr(t, "arrivals", i + 1)
        ts.add(t, "bytes", 64.0 * i)
        ts.observe(t, "data.latency_s", 0.001 * (i + 1))
        ts.observe(t, "data.latency_s", 0.02 * (i + 1))
    ts.incr(4.2, "arrivals")  # leaves gap windows 6 and 7
    return ts.snapshot()


class TestTimeSeriesCsv:
    def test_shape_and_values(self):
        snap = _sample_ts()
        buf = io.StringIO()
        assert timeseries_to_csv(snap, buf) == len(snap.frames)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        header, data = rows[0], rows[1:]
        assert len(data) == len(snap.frames)
        assert header[:2] == ["window", "start_s"]
        assert "arrivals" in header and "bytes" in header
        for col in ("data.latency_s.count", "data.latency_s.p50",
                    "data.latency_s.p99", "data.latency_s.p999"):
            assert col in header
        arrivals = [int(r[header.index("arrivals")]) for r in data]
        assert arrivals == snap.counter_values("arrivals")
        counts = [int(r[header.index("data.latency_s.count")]) for r in data]
        assert counts == [2] * 6 + [0, 0, 0]

    def test_gap_windows_render_zero(self):
        snap = _sample_ts()
        buf = io.StringIO()
        timeseries_to_csv(snap, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        header, gap = rows[0], rows[7]  # window 6: untouched
        assert gap[header.index("arrivals")] == "0"
        assert gap[header.index("data.latency_s.p99")] == "0"

    def test_deterministic_output(self, tmp_path):
        snap = _sample_ts()
        a, b = io.StringIO(), io.StringIO()
        timeseries_to_csv(snap, a)
        timeseries_to_csv(snap, b)
        assert a.getvalue() == b.getvalue()
