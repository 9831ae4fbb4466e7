"""Tracer ring buffer, disabled-mode no-op and exporter round trips."""

from __future__ import annotations

import io
import json

import pytest

from repro.fs.dataplane import DataPlane
from repro.fs.redbud import RedbudFileSystem
from repro.fs.stream import make_stream_id
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    SamplingTracer,
    TraceEvent,
    Tracer,
    chrome_trace_dict,
    coerce_tracer,
    format_breakdown,
    layer_times,
    parse_sample,
    to_chrome,
    to_jsonl,
)
from tests.conftest import small_config
from tests.trace_reference import read_chrome, read_jsonl


class TestTracerBuffer:
    def test_emit_records_event(self):
        tr = Tracer()
        tr.emit("disk", "read", t=1.5, dur=0.25, stream=7, start=100, nblocks=8)
        (e,) = tr.events()
        assert e == TraceEvent(
            t=1.5, layer="disk", op="read", dur=0.25, stream=7,
            attrs={"start": 100, "nblocks": 8},
        )

    def test_ring_eviction_keeps_newest(self):
        tr = Tracer(capacity=10)
        for i in range(25):
            tr.emit("alloc", "op", t=float(i))
        assert len(tr.rows()) == 10
        assert tr.emitted == 25
        assert tr.dropped == 15
        assert [e.t for e in tr.events()] == [float(i) for i in range(15, 25)]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_unclocked_timestamps_are_monotone(self):
        tr = Tracer()
        for _ in range(5):
            tr.emit("x", "y")
        ts = [e.t for e in tr.events()]
        assert ts == sorted(ts)

    def test_bound_clock_first_bind_wins(self):
        tr = Tracer()
        tr.bind_clock(lambda: 3.0)
        tr.bind_clock(lambda: 99.0)  # ignored: first bind wins
        assert tr.now() == 3.0
        tr.bind_clock(lambda: 99.0, override=True)
        assert tr.now() == 99.0

    def test_span_measures_clock_delta(self):
        t = {"now": 1.0}
        tr = Tracer(clock=lambda: t["now"])
        with tr.span("fs", "write", stream=3, file=1):
            t["now"] = 4.5
        (e,) = tr.events()
        assert (e.t, e.dur, e.stream, e.attrs) == (1.0, 3.5, 3, {"file": 1})


class TestDisabledMode:
    def test_null_tracer_is_inert(self):
        n = NULL_TRACER
        assert isinstance(n, NullTracer)
        assert n.enabled is False
        n.bind_clock(lambda: 5.0)
        n.absorb([(0.0, 0.0, None, ("disk", "read"))], 1)
        assert n.spawn() is n
        assert n.rows() == [] and n.emitted == 0

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        tr.emit("disk", "read")
        assert tr.events() == [] and tr.emitted == 0

    def test_coerce_tracer(self):
        assert coerce_tracer(None) is NULL_TRACER
        assert coerce_tracer(False) is NULL_TRACER
        fresh = coerce_tracer(True)
        assert isinstance(fresh, Tracer) and fresh.enabled
        mine = Tracer(capacity=7)
        assert coerce_tracer(mine) is mine


class TestSamplingTracer:
    def test_dormant_at_rest(self):
        tr = SamplingTracer(every=10)
        assert tr.enabled is False
        tr.emit("disk", "read", t=1.0)  # unsampled path: swallowed
        with tr.span("fs", "write"):
            pass
        assert tr.events() == [] and tr.emitted == 0

    def test_deterministic_stream_selection(self):
        tr = SamplingTracer(every=10, offset=3)
        assert [s for s in range(40) if tr.sampled(s)] == [3, 13, 23, 33]
        everyone = SamplingTracer(every=1)
        assert all(everyone.sampled(s) for s in range(5))

    def test_offset_wraps_into_period(self):
        assert SamplingTracer(every=10, offset=13).offset == 3

    def test_armed_op_records_and_disarms(self):
        tr = SamplingTracer(every=2)
        with tr.op(4):
            assert tr.enabled is True and tr.active_stream == 4
            tr.emit("disk", "read", t=1.0, dur=0.5)
        assert tr.enabled is False and tr.active_stream is None
        (e,) = tr.events()
        assert e.stream == 4  # inherited from the armed stream

    def test_explicit_stream_wins_over_armed(self):
        tr = SamplingTracer(every=2)
        with tr.op(4):
            tr.emit("disk", "read", t=1.0, stream=9)
        (e,) = tr.events()
        assert e.stream == 9

    def test_disarms_on_exception(self):
        tr = SamplingTracer(every=2)
        with pytest.raises(RuntimeError):
            with tr.op(0):
                raise RuntimeError("boom")
        assert tr.enabled is False and tr.active_stream is None

    def test_period_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            SamplingTracer(every=0)

    def test_coerce_passes_sampler_through(self):
        tr = SamplingTracer(every=5)
        assert coerce_tracer(tr) is tr


class TestParseSample:
    def test_accepted_forms(self):
        assert parse_sample(1000) == 1000
        assert parse_sample("1/1000") == 1000
        assert parse_sample(" 1/50 ") == 50
        assert parse_sample("25") == 25

    def test_rejected_forms(self):
        with pytest.raises(ValueError, match="1/N"):
            parse_sample("2/1000")
        with pytest.raises(ValueError, match=">= 1"):
            parse_sample(0)
        with pytest.raises(ValueError, match=">= 1"):
            parse_sample("1/0")
        with pytest.raises(ValueError):
            parse_sample("1/abc")


SAMPLE = [
    TraceEvent(t=0.0, layer="disk", op="read", dur=0.5, stream=3, attrs={"start": 8}),
    TraceEvent(t=0.5, layer="alloc", op="layout_miss", stream=None, attrs={}),
    TraceEvent(t=1.0, layer="cache", op="miss", dur=0.25, stream=2,
               attrs={"nblocks": 4, "prefetch": True}),
]


class TestExporters:
    def test_jsonl_round_trip(self):
        buf = io.StringIO()
        assert to_jsonl(SAMPLE, buf) == 3
        buf.seek(0)
        assert read_jsonl(buf) == SAMPLE

    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        to_jsonl(SAMPLE, path)
        assert read_jsonl(path) == SAMPLE

    def test_chrome_dict_shape(self):
        doc = chrome_trace_dict(SAMPLE)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        first = doc["traceEvents"][0]
        assert first["ph"] == "X"
        assert first["cat"] == "disk"
        assert first["ts"] == 0.0 and first["dur"] == 0.5e6
        assert first["tid"] == 3

    def test_chrome_file_is_valid_json_and_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        to_chrome(SAMPLE, path)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 3
        back = read_chrome(path)
        # Chrome format is lossy only in float precision at 1e6 scaling;
        # these samples survive exactly.
        assert back == SAMPLE

    def test_breakdown_reports_layers(self):
        text = format_breakdown(SAMPLE)
        assert "disk" in text and "cache" in text and "alloc" in text
        assert layer_times(SAMPLE)["disk"] == pytest.approx(0.5)

    def test_breakdown_empty(self):
        assert "no trace events" in format_breakdown([])


class TestIntegration:
    def test_dataplane_emits_disk_and_alloc_events(self):
        tr = Tracer()
        plane = DataPlane(small_config(), tracer=tr)
        sid = make_stream_id(1, 2)
        f = plane.create_file("/a.dat")
        for i in range(8):
            reqs = plane.write(f, sid, i * 65536, 65536)
            plane.array.submit_batch(*reqs, True)
        layers = {e.layer for e in tr.events()}
        assert "disk" in layers and "alloc" in layers
        # disk events carry simulated times from the disk's own timeline.
        disk_events = [e for e in tr.events() if e.layer == "disk"]
        assert all(e.dur > 0 for e in disk_events)

    def test_mds_emits_meta_events(self):
        tr = Tracer()
        fs = RedbudFileSystem(small_config(), tracer=tr)
        fs.mds.mkdir(fs.mds.root, "d")
        ops = [e.op for e in tr.events() if e.layer == "meta"]
        assert "mkdir" in ops
        assert "journal_commit" in ops

    def test_default_is_null_tracer(self):
        plane = DataPlane(small_config())
        assert plane.tracer is NULL_TRACER
        sid = make_stream_id(1, 2)
        f = plane.create_file("/a.dat")
        plane.array.submit_batch(*plane.write(f, sid, 0, 65536), True)
        assert NULL_TRACER.rows() == [] and NULL_TRACER.emitted == 0
