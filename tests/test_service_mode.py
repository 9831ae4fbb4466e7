"""Open-loop service mode: event loop, stations, workload, runner.

Covers the three ISSUE-pinned properties — lazy-vs-materialized program
equivalence (hypothesis), open-loop determinism at any job count, and
bounded memory at a million streams — plus unit coverage of the heap
loop and the bounded-queue station math, and the observability layer:
telemetry frames, SLO verdicts, per-kind drop accounting and the
sampled-tracing fast-path guarantee.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.run import run
from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.meta.mds import MetadataServer
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop, Station
from repro.units import KiB, MiB
from repro.workloads.base import (
    StreamProgram,
    WriteOp,
    run_data_phase,
)
from repro.workloads.service import (
    ROW_KIND,
    ROW_METHOD,
    ROW_NBYTES,
    ROW_OFFSET,
    ServiceSpec,
    ServiceWorkload,
    resolve_duration,
    resolve_rate,
)

from .conftest import small_config
from .golden import arrivals


class TestEventLoop:
    def test_merges_sources_in_time_order(self):
        seen = []
        loop = EventLoop(SimClock())
        loop.add_source(iter([(0.5, "a1"), (1.0, "a2")]),
                        lambda now, op: seen.append((now, op)))
        loop.add_source(iter([(0.2, "b1"), (0.2, "b2")]),
                        lambda now, op: seen.append((now, op)))
        assert loop.run() == 4
        assert seen == [(0.2, "b1"), (0.4, "b2"), (0.5, "a1"), (1.5, "a2")]
        assert loop.clock.now == 1.5

    def test_until_parks_clock_and_keeps_pending(self):
        seen = []
        loop = EventLoop(SimClock())
        loop.add_source(iter([(1.0, "x"), (1.0, "y")]),
                        lambda now, op: seen.append(op))
        assert loop.run(until=1.5) == 1
        assert seen == ["x"]
        assert loop.clock.now == 1.5
        assert len(loop) == 1  # "y" still pending
        assert loop.run(until=2.0) == 1
        assert seen == ["x", "y"]

    def test_tie_breaks_by_registration_order(self):
        seen = []
        loop = EventLoop(SimClock())
        loop.add_source(iter([(1.0, "first")]), lambda now, op: seen.append(op))
        loop.add_source(iter([(1.0, "second")]), lambda now, op: seen.append(op))
        loop.run()
        assert seen == ["first", "second"]

    def test_holds_one_pending_event_per_source(self):
        def infinite():
            while True:
                yield (1.0, "op")

        loop = EventLoop(SimClock())
        loop.add_source(infinite(), lambda now, op: None)
        loop.run(until=100.0)
        assert len(loop) == 1  # never more than one queued arrival
        assert loop.processed == 100

    def test_negative_dt_rejected(self):
        loop = EventLoop(SimClock())
        with pytest.raises(ConfigError, match="negative inter-arrival"):
            loop.add_source(iter([(-0.1, "bad")]), lambda now, op: None)


class TestStation:
    def test_idle_server_latency_is_service_time(self):
        st_ = Station("s", lambda op: 0.25, depth=4)
        assert st_.offer(0.0, None) == 0.25
        st_.drain()
        assert st_.latency.snapshot().maximum == 0.25
        assert st_.busy_s == 0.25
        assert st_.completed == 1

    def test_fifo_backlog_accumulates_queueing_delay(self):
        st_ = Station("s", lambda op: 1.0, depth=10)
        # Three back-to-back arrivals at t=0: sojourns 1, 2, 3.
        assert [st_.offer(0.0, None) for _ in range(3)] == [1.0, 2.0, 3.0]
        snap = st_.latency.snapshot()
        assert snap.count == 3 and snap.maximum == 3.0
        assert st_.in_flight == 3

    def test_bounded_queue_drops(self):
        st_ = Station("s", lambda op: 1.0, depth=2)
        assert st_.offer(0.0, None) is not None
        assert st_.offer(0.0, None) is not None
        assert st_.offer(0.0, None) is None  # queue full -> dropped
        assert st_.dropped == 1 and st_.started == 2 and st_.offered == 3
        # Dropped op is never serviced.
        assert st_.busy_s == 2.0

    def test_completions_reaped_before_depth_check(self):
        st_ = Station("s", lambda op: 1.0, depth=1)
        st_.offer(0.0, None)
        assert st_.offer(0.5, None) is None  # still busy
        assert st_.offer(1.5, None) is not None  # first op completed
        assert st_.completed == 1

    def test_server_idles_between_sparse_arrivals(self):
        st_ = Station("s", lambda op: 0.5, depth=4)
        st_.offer(0.0, None)
        done = st_.offer(10.0, None)  # long idle gap: starts at arrival
        assert done == 10.5
        assert st_.saturation(10.5) == pytest.approx(1.0 / 10.5)

    def test_drain_returns_last_completion(self):
        st_ = Station("s", lambda op: 1.0, depth=10)
        st_.offer(0.0, None)
        st_.offer(0.0, None)
        assert st_.drain() == 2.0
        assert st_.in_flight == 0 and st_.completed == 2

    def test_depth_validation(self):
        with pytest.raises(ConfigError, match="depth"):
            Station("s", lambda op: 0.0, depth=0)


# -- lazy-vs-materialized equivalence ---------------------------------------

op_specs = st.lists(
    st.tuples(st.integers(0, 63), st.integers(1, 8), st.booleans()),
    min_size=1,
    max_size=24,
)


class TestLazyEquivalence:
    @given(specs=op_specs, seed=st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_closed_loop_runner_is_layout_identical(self, specs, seed):
        """run_data_phase produces bit-identical throughput and layout
        whether a program is lazy or materialized."""
        outcomes = []
        for variant in ("lazy", "eager"):
            plane = DataPlane(small_config())
            f = plane.create_file("shared.dat")
            ops = [
                WriteOp(f, off * 4096, n * 4096)
                for off, n, _ in specs
            ]
            source = (lambda ops=ops: iter(ops)) if variant == "lazy" else ops
            result = run_data_phase(
                plane, [StreamProgram(stream=1, ops=source)], seed=seed
            )
            outcomes.append((result, f.extent_count, f.size_bytes))
        assert outcomes[0] == outcomes[1]


# -- the service workload ----------------------------------------------------

def _small_service(streams=64, rate=2.0, duration=1.0, **kw):
    return ServiceSpec(
        streams=streams, rate=rate, duration_s=duration,
        request_bytes=16 * KiB, **kw,
    )


class TestServiceWorkload:
    def test_event_streams_deterministic_per_seed(self):
        cfg = small_config()
        spec = _small_service(seed=7)
        prefixes = []
        for _ in range(2):
            wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
            wl.setup()
            prefixes.append(
                [(dt, row[ROW_OFFSET], row[ROW_NBYTES])
                 for dt, row in arrivals(wl, "write", 50)]
            )
        assert prefixes[0] == prefixes[1]

    def test_kind_rates_partition_total_load(self):
        spec = _small_service(read_fraction=0.25, meta_fraction=0.25)
        total = sum(spec.kind_rate(k) for k in ("write", "read", "meta"))
        assert total == pytest.approx(spec.streams * spec.rate)

    def test_stream_folding_bounds_offsets(self):
        cfg = small_config()
        spec = _small_service(streams=10_000)
        wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
        wl.setup()
        max_offset = wl.regions * wl.region_bytes
        for _, row in arrivals(wl, "write", 200):
            assert 0 <= row[ROW_OFFSET] < max_offset
            assert row[ROW_OFFSET] % spec.request_bytes == 0

    def test_meta_ops_stay_in_bounded_pool(self):
        cfg = small_config()
        spec = _small_service(streams=4096, meta_fraction=0.9, read_fraction=0.05)
        wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
        wl.setup()
        for _, row in arrivals(wl, "meta", 100):
            assert ServiceWorkload.KINDS[row[ROW_KIND]] == "meta"
            assert row[ROW_NBYTES] == 0
            assert row[ROW_METHOD] in ("stat", "utime")

    def test_resolvers(self):
        assert resolve_rate("small") == 0.5
        assert resolve_rate(3.5) == 3.5
        assert resolve_duration("short") == 2.0
        assert resolve_duration(1.25) == 1.25
        with pytest.raises(ConfigError, match="unknown rate"):
            resolve_rate("warp")
        with pytest.raises(ConfigError, match="unknown duration"):
            resolve_duration("aeon")
        with pytest.raises(ConfigError, match="positive"):
            resolve_rate(0.0)

    @pytest.mark.parametrize("kw", [
        {"rate": float("inf")}, {"duration": float("inf")},
        {"rate": float("nan")}, {"duration": float("nan")},
    ], ids=["rate-inf", "duration-inf", "rate-nan", "duration-nan"])
    def test_non_finite_rate_or_duration_raises(self, kw):
        """An infinite arrival window (or rate) would never end the run."""
        with pytest.raises(ConfigError, match="finite"):
            run("service", streams=10, **kw)

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="streams"):
            ServiceSpec(streams=0)
        with pytest.raises(ConfigError, match="room for writes"):
            ServiceSpec(read_fraction=0.7, meta_fraction=0.5)


# -- the service runner ------------------------------------------------------

class TestServiceRunner:
    def test_report_shape_and_percentiles(self):
        r = run("service", streams=200, rate="small", duration="short", seed=0)
        cell = r.payload.cells[0]
        assert cell.arrivals > 0
        assert 0 < cell.active_streams <= 200
        assert set(cell.stations) == {"data", "meta"}
        for st_ in cell.stations.values():
            assert st_.offered == st_.started + st_.dropped
            assert st_.p50_s <= st_.p99_s <= st_.p999_s
            assert st_.saturation >= 0.0
        assert "service:r0.5" in r.phases
        assert r.metrics.histogram("service.data.latency_s").count > 0

    def test_open_loop_determinism_jobs_1_vs_4(self):
        kw = dict(streams=300, rates=("small", "medium"), duration="short", seed=3)
        serial = run("service", **kw)
        fanned = run("service", jobs=4, **kw)
        assert serial.fingerprint == fanned.fingerprint
        assert serial.payload == fanned.payload
        assert serial.phases == fanned.phases

    @pytest.mark.parametrize("rates,named", [
        (("small", "small"), "0.5"),
        (("small", 0.5, "medium"), "0.5"),
        ((1.0000001, 1.0000002), "1"),
    ])
    def test_duplicate_rates_are_refused(self, rates, named):
        """Two rates that resolve alike, or print alike in an artifact path,
        would write their artifacts to one path."""
        with pytest.raises(ConfigError, match=f"duplicate rates: {named}$"):
            run("service", streams=10, rates=rates, duration="short")

    def test_saturation_and_drops_rise_with_rate(self):
        r = run("service", streams=300, rates=("small", "large"),
                duration="short", seed=1, queue_depth=16)
        low = r.payload.get(0.5).stations["data"]
        high = r.payload.get(50.0).stations["data"]
        assert high.saturation > low.saturation
        assert high.dropped > low.dropped
        assert high.p99_s >= low.p99_s

    def test_reports_depth_and_drops_by_kind(self):
        r = run("service", streams=300, rate="large", duration="short",
                seed=1, queue_depth=4)
        cell = r.payload.cells[0]
        data = cell.stations["data"]
        meta = cell.stations["meta"]
        assert data.depth == 4 and meta.depth == 4
        assert set(data.drops_by_kind) == {"write", "read"}
        assert set(meta.drops_by_kind) == {"meta"}
        # The per-kind split partitions each station's drop count.
        assert sum(data.drops_by_kind.values()) == data.dropped
        assert sum(meta.drops_by_kind.values()) == meta.dropped
        assert data.dropped > 0  # overload at depth 4: the split is live

    @pytest.mark.slow
    def test_million_streams_bounded_memory(self):
        """A 1M-stream open-loop run completes without materializing
        per-stream op lists: peak traced allocation stays within a few
        tens of MB (the per-stream counter array is 8 MB)."""
        tracemalloc.start()
        try:
            r = run("service", streams=1_000_000, rate=0.005,
                    duration="short", seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cell = r.payload.cells[0]
        assert cell.arrivals > 1000
        assert cell.active_streams > 1000
        st_ = cell.stations["data"]
        assert st_.p999_s >= st_.p99_s >= st_.p50_s > 0.0
        assert peak < 64 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"


# -- telemetry, SLOs and sampled tracing -------------------------------------

class TestServiceTelemetry:
    def test_telemetry_produces_frame_grid(self):
        r = run("service", streams=200, rate="small", duration="short",
                seed=0, telemetry=True)
        cell = r.payload.cells[0]
        ts = cell.telemetry
        assert ts is not None
        # 50 windows across the arrival window (the last window may be
        # trimmed if nothing landed there).
        assert ts.window_s == pytest.approx(cell.duration_s / 50)
        assert 0 < len(ts.frames) <= 51
        # The loop-level arrivals counter accounts for every arrival.
        assert sum(ts.counter_values("arrivals")) == cell.arrivals
        assert "data.latency_s" in ts.hist_names()
        assert "data.queue_depth" in ts.hist_names()
        assert "data.busy_s" in ts.sum_names()
        # Station arrivals split by kind sum back to the station total.
        per_kind = sum(
            sum(ts.counter_values(f"data.{kind}.arrivals"))
            for kind in ("write", "read")
        )
        assert per_kind == sum(ts.counter_values("data.arrivals"))

    def test_explicit_window_width(self):
        r = run("service", streams=100, rate="small", duration="short",
                seed=0, telemetry=0.25)
        assert r.payload.cells[0].telemetry.window_s == 0.25

    def test_telemetry_off_by_default(self):
        r = run("service", streams=100, rate="small", duration="short", seed=0)
        cell = r.payload.cells[0]
        assert cell.telemetry is None and cell.slo is None
        assert r.payload.slo_verdict is None

    def test_slo_implies_telemetry_and_reports_verdict(self):
        r = run("service", streams=200, rate="small", duration="short",
                seed=0, slo=True)
        cell = r.payload.cells[0]
        assert cell.telemetry is not None
        assert cell.slo is not None
        assert {o.objective.series for o in cell.slo.results} == {
            "data.latency_s", "meta.latency_s",
        }
        assert cell.slo.verdict == "pass"
        assert r.payload.slo_verdict == "pass"

    def test_impossible_slo_fails(self):
        # p50 can legitimately be 0.0 in windows dominated by zero-cost
        # ops (cache hits), so even an absurd threshold doesn't taint
        # *every* window — but enough to blow any budget.
        r = run("service", streams=200, rate="small", duration="short",
                seed=0, slo="data.latency_s:p50<=1e-12")
        assert r.payload.slo_verdict == "fail"
        result = r.payload.cells[0].slo.results[0]
        assert result.windows > 0
        assert 0 < result.bad_windows <= result.windows
        assert result.burn_rate > 1.0
        assert result.worst > 0.0

    def test_telemetry_does_not_change_results_or_fingerprint(self):
        kw = dict(streams=200, rate="small", duration="short", seed=0)
        bare = run("service", **kw)
        observed = run("service", telemetry=True, slo=True, sample="1/50", **kw)
        assert bare.fingerprint == observed.fingerprint
        assert bare.phases == observed.phases
        assert bare.payload.cells[0].stations == observed.payload.cells[0].stations

    def test_determinism_across_jobs_and_repeats(self):
        kw = dict(streams=200, rates=("small", "medium"), duration="short",
                  seed=3, telemetry=True, slo=True)
        serial = run("service", **kw)
        fanned = run("service", jobs=4, **kw)
        again = run("service", **kw)
        assert serial.payload == fanned.payload == again.payload
        for a, b in zip(serial.payload.cells, fanned.payload.cells):
            assert a.telemetry == b.telemetry
            assert a.slo == b.slo


class TestSampledTracing:
    #: Large requests make every service op a multi-request batch, which is
    #: what the array core services (a one-request batch takes each disk's
    #: scalar ``submit_one`` body).
    KW = dict(streams=200, rate="small", duration="short", seed=0,
              request_bytes=4 * MiB)

    def test_sampling_keeps_vectorized_path_engaged(self):
        """One execution path under observation: a sampled and a fully
        traced run service every batch on the path the untraced run takes."""
        base = run("service", **self.KW)
        sampled = run("service", sample="1/10", **self.KW)
        traced = run("service", trace=True, **self.KW)
        prof_base = base.payload.cells[0].io_profile
        assert prof_base["batches_vectorized"] > 0
        assert prof_base["batches_scalar"] == 0
        assert sampled.payload.cells[0].io_profile == prof_base
        assert traced.payload.cells[0].io_profile == prof_base
        assert traced.trace.emitted > sampled.trace.emitted > 0

    def test_sampling_does_not_perturb_results(self):
        base = run("service", **self.KW)
        sampled = run("service", sample="1/10", **self.KW)
        assert base.payload.cells[0].stations == sampled.payload.cells[0].stations
        assert base.phases == sampled.phases

    def test_sampled_events_tag_only_sampled_streams(self):
        r = run("service", sample="1/10", **self.KW)
        events = r.trace.events()
        assert events, "sampling 1/10 of 200 streams must trace something"
        streams = {e.stream for e in events if e.stream is not None}
        assert streams, "armed events must carry stream ids"
        assert all(s % 10 == 0 for s in streams)
        # The service layer brackets each sampled op end-to-end.
        service_ops = {e.op for e in events if e.layer == "service"}
        assert any(op.endswith(".arrive") for op in service_ops)
        assert any(op.endswith(".sojourn") for op in service_ops)

    def test_explicit_tracer_wins_over_sample(self):
        from repro.obs import Tracer

        tr = Tracer()
        r = run("service", trace=tr, sample="1/10",
                streams=100, rate="small", duration="short", seed=0)
        assert r.trace is tr


class TestServiceCliTelemetry:
    ARGS = ["service", "--streams", "200", "--rate", "small",
            "--duration", "short", "--seed", "0"]

    def test_telemetry_flags_render_and_export(self, tmp_path, capsys):
        csv_path = tmp_path / "ts.csv"
        dash_path = tmp_path / "dash.txt"
        out_path = tmp_path / "svc.json"
        rc = main(self.ARGS + [
            "--telemetry", "--slo", "--sample", "1/50",
            "--telemetry-out", str(csv_path),
            "--dashboard-out", str(dash_path),
            "--out", str(out_path),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "drops by kind" in text
        assert "burn rate" in text
        assert "overall SLO verdict: pass" in text
        assert csv_path.read_text().startswith("window,start_s")
        assert "data.latency_s" in dash_path.read_text()
        doc = json.loads(out_path.read_text())
        assert doc["slo_verdict"] == "pass"

    def test_slo_failure_exits_nonzero(self, capsys):
        rc = main(self.ARGS + ["--slo", "data.latency_s:p50<=1e-12"])
        assert rc == 1
        assert "overall SLO verdict: fail" in capsys.readouterr().out

    def test_plain_run_has_no_slo_exit_semantics(self, capsys):
        assert main(self.ARGS) == 0
        assert "SLO" not in capsys.readouterr().out

    def test_sweep_artifacts_suffix_the_file_name_not_a_directory(self, tmp_path, capsys):
        """A dot in a directory name is not the file's extension."""
        runs = tmp_path / "runs.d"
        runs.mkdir()
        rc = main([
            "service", "--streams", "200", "--rates", "small,medium",
            "--duration", "short", "--telemetry",
            "--telemetry-out", str(runs / "telemetry"),
            "--dashboard-out", str(runs / "dash.txt"),
        ])
        assert rc == 0
        assert sorted(p.name for p in runs.iterdir()) == [
            "dash.r0.5.txt", "dash.r5.txt", "telemetry.r0.5", "telemetry.r5",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.d"]


class TestTelemetryOverhead:
    @pytest.mark.slow
    def test_million_streams_telemetry_overhead_bounded(self):
        """The observability acceptance pin: a 1M-stream run with
        per-window telemetry and 1/1000 sampled tracing perturbs nothing.
        Its wall-clock cost is the ``service_open`` row of the host-time
        ledger (benchmarks/ledger), where it gets N samples and a spread —
        a wall-clock ratio asserted here flaked."""
        kw = dict(streams=1_000_000, rate=0.005, duration="short", seed=0)
        base = run("service", **kw)
        obs = run("service", telemetry=True, sample="1/1000", **kw)
        cell = obs.payload.cells[0]
        assert cell.telemetry is not None and len(cell.telemetry.frames) > 0
        assert sum(cell.telemetry.counter_values("arrivals")) == cell.arrivals
        assert obs.trace.events(), "1/1000 of 1M streams must trace something"
        # Observe-only: identical stations.
        assert base.payload.cells[0].stations == cell.stations
