"""Record → reduce equals per-arrival statistics, bit for bit.

The service path logs one flat row per arrival and computes windows,
counters and histograms from columns once per chunk (docs/TELEMETRY.md).
These tests hold that to the per-arrival oracle vendored in
``tests/service_reference.py`` with ``==`` — float ``sums`` and histogram
``total``s included — at chunk sizes 1, 7 and larger than the script, and
cover the event-loop and station behaviour the tightened loop must keep.
"""

from __future__ import annotations

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.histogram as histogram_mod
import repro.sim.events as events_mod
import repro.workloads.service as service_mod
from repro.core.run import run
from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import redbud_mif_profile
from repro.meta.mds import MetadataServer
from repro.obs.export import timeseries_to_csv
from repro.obs.histogram import Histogram
from repro.obs.timeseries import TimeSeries
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop, Station
from repro.workloads.base import MetaOp, ReadOp, WriteOp
from repro.workloads.service import (
    ROW_METHOD,
    ROW_NBYTES,
    ROW_OFFSET,
    ROW_STREAM,
    ROW_TARGET,
    ServiceSpec,
    ServiceTelemetry,
    ServiceWorkload,
)

from .service_reference import (
    HeapEventLoop,
    ReferenceCacheTelemetry,
    ReferenceEvents,
    ReferenceStation,
    ReferenceTelemetry,
)

# ---------------------------------------------------------------------------
# Histogram.observe_array == a loop of observe
# ---------------------------------------------------------------------------

#: Magnitudes far enough apart that the order of float additions shows.
awkward = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=1e4, allow_nan=False),
    st.sampled_from([0.1, 0.2, 0.3, 1e-7, 3.3e3, 1.0, 2.0**-20]),
)


@given(st.lists(awkward, max_size=40), st.lists(awkward, min_size=1, max_size=200))
def test_observe_array_equals_observe_loop(before, values):
    scalar, bulk = Histogram(), Histogram()
    for v in before:  # a running sum to be seeded from
        scalar.observe(v)
        bulk.observe(v)
    for v in values:
        scalar.observe(v)
    bulk.observe_array(np.array(values))
    assert bulk.snapshot() == scalar.snapshot()  # float total: same bits


def test_observe_array_rejects_negative_and_ignores_empty():
    h = Histogram()
    h.observe_array(np.array([]))
    assert h.snapshot().count == 0
    with pytest.raises(ValueError, match="non-negative"):
        h.observe_array(np.array([1.0, -0.5]))


# ---------------------------------------------------------------------------
# Reduced telemetry frames and station histograms == the per-arrival oracle
# ---------------------------------------------------------------------------

#: What one arrival looks like to the per-arrival oracle (a protocol op) ...
KIND_OPS = {
    "write": lambda n: WriteOp(None, 0, n),
    "read": lambda n: ReadOp(None, 0, n),
    "meta": lambda n: MetaOp("stat"),
}
#: ... and to the reduced path (a row: kind code, stream, nbytes, detail).
KIND_ROWS = {
    "write": lambda n: (0, 0, n, 0),
    "read": lambda n: (1, 0, n, 0),
    "meta": lambda n: (2, 0, 0, "stat", ()),
}

arrival = st.tuples(
    # Inter-arrival gap: mostly within a window, sometimes many windows.
    st.one_of(
        st.floats(min_value=0.0, max_value=0.05),
        st.floats(min_value=0.5, max_value=3.0),
    ),
    st.sampled_from(sorted(KIND_OPS)),
    # Service time: completions land in the arrival window or several later.
    st.one_of(st.just(0.0), awkward.map(lambda v: v % 0.7)),
    st.integers(min_value=1, max_value=1 << 20),
)


def _drive(telemetry, station_cls, script, depth):
    """Play one script through a data and a meta station; returns them.

    ``ServiceTelemetry`` is driven the way the event loop drives it — rows,
    and one loop-probe call for the whole time column; the oracle per
    arrival, with protocol ops."""
    reduced = isinstance(telemetry, ServiceTelemetry)
    make = KIND_ROWS if reduced else KIND_OPS
    service = {}
    stations = {
        name: station_cls(name, lambda op: service[id(op)], depth)
        for name in ("data", "meta")
    }
    for st_ in stations.values():
        st_.probe = telemetry.station_probe(st_.name)
    times = list(itertools.accumulate((dt for dt, *_ in script), initial=0.0))[1:]

    def arrive(i):
        now = times[i]
        _, kind, service_s, nbytes = script[i]
        op = make[kind](nbytes)
        service[id(op)] = service_s
        stations["meta" if kind == "meta" else "data"].offer(now, op)
        if i % 5 == 0:
            # A low-rate scalar caller (the scrub handler) shares the frames.
            telemetry.series.incr(now, "scrub.steps")
            telemetry.series.add(now, "side.sum", service_s)
            telemetry.series.observe(now, "side.hist", service_s)

    if reduced:
        for lo, hi in telemetry.loop_probe(np.array(times)):
            for i in range(lo, hi):
                arrive(i)
    else:
        for i, now in enumerate(times):
            telemetry.loop_probe(now, None)
            arrive(i)
    return stations


@settings(deadline=None, max_examples=60)
@given(
    script=st.lists(arrival, min_size=1, max_size=120),
    depth=st.integers(min_value=1, max_value=6),
    window_s=st.sampled_from([0.04, 0.1, 1.0 / 3.0]),
    chunk=st.sampled_from([1, 7, 10_000]),
)
def test_reduced_frames_equal_per_arrival_frames(script, depth, window_s, chunk):
    old = (service_mod.TELEMETRY_CHUNK, histogram_mod.LOG_CHUNK)
    service_mod.TELEMETRY_CHUNK = histogram_mod.LOG_CHUNK = chunk
    try:
        telemetry = ServiceTelemetry(window_s)
        stations = _drive(telemetry, Station, script, depth)
    finally:
        service_mod.TELEMETRY_CHUNK, histogram_mod.LOG_CHUNK = old
    reference = ReferenceTelemetry(window_s)
    ref_stations = _drive(reference, ReferenceStation, script, depth)

    # Station histograms are readable mid-run (before drain) ...
    for name, st_ in stations.items():
        ref = ref_stations[name]
        assert st_.latency.snapshot() == ref.latency.snapshot()
        assert st_.queue_depth.snapshot() == ref.queue_depth.snapshot()
        # ... and unchanged by it.
        assert st_.drain() == ref.drain()
        assert st_.latency.snapshot() == ref.latency.snapshot()
        assert st_.queue_depth.snapshot() == ref.queue_depth.snapshot()
        assert (st_.offered, st_.started, st_.dropped, st_.completed, st_.busy_s) == (
            ref.offered, ref.started, ref.dropped, ref.completed, ref.busy_s)

    got, want = telemetry.snapshot(), reference.snapshot()
    assert got == want  # counters, float sums, buckets, extrema, totals
    for frame in got.frames:
        # Metadata ops move no data: the meta station never grows a bytes key.
        assert "meta.bytes" not in frame.sums
        # Snapshots are name-sorted whatever order the signals arrived in.
        for d in (frame.counters, frame.sums, frame.hists):
            assert list(d) == sorted(d)


# ---------------------------------------------------------------------------
# Station: refusing by comparison == examining every arrival
# ---------------------------------------------------------------------------

#: Where the next arrival lands: after a gap (0.0 = a tie), at the exact
#: instant the oldest / the newest in-flight operation completes, or earlier
#: than the previous one (no loop does that; the station need not care).
station_step = st.tuples(
    st.one_of(
        st.tuples(st.just("gap"), st.sampled_from([0.0, 0.0, 0.01, 0.1]) | st.floats(0.0, 0.3)),
        st.tuples(st.sampled_from(["oldest", "newest", "rewind"]), st.just(0.0)),
    ),
    st.one_of(st.just(0.0), st.sampled_from([0.05, 0.1, 0.25]), awkward.map(lambda v: v % 0.7)),
    st.booleans(),  # read the station right after this arrival?
)


def _recorder(columns: bool):
    """A probe that keeps every row it is shown — per arrival, or taking a
    refused run by column and asking to be synced before it is read."""
    rows = []

    def probe(*row):
        rows.append(row)

    if columns:
        def refused(times, ops, queued):
            assert len(times) == len(ops) > 0
            rows.extend((now, op, queued, None, 0.0) for now, op in zip(times, ops))

        probe.refused, probe.upstream = refused, None
    return probe, rows


def _books(station):
    return (
        station.offered, station.started, station.dropped, station.completed,
        station.busy_s, station.free_at,
    )


@settings(deadline=None, max_examples=200)
@given(
    script=st.lists(station_step, min_size=1, max_size=60),
    depth=st.integers(min_value=1, max_value=8),
    bound=st.sampled_from([1, 3, 1024]),
    columns=st.booleans(),
)
def test_station_equals_the_per_arrival_station(script, depth, bound, columns):
    old, events_mod.REFUSED_CHUNK = events_mod.REFUSED_CHUNK, bound
    try:
        _play_both_stations(script, depth, columns)
    finally:
        events_mod.REFUSED_CHUNK = old


def _play_both_stations(script, depth, columns):
    station = Station("data", lambda op: op[-1], depth)
    ref = ReferenceStation("data", lambda op: op[-1], depth)
    station.probe, got = _recorder(columns)
    ref.probe, want = _recorder(False)
    assert station.probe.upstream is not None if columns else True
    now = 0.0
    for i, ((mode, dt), service_s, peek) in enumerate(script):
        if mode == "gap":
            now += dt
        elif mode == "rewind":
            now *= 0.5
        elif ref._inflight:
            now = max(now, ref._inflight[0 if mode == "oldest" else -1])
        op = (i % 3, i, 4096, service_s)
        assert station.offer(now, op) == ref.offer(now, op)
        if peek:
            # Counters are exact between arrivals, inside a refused run too ...
            assert _books(station) == _books(ref)
            if i % 2:
                # ... the histogram as well (reading it books the open run) ...
                assert station.queue_depth.snapshot() == ref.queue_depth.snapshot()
            if columns:
                # ... and so is an observer that asks its station first.
                station.probe.upstream()
                assert got == want
    assert _books(station) == _books(ref)
    assert station.drain() == ref.drain()
    assert _books(station) == _books(ref)
    assert got == want  # rows, in order: refused runs before the next accepted arrival
    assert station.latency.snapshot() == ref.latency.snapshot()
    assert station.queue_depth.snapshot() == ref.queue_depth.snapshot()


def test_snapshot_mid_run_does_not_disturb_what_follows():
    def play(telemetry, station, make, peek):
        station.probe = telemetry.station_probe("data")
        for i in range(60):
            now = i * 0.013
            if make is KIND_OPS:
                telemetry.loop_probe(now, None)  # the oracle's arrivals count
            station.offer(now, make["write" if i % 3 else "read"](4096 + i))
            if peek and i == 29:
                assert len(telemetry.snapshot().frames) > 1
        return telemetry.snapshot()

    got = play(
        ServiceTelemetry(0.1), Station("data", lambda op: 0.031, 2), KIND_ROWS, peek=True)
    want = play(
        ReferenceTelemetry(0.1), ReferenceStation("data", lambda op: 0.031, 2), KIND_OPS,
        peek=False)
    assert got == want


def test_telemetry_memory_is_bounded_by_the_chunk(monkeypatch):
    monkeypatch.setattr(service_mod, "TELEMETRY_CHUNK", 8)
    monkeypatch.setattr(histogram_mod, "LOG_CHUNK", 8)
    telemetry = ServiceTelemetry(0.1)
    station = Station("data", lambda op: 0.001, depth=4)
    station.probe = telemetry.station_probe("data")
    op = KIND_ROWS["write"](4096)
    for i in range(100):
        station.offer(i * 0.01, op)
        # Never more than a chunk of rows waiting to be reduced.
        reduced = sum(
            f.counters.get("data.arrivals", 0)
            for f in telemetry.series._frames.values()
        )
        assert i + 1 - reduced < 8
        assert len(station.queue_depth._log) < 8 and len(station.latency._log) < 8
    assert sum(telemetry.snapshot().counter_values("data.arrivals")) == 100


# ---------------------------------------------------------------------------
# Cache-counter windows are addressed by index (the latent mis-billing)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_cache_deltas_are_billed_to_their_own_window(seed):
    """``int((29 * 0.04) / 0.04) == 28``: addressing the cache window by a
    reconstructed timestamp billed window 29's hits to window 28 at the CI
    smoke size.  Per-window deltas must partition the MDS counter delta and
    window 29 must hold its own."""
    assert int((29 * 0.04) / 0.04) == 28
    kw = dict(streams=2000, rate="small", duration="short", seed=seed)
    ts = run("service", telemetry=True, slo=True, **kw).payload.cells[0].telemetry
    assert ts.window_s == 0.04
    hits = ts.counter_values("cache.hits")
    assert hits[29] > 0 and "cache.hit_rate" in ts.frames[29].sums
    # The hits counted while the arrival window was open: the whole run's,
    # less the ones the (untimed) setup made before tracking began.
    cfg = redbud_mif_profile()
    mds = MetadataServer(cfg)
    ServiceWorkload(
        ServiceSpec(streams=2000, rate=0.5, duration_s=2.0, seed=seed),
        DataPlane(cfg), mds,
    ).setup()
    setup_hits = mds.metrics.count("cache.hits")
    total = run("service", **kw).metrics.count("cache.hits")
    assert sum(hits) == total - setup_hits


def test_frame_at_addresses_by_index():
    ts = TimeSeries(0.04)
    ts.frame_at(29).counters["x"] = 1
    assert ts.frame(29 * 0.04) is ts.frame_at(28)  # the float round trip
    assert [f.index for f in ts.snapshot().frames if f.counters] == [29]


# ---------------------------------------------------------------------------
# Canonical frame key order in exports
# ---------------------------------------------------------------------------

def test_export_bytes_do_not_depend_on_signal_order():
    def build(order):
        ts = TimeSeries(1.0)
        for name in order:
            ts.incr(0.5, f"c.{name}")
            ts.add(0.5, f"s.{name}", 1.5)
            ts.observe(0.5, f"h.{name}", 0.25)
        snap = ts.snapshot()
        buf = io.StringIO()
        timeseries_to_csv(snap, buf)
        return snap, buf.getvalue()

    (forward, forward_csv), (backward, backward_csv) = build("abc"), build("cba")
    assert forward_csv == backward_csv
    for snap in (forward, backward):
        (frame,) = snap.frames
        assert list(frame.counters) == ["c.a", "c.b", "c.c"]
        assert list(frame.sums) == ["s.a", "s.b", "s.c"]
        assert list(frame.hists) == ["h.a", "h.b", "h.c"]


# ---------------------------------------------------------------------------
# EventLoop: what the tightened run() must keep
# ---------------------------------------------------------------------------

class TestEventLoopContract:
    def test_equal_time_ties_dispatch_in_scheduling_order(self):
        seen = []
        loop = EventLoop(SimClock())
        # a's second event and b's first both land at t=1.0; b's was
        # scheduled first (at registration), a's only after a1 dispatched.
        loop.add_source(iter([(0.5, "a1"), (0.5, "a2")]), lambda t, op: seen.append(op))
        loop.add_source(iter([(1.0, "b1"), (0.0, "b2")]), lambda t, op: seen.append(op))
        assert loop.run() == 4
        assert seen == ["a1", "b1", "a2", "b2"]

    def test_source_exhausted_mid_run_retires(self):
        seen = []
        loop = EventLoop(SimClock())
        loop.add_source(iter([(0.1, "short")]), lambda t, op: seen.append(op))
        loop.add_source(iter([(0.2, "x"), (0.2, "y")]), lambda t, op: seen.append(op))
        assert loop.run(until=0.3) == 2
        assert len(loop) == 1  # only the longer source is still pending
        assert loop.run() == 1
        assert seen == ["short", "x", "y"] and len(loop) == 0
        loop.add_source(iter(()), lambda t, op: None)  # empty: never pending
        assert len(loop) == 0

    def test_handler_may_add_a_source_during_dispatch(self):
        """run() swaps the dispatched entry for the source's next arrival
        in place (heapreplace); a source the handler registers meanwhile
        must neither be lost nor displace it, even on a tie."""
        seen = []
        loop = EventLoop(SimClock())

        def spawn(now, op):
            seen.append((now, op))
            if op == "p1":
                # First child event ties with the parent's dispatch time,
                # the second with the parent's next arrival.
                loop.add_source(
                    iter([(0.0, "c1"), (1.0, "c2")]),
                    lambda t, o: seen.append((t, o)),
                )

        loop.add_source(iter([(1.0, "p1"), (1.0, "p2"), (1.0, "p3")]), spawn)
        assert loop.run() == 5
        # c2 was scheduled (after c1 dispatched) later than p2 (after p1).
        assert seen == [(1.0, "p1"), (1.0, "c1"), (2.0, "p2"), (2.0, "c2"), (3.0, "p3")]
        assert len(loop) == 0 and loop.processed == 5

    def test_negative_dt_mid_run_raises_and_stays_consistent(self):
        seen = []
        loop = EventLoop(SimClock())
        loop.add_source(iter([(0.1, "ok"), (-1.0, "bad")]), lambda t, op: seen.append(op))
        loop.add_source(iter([(0.5, "other")]), lambda t, op: seen.append(op))
        with pytest.raises(ConfigError, match="negative inter-arrival"):
            loop.run()
        # "ok" was dispatched and counted; its source is retired, the other
        # one untouched and still runnable.
        assert seen == ["ok"] and loop.processed == 1 and len(loop) == 1
        assert loop.run() == 1
        assert seen == ["ok", "other"] and loop.processed == 2 and len(loop) == 0

    def test_run_until_parks_the_clock(self):
        loop = EventLoop(SimClock())
        loop.add_source(iter([(1.0, "x"), (5.0, "y")]), lambda t, op: None)
        assert loop.run(until=3.0) == 1
        assert loop.clock.now == 3.0 and len(loop) == 1
        assert loop.run(until=4.0) == 0
        assert loop.clock.now == 4.0
        assert loop.run() == 1 and loop.clock.now == 6.0  # no until: no parking

    def test_probe_sees_every_event_before_its_handler(self):
        """The probe is a run-level hook: called once per merged chunk with
        the sorted times, it cuts the chunk into runs, and its code between
        two runs executes between their handlers."""
        order = []
        loop = EventLoop(SimClock())

        def probe(times):
            order.append(("probe", times.tolist()))
            for i in range(len(times)):
                order.append(("enter", i))
                yield i, i + 1

        loop.probe = probe
        loop.add_blocks(
            iter([([0.125, 0.125], ["a", "b"]), ([0.25], ["c"])]),
            lambda t, op: order.append(("run", op)),
        )
        assert loop.run() == 3
        assert order == [
            ("probe", [0.125, 0.25]), ("enter", 0), ("run", "a"), ("enter", 1), ("run", "b"),
            ("probe", [0.5]), ("enter", 0), ("run", "c"),
        ]


# ---------------------------------------------------------------------------
# The chunk-merged schedule is the heap's, bit for bit
# ---------------------------------------------------------------------------

#: Integer-valued gaps make exact ties, zero gaps and equal-time heads
#: common; the float ones make them rare.
gap = st.one_of(
    st.integers(min_value=0, max_value=3).map(float),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
gap_lists = st.lists(gap, min_size=0, max_size=12)


def _blocks(events, size):
    """A ``(dt, op)`` list as ``(gaps, ops)`` blocks of ``size``; ``drawn``
    counts the blocks handed out."""
    drawn = [0]

    def source():
        for lo in range(0, len(events), size):
            drawn[0] += 1
            chunk = events[lo:lo + size]
            yield [dt for dt, _ in chunk], [op for _, op in chunk]

    return source(), drawn


def _counted(events):
    drawn = [0]

    def source():
        for event in events:
            drawn[0] += 1
            yield event

    return source(), drawn


@settings(deadline=None, max_examples=150)
@given(
    sources=st.lists(gap_lists, min_size=1, max_size=4),
    child=gap_lists,
    spawn_at=st.integers(min_value=0, max_value=20),
    size=st.sampled_from([1, 3, 1024]),
    until=st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=12).map(float),
        st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
    ),
)
def test_chunked_schedule_equals_the_heap(sources, child, spawn_at, size, until):
    def play(loop, blocked):
        seen, draws = [], []

        def register(name, gaps):
            events = [(dt, (name, i)) for i, dt in enumerate(gaps)]
            if blocked:
                source, drawn = _blocks(events, size)
                loop.add_blocks(source, handler)
            else:
                source, drawn = _counted(events)
                loop.add_source(source, handler)
            draws.append(drawn)

        def handler(now, op):
            assert loop.clock.now == now
            if len(seen) == spawn_at:
                register("child", child)  # mid-dispatch, possibly on a tie
            seen.append((now, op))

        for k, gaps in enumerate(sources):
            register(k, gaps)
        state = []
        for horizon in (until, None):
            n = loop.run(until=horizon)
            state.append((n, list(seen), loop.processed, len(loop), loop.clock.now))
        return state, [d[0] for d in draws]

    want, heap_draws = play(HeapEventLoop(SimClock()), blocked=False)
    got, block_draws = play(EventLoop(SimClock()), blocked=True)
    assert got == want
    # The next block is drawn exactly when the heap draws its first event.
    assert block_draws == [-(-d // size) for d in heap_draws]
    if size == 1:
        # Per-event sources are one-row blocks: the same draws, one by one.
        got, event_draws = play(EventLoop(SimClock()), blocked=False)
        assert got == want and event_draws == heap_draws


@settings(deadline=None, max_examples=60)
@given(
    script=st.lists(
        st.tuples(
            # Mostly within a window; sometimes several windows are skipped.
            st.one_of(
                st.floats(min_value=0.0, max_value=0.05),
                st.floats(min_value=0.5, max_value=3.0),
            ),
            st.integers(min_value=0, max_value=3),  # cache hits this arrival adds
            st.integers(min_value=0, max_value=2),  # ... and misses
        ),
        min_size=1, max_size=80,
    ),
    window_s=st.sampled_from([0.04, 0.1, 1.0 / 3.0]),
    size=st.sampled_from([1, 3, 1024]),
)
def test_loop_probe_per_window_run_equals_per_arrival_probe(script, window_s, size):
    """Cache deltas are read between the last arrival of one window and the
    first of the next, windows without an arrival included."""

    class Bag:
        def __init__(self):
            self.counters = {"cache.hits": 5}  # set-up traffic: never billed

        def raw_counters(self):
            return self.counters

    def play(loop, telemetry, station, make, blocked):
        bag = Bag()
        telemetry.track_cache(bag)
        loop.probe = telemetry.loop_probe
        station.probe = telemetry.station_probe("data")

        def handler(now, i):
            _, hits, misses = script[i]
            bag.counters["cache.hits"] += hits
            bag.counters["cache.misses"] = bag.counters.get("cache.misses", 0) + misses
            station.offer(now, make["write"](4096))

        events = [(dt, i) for i, (dt, _, _) in enumerate(script)]
        if blocked:
            loop.add_blocks(_blocks(events, size)[0], handler)
        else:
            loop.add_source(iter(events), handler)
        loop.run()
        telemetry.finish(loop.clock.now)
        return telemetry

    got = play(
        EventLoop(SimClock()), ServiceTelemetry(window_s),
        Station("data", lambda op: 0.001, 4), KIND_ROWS, blocked=True)
    want = play(
        HeapEventLoop(SimClock()), ReferenceCacheTelemetry(window_s),
        ReferenceStation("data", lambda op: 0.001, 4), KIND_OPS, blocked=False)
    assert got.snapshot() == want.snapshot()
    # The run-level probe addressed no window the per-arrival one did not.
    assert sorted(got.series._frames) == sorted(want.series._frames)
    hits = sum(h for _, h, _ in script)
    assert sum(got.snapshot().counter_values("cache.hits")) == hits


def _fresh_workload(spec):
    cfg = redbud_mif_profile()
    wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
    wl.setup()
    return wl


@pytest.mark.parametrize("block", [1, 3, 1024])
@pytest.mark.parametrize("kind", ServiceWorkload.KINDS)
def test_blocks_of_rows_equal_the_per_event_generator(monkeypatch, kind, block):
    """Same gaps, same op fields, same state of each of the three RNGs,
    same region cursors and per-stream counts after every block — inside
    the arrival window and for at least three blocks past it, where every
    block is still whole and nothing more is counted."""
    monkeypatch.setattr(service_mod, "ARRIVAL_BLOCK", block)
    made = []
    derive = service_mod.derive_rng
    monkeypatch.setattr(
        service_mod, "derive_rng", lambda *a: made.append(derive(*a)) or made[-1])
    spec = ServiceSpec(streams=5_000, rate=0.5, duration_s=0.02, seed=2)
    wl = _fresh_workload(spec)
    ref = ReferenceEvents(wl)
    events = ref.events(kind)
    blocks = wl.events(kind)
    t, inside, past, counted = 0.0, 0, 0, []
    for _ in range(3 * 1024 // block + 40):
        past += t > spec.duration_s  # a block drawn wholly past the window
        gaps, rows = next(blocks)
        assert isinstance(gaps, np.ndarray) and len(gaps) == len(rows) == block
        for dt, row in zip(gaps.tolist(), rows):
            want_dt, op = next(events)
            assert dt == want_dt and row[ROW_STREAM] == op.stream
            if kind == "meta":
                assert (row[ROW_NBYTES], row[ROW_METHOD], row[ROW_TARGET]) == (
                    0, op.method, op.args)
            else:
                assert (row[ROW_NBYTES], row[ROW_OFFSET]) == (op.nbytes, op.offset)
                assert isinstance(op, WriteOp if kind == "write" else ReadOp)
            t += dt
            inside += t <= spec.duration_s
        assert len(made) == 3  # one sub-stream per column: gaps, streams, detail
        for rng, want_rng in zip(made, ref.rngs):
            assert rng.bit_generator.state == want_rng.bit_generator.state
        assert wl._cursors == ref._cursors
        assert (wl.ops_per_stream == ref.ops_per_stream).all()
        counted.append(int(wl.ops_per_stream.sum()))
    assert past >= 3 and t > 2 * spec.duration_s
    # Counted: the arrivals inside the window and the first one past it —
    # the one the loop holds pending — and nothing in the blocks after.
    assert counted[-1] == counted[-past - 1] == inside + 1


class TestLoopErrors:
    """A bad source or station still fails with the heap loop's message and
    leaves the loop's books where the heap loop left them."""

    @pytest.mark.parametrize("loop_cls", [EventLoop, HeapEventLoop])
    def test_negative_service_time_keeps_the_arrival_pending(self, loop_cls):
        service = {"b": -0.5}
        station = Station("data", lambda op: service.get(op, 0.25), depth=4)
        loop = loop_cls(SimClock())
        loop.add_source(iter([(0.5, "a"), (0.5, "b"), (0.5, "c")]), station.offer)
        loop.add_source(iter([(0.75, "x")]), station.offer)
        with pytest.raises(ConfigError, match="negative service time at station data: -0.5"):
            loop.run()
        # "a" and "x" were handled; "b" raised inside its handler and is
        # still the pending arrival of its source.
        assert (loop.processed, len(loop), station.started) == (2, 1, 2)
        service["b"] = 0.0
        assert loop.run() == 2 and loop.processed == 4 and station.started == 4

    def test_negative_gap_inside_a_block(self):
        seen = []
        loop = EventLoop(SimClock())
        loop.add_blocks(
            iter([([0.1, 0.1], ["a", "b"]), ([0.2, -1.0, 0.3], ["c", "bad", "d"])]),
            lambda t, op: seen.append(op),
        )
        loop.add_source(iter([(0.5, "other")]), lambda t, op: seen.append(op))
        with pytest.raises(ConfigError, match="negative inter-arrival time from source 0: -1.0"):
            loop.run()
        # The block with the negative gap is rejected whole, when drawn.
        assert seen == ["a", "b"] and loop.processed == 2 and len(loop) == 1
        assert loop.run() == 1 and seen == ["a", "b", "other"]
        with pytest.raises(ConfigError, match="negative inter-arrival time from source 2"):
            loop.add_blocks(iter([([-0.5], ["bad"])]), lambda t, op: None)
        assert len(loop) == 0


    @pytest.mark.parametrize("block,message", [
        (([], []), "a block of 0 gaps and 0 rows from source 1"),
        (([0.1, 0.2], ["c"]), "a block of 2 gaps and 1 rows from source 1"),
        (([0.1], ["c", "d"]), "a block of 1 gaps and 2 rows from source 1"),
        (([0.1, float("nan")], ["c", "d"]), "non-finite inter-arrival time from source 1: nan"),
        (([float("inf")], ["c"]), "non-finite inter-arrival time from source 1: inf"),
    ], ids=["empty", "more-gaps", "more-rows", "nan", "inf"])
    def test_malformed_block_retires_its_source(self, block, message):
        """A block is validated once, when drawn: the bad source leaves the
        live set with a ConfigError naming it, whether the block is its
        first (at registration) or a later one (mid-run), and the loop's
        books stay where the dispatched prefix left them."""
        seen = []
        loop = EventLoop(SimClock())
        loop.add_source(iter([(0.5, "other")]), lambda t, op: seen.append(op))
        loop.add_blocks(
            iter([([0.1, 0.1], ["a", "b"]), block]), lambda t, op: seen.append(op))
        with pytest.raises(ConfigError, match=message):
            loop.run(until=5.0)
        assert seen == ["a", "b"] and loop.processed == 2 and len(loop) == 1
        assert loop.run(until=5.0) == 1 and seen == ["a", "b", "other"] and len(loop) == 0
        with pytest.raises(ConfigError, match=message.replace("source 1", "source 2")):
            loop.add_blocks(iter([block]), lambda t, op: None)
        assert len(loop) == 0 and loop.run(until=9.0) == 0


# ---------------------------------------------------------------------------
# Scrub ticks are dispatched by the loop but are not client arrivals
# ---------------------------------------------------------------------------

def test_scrub_ticks_are_not_arrivals():
    result = run(
        "service", streams=2000, rate="small", duration="short", seed=0,
        telemetry=True, scrub=True, scrub_corrupt=3,
    )
    (cell,) = result.payload.cells
    assert sum(cell.telemetry.counter_values("scrub.steps")) == 49
    assert cell.arrivals == sum(s.offered for s in cell.stations.values())
    assert sum(cell.telemetry.counter_values("arrivals")) == cell.arrivals
