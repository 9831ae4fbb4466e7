"""Per-arrival reference for the service path's statistics.

The bodies below are the ones ``src/`` ran at commit 916ab44, before
telemetry and stations switched to record → reduce (docs/TELEMETRY.md):
``ServiceTelemetry.loop_probe`` / ``station_probe`` updating the window
frames once per arrival, and ``Station.offer`` observing its two
histograms once per arrival.  They are kept verbatim as the oracle the
reduced path is held to, bit for bit — float ``sums`` and histogram
``total``s included (``tests/test_service_reduce.py``).

Below them, the bodies ``src/`` ran at commit 633503b, before the open-loop
path switched to schedule → execute (docs/SERVICE.md): the heap-scheduled
``EventLoop`` with its per-arrival probe, and ``ServiceWorkload.events``
yielding one ``(dt, op)`` dataclass per arrival (re-keyed at ISSUE 23 to the
column sub-streams ``src/`` draws from now).  The chunk-merged loop and the
block-of-rows sources are held to these — dispatch order, times, rows,
per-stream counts and RNG state.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.obs.histogram import Histogram
from repro.obs.timeseries import TimeSeries
from repro.rng import derive_rng
from repro.sim.clock import SimClock
from repro.workloads.base import MetaOp, ReadOp, WriteOp
from repro.workloads.service import REGION_SLOTS, ServiceTelemetry, ServiceWorkload


def op_kind(op) -> str:
    """Classify a protocol op into the service mix kinds."""
    if isinstance(op, MetaOp):
        return "meta"
    return "write" if isinstance(op, WriteOp) else "read"


class ReferenceTelemetry:
    """``ServiceTelemetry`` minus the cache poll: statistics per arrival."""

    def __init__(self, window_s: float) -> None:
        self.series = TimeSeries(window_s)

    def loop_probe(self, now, op) -> None:
        self.series.incr(now, "arrivals")

    def station_probe(self, name: str):
        series = self.series
        arrivals = f"{name}.arrivals"
        queue_depth = f"{name}.queue_depth"
        drops = f"{name}.drops"
        latency = f"{name}.latency_s"
        completions = f"{name}.completions"
        busy = f"{name}.busy_s"
        nbytes = f"{name}.bytes"
        kind_arrivals = {k: f"{name}.{k}.arrivals" for k in ServiceWorkload.KINDS}
        kind_drops = {k: f"{name}.{k}.drops" for k in ServiceWorkload.KINDS}
        kind_latency = {k: f"{name}.{k}.latency_s" for k in ServiceWorkload.KINDS}

        def probe(now, op, queued, done, service) -> None:
            kind = op_kind(op)
            frame = series.frame(now)
            counters = frame.counters
            counters[arrivals] = counters.get(arrivals, 0) + 1
            ka = kind_arrivals[kind]
            counters[ka] = counters.get(ka, 0) + 1
            frame.hist(queue_depth).observe(float(queued))
            if done is None:
                counters[drops] = counters.get(drops, 0) + 1
                kd = kind_drops[kind]
                counters[kd] = counters.get(kd, 0) + 1
                return
            sojourn = done - now
            frame.hist(latency).observe(sojourn)
            frame.hist(kind_latency[kind]).observe(sojourn)
            at_done = series.frame(done)
            dc = at_done.counters
            dc[completions] = dc.get(completions, 0) + 1
            sums = at_done.sums
            sums[busy] = sums.get(busy, 0.0) + service
            if not isinstance(op, MetaOp):
                sums[nbytes] = sums.get(nbytes, 0.0) + float(op.nbytes)

        return probe

    def snapshot(self):
        return self.series.snapshot()


class ReferenceCacheTelemetry(ReferenceTelemetry):
    """:class:`ReferenceTelemetry` plus the cache poll as commit 633503b
    ran it: the loop probe looks for a window crossing at every arrival."""

    CACHE_SERIES = ServiceTelemetry.CACHE_SERIES

    def __init__(self, window_s: float) -> None:
        super().__init__(window_s)
        self._window_s = self.series.window_s
        self._window = 0
        self._cache_counters = None
        self._cache_last: dict[str, int] = {}

    def track_cache(self, metrics) -> None:
        self._cache_counters = metrics.raw_counters()
        self._cache_last = {
            s: self._cache_counters.get(s, 0) for s in self.CACHE_SERIES
        }

    def _flush_cache(self) -> None:
        live = self._cache_counters
        frame = self.series.frame_at(self._window)
        counters = frame.counters
        last = self._cache_last
        hits = misses = used = issued = 0
        for s in self.CACHE_SERIES:
            value = live.get(s, 0)
            delta = value - last[s]
            if delta:
                counters[s] = counters.get(s, 0) + delta
                last[s] = value
                if s == "cache.hits":
                    hits = delta
                elif s == "cache.misses":
                    misses = delta
                elif s == "cache.prefetch_used_blocks":
                    used = delta
                elif s == "cache.prefetch_issued_blocks":
                    issued = delta
        if hits or misses:
            frame.sums["cache.hit_rate"] = hits / (hits + misses)
        if issued or used:
            frame.sums["cache.prefetch_accuracy"] = min(1.0, used / issued) if issued else 1.0

    def loop_probe(self, now, op) -> None:
        window = int(now / self._window_s)
        if window != self._window:
            if self._cache_counters is not None:
                self._flush_cache()
            self._window = window
        super().loop_probe(now, op)

    def finish(self, t: float) -> None:
        if self._cache_counters is not None:
            self._flush_cache()
        self._window = int(t / self._window_s)


class ReferenceStation:
    """``Station`` with the two per-arrival ``observe`` calls, examining
    every arrival — reap, count, observe, then drop or start: what the
    station that refuses a full queue's arrivals by comparison and books
    them in bulk (ISSUE 23) is held to."""

    def __init__(self, name: str, execute, depth: int) -> None:
        self.name = name
        self.depth = depth
        self._execute = execute
        self.latency = Histogram()
        self.queue_depth = Histogram()
        self.offered = 0
        self.started = 0
        self.dropped = 0
        self.completed = 0
        self.busy_s = 0.0
        self.free_at = 0.0
        self._inflight: deque[float] = deque()
        self.probe = None

    def offer(self, now: float, op):
        inflight = self._inflight
        while inflight and inflight[0] <= now:
            inflight.popleft()
            self.completed += 1
        self.offered += 1
        q = len(inflight)
        self.queue_depth.observe(float(q))
        if q >= self.depth:
            self.dropped += 1
            if self.probe is not None:
                self.probe(now, op, q, None, 0.0)
            return None
        service = self._execute(op)
        if service < 0.0:
            raise ConfigError(f"negative service time at station {self.name}: {service}")
        start = now if now > self.free_at else self.free_at
        done = start + service
        self.free_at = done
        self.busy_s += service
        inflight.append(done)
        self.latency.observe(done - now)
        self.started += 1
        if self.probe is not None:
            self.probe(now, op, q, done, service)
        return done

    def drain(self) -> float:
        last = self._inflight[-1] if self._inflight else 0.0
        self.completed += len(self._inflight)
        self._inflight.clear()
        return last


# ---------------------------------------------------------------------------
# The heap-scheduled loop and the per-arrival event source (commit 633503b)
# ---------------------------------------------------------------------------

class HeapEventLoop:
    """``EventLoop`` as a heap of one pending ``(dt, op)`` event per source,
    with ``probe(now, op)`` called for every event before its handler."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._sources = 0
        self.processed = 0
        self.probe = None

    def __len__(self) -> int:
        return len(self._heap)

    def add_source(self, events, on_event) -> None:
        sid = self._sources
        self._sources += 1
        try:
            dt, op = next(events)
        except StopIteration:
            return
        if dt < 0.0:
            raise ConfigError(f"negative inter-arrival time from source {sid}: {dt}")
        heapq.heappush(
            self._heap,
            (self.clock.now + dt, next(self._seq), op, events, on_event, sid),
        )

    def run(self, until: float | None = None) -> int:
        heap = self._heap
        probe = self.probe
        advance_to = self.clock.advance_to
        next_seq = self._seq.__next__
        heappop, heapreplace = heapq.heappop, heapq.heapreplace
        horizon = float("inf") if until is None else until
        processed = 0
        try:
            while heap:
                when, _, op, events, on_event, sid = heap[0]
                if when > horizon:
                    break
                advance_to(when)
                if probe is not None:
                    probe(when, op)
                on_event(when, op)
                processed += 1
                # The dispatched entry is still heap[0]: anything the
                # handler registered arrives at or after ``when`` with a
                # later seq.  So the source's next arrival replaces it in
                # one sift instead of a pop and a push.
                try:
                    dt, op = next(events)
                except StopIteration:
                    heappop(heap)
                    continue
                if dt < 0.0:
                    heappop(heap)
                    raise ConfigError(
                        f"negative inter-arrival time from source {sid}: {dt}"
                    )
                heapreplace(heap, (when + dt, next_seq(), op, events, on_event, sid))
        finally:
            self.processed += processed
        if until is not None:
            advance_to(until)
        return processed


@dataclass(frozen=True, slots=True)
class ServiceWrite(WriteOp):
    """A :class:`WriteOp` tagged with the client stream that issued it."""

    stream: int


@dataclass(frozen=True, slots=True)
class ServiceRead(ReadOp):
    """A :class:`ReadOp` tagged with the client stream that issued it."""

    stream: int


@dataclass(frozen=True, slots=True)
class ServiceMeta(MetaOp):
    """A :class:`MetaOp` tagged with the client stream that issued it
    (defaulted only because it follows ``MetaOp.args``, which is)."""

    stream: int = -1


class ReferenceEvents:
    """``ServiceWorkload.events`` one arrival at a time, and its three op
    builders, over the state of a real (set-up) workload: the oracle of the
    column-stream draw contract (docs/SERVICE.md).  Per arrival it makes one
    *scalar* draw from each of the kind's sub-streams — ``exponential`` on
    ``gaps``, ``integers`` on ``streams``, the kind's own on ``detail`` — and
    it counts an arrival into ``ops_per_stream`` while the previous one was
    inside the window.  ``rngs`` keeps the last source's three generators
    so a test can compare their states.  (Until ISSUE 23 a kind drew all
    three from one generator, a block at a time, and blocks ended at the
    first arrival past the window.)"""

    def __init__(self, wl: ServiceWorkload) -> None:
        self.spec = wl.spec
        self.file = wl.file
        self.regions = wl.regions
        self.region_bytes = wl.region_bytes
        self._cursors = [0] * wl.regions
        self.ops_per_stream = np.zeros(wl.spec.streams, dtype=np.int64)
        self._pool = wl._pool
        self.rngs = ()

    def events(self, kind: str):
        lam = self.spec.kind_rate(kind)
        if lam <= 0.0:
            return
        gap_rng, stream_rng, rng = self.rngs = tuple(
            derive_rng(self.spec.seed, "service", kind, column)
            for column in ("gaps", "streams", "detail")
        )
        scale = 1.0 / lam
        build = {"write": self._write_op, "read": self._read_op, "meta": self._meta_op}[kind]
        t = 0.0
        while True:
            dt = gap_rng.exponential(scale)
            s = int(stream_rng.integers(self.spec.streams))
            op = build(s, rng)
            if t <= self.spec.duration_s:
                self.ops_per_stream[s] += 1
            t += dt
            yield dt, op

    def _write_op(self, s: int, rng):
        region = s % self.regions
        slot = self._cursors[region]
        self._cursors[region] = (slot + 1) % REGION_SLOTS
        offset = region * self.region_bytes + slot * self.spec.request_bytes
        return ServiceWrite(self.file, offset, self.spec.request_bytes, s)

    def _read_op(self, s: int, rng):
        region = s % self.regions
        slot = int(rng.integers(REGION_SLOTS))
        offset = region * self.region_bytes + slot * self.spec.request_bytes
        return ServiceRead(self.file, offset, self.spec.request_bytes, s)

    def _meta_op(self, s: int, rng):
        dirh, name = self._pool[s % len(self._pool)]
        method = "stat" if rng.random() < 0.5 else "utime"
        return ServiceMeta(method, (dirh, name), s)
