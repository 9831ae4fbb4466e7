"""Open-loop service workload: N client streams, Poisson arrivals.

Where the closed-loop benchmarks ask "how fast can the system go?", this
workload asks "what latency does the system deliver at a *given* offered
load?" — the service-provider question.  ``streams`` clients each issue
operations at ``rate`` ops/s on their own schedule, whether or not earlier
operations have completed; the merge of all those schedules drives the
:class:`~repro.sim.events.EventLoop`.

Scaling to a million streams without a million generators rests on two
standard reductions:

- **Superposition.**  The merge of N independent Poisson(rate) processes
  is one Poisson(N×rate) process whose arrivals are attributed to a
  uniformly random stream.  One generator per operation kind therefore
  represents *all* streams in O(1) memory; per-stream identity survives in
  the attribution draw and in a numpy op-count array (8 bytes/stream —
  the only per-stream state in the whole pipeline).
- **Region folding.**  Stream ``s`` writes into region ``s % REGIONS`` of
  one shared file, and the region index doubles as the allocator-visible
  :data:`~repro.fs.stream.StreamId`.  Allocator window state, file extent
  state and file size are thereby bounded by ``REGIONS`` regardless of
  the stream count, while cursors wrap within each region so steady state
  is overwrite-heavy (no unbounded allocation over long runs).

An arrival is a plain row, not an object — ``(kind, stream, nbytes,
offset)`` for a data op, ``(kind, stream, 0, method, target)`` for a
metadata op, read through the ``ROW_*`` indices — and a source hands the
loop its arrivals a block of rows at a time (:meth:`ServiceWorkload.events`).
The workload also provides the two station executors that price a row via
the device models — disk-array batch wall time for data, MDS timeline delta
for metadata.  :class:`ServiceTelemetry` turns the stations' probes into
per-window time series by logging one row per arrival and reducing the log
a chunk at a time.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import count, repeat
from operator import itemgetter

import numpy as np

from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.meta.mds import MetadataServer
from repro.obs.histogram import fold_left
from repro.obs.timeseries import TimeSeries, TimeSeriesSnapshot
from repro.rng import derive_rng
from repro.sim.events import arrival_times
from repro.units import KiB

__all__ = [
    "DURATIONS",
    "RATES",
    "ROW_KIND",
    "ROW_METHOD",
    "ROW_NBYTES",
    "ROW_OFFSET",
    "ROW_STREAM",
    "ROW_TARGET",
    "ScrubSpec",
    "ServiceSpec",
    "ServiceTelemetry",
    "ServiceWorkload",
    "resolve_duration",
    "resolve_rate",
]

#: Named per-stream arrival rates (ops/s per stream), CLI-friendly.
RATES: dict[str, float] = {"small": 0.5, "medium": 5.0, "large": 50.0}

#: Named run durations (simulated seconds of arrivals).
DURATIONS: dict[str, float] = {"short": 2.0, "long": 30.0}

#: Streams fold onto this many file regions / allocator stream ids.
REGIONS = 4096

#: Requests per region before the write cursor wraps to overwrites.
REGION_SLOTS = 16

#: Directory pool ceiling for the metadata mix.
MAX_DIRS = 256

#: Files pre-created per pool directory.
FILES_PER_DIR = 4

#: Arrivals an event source draws ahead per block (docs/SERVICE.md).
ARRIVAL_BLOCK = 1024

#: Fields of an arrival row.  Every row starts ``kind, stream, nbytes``
#: (``kind`` indexes :attr:`ServiceWorkload.KINDS`; a metadata op moves 0
#: bytes); a data row ends with its file ``offset``, a metadata row with
#: the MDS ``method`` name and its ``target`` argument tuple.
ROW_KIND, ROW_STREAM, ROW_NBYTES, ROW_OFFSET = range(4)
ROW_METHOD, ROW_TARGET = 3, 4

#: Kind codes (index into :attr:`ServiceWorkload.KINDS`).
_WRITE, _READ, _META = range(3)

#: Rows a :class:`ServiceTelemetry` probe logs before they are reduced into
#: window frames (a probe may overshoot by one refused run of a station).
TELEMETRY_CHUNK = 4096


def resolve_rate(rate: str | float) -> float:
    """A named rate ("small"/"medium"/"large") or explicit ops/s → float."""
    if isinstance(rate, str):
        try:
            return RATES[rate]
        except KeyError:
            raise ConfigError(
                f"unknown rate {rate!r}; choose from {sorted(RATES)} or a number"
            ) from None
    if not 0 < rate < math.inf:
        raise ConfigError(f"rate must be positive and finite: {rate}")
    return float(rate)


def resolve_duration(duration: str | float) -> float:
    """A named duration ("short"/"long") or explicit seconds → float."""
    if isinstance(duration, str):
        try:
            return DURATIONS[duration]
        except KeyError:
            raise ConfigError(
                f"unknown duration {duration!r}; choose from {sorted(DURATIONS)}"
                " or a number"
            ) from None
    if not 0 < duration < math.inf:
        raise ConfigError(f"duration must be positive and finite: {duration}")
    return float(duration)


@dataclass(frozen=True)
class ScrubSpec:
    """Online-scrub schedule for the service loop (docs/FSCK.md).

    Every ``interval_s`` simulated seconds the event loop dispatches one
    scrub step — the :class:`~repro.fs.verify.Scrubber` visits its next
    shard between foreground arrivals.  With ``corrupt_every`` > 0 the
    seeded corruptor injects ``nfaults`` data-plane corruptions before
    every ``corrupt_every``-th step, giving the scrub live damage to find
    and repair while traffic keeps flowing.
    """

    interval_s: float = 0.05
    corrupt_every: int = 0
    nfaults: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.interval_s < math.inf:
            raise ConfigError(f"scrub interval must be positive and finite: {self.interval_s}")
        if self.corrupt_every < 0:
            raise ConfigError(f"corrupt_every must be >= 0: {self.corrupt_every}")
        if self.nfaults < 1:
            raise ConfigError(f"nfaults must be >= 1: {self.nfaults}")

    def ticks(self) -> Iterator[tuple[list[float], range]]:
        """The scrub schedule as a block source: ``(gaps, steps)`` with
        every gap ``interval_s`` and the steps numbered from 0."""
        for first in count(0, ARRIVAL_BLOCK):
            yield [self.interval_s] * ARRIVAL_BLOCK, range(first, first + ARRIVAL_BLOCK)


@dataclass(frozen=True)
class ServiceSpec:
    """One open-loop operating point (picklable; sweep cells carry it)."""

    streams: int = 1000
    rate: float = 0.5  # ops/s per stream
    duration_s: float = 2.0
    queue_depth: int = 64
    read_fraction: float = 0.35
    meta_fraction: float = 0.20
    request_bytes: int = 64 * KiB
    seed: int = 0

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ConfigError(f"streams must be >= 1: {self.streams}")
        if self.rate <= 0 or self.duration_s <= 0:
            raise ConfigError(
                f"rate and duration must be positive: {self.rate}, {self.duration_s}"
            )
        if self.queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1: {self.queue_depth}")
        if self.request_bytes < 1:
            raise ConfigError(f"request_bytes must be >= 1: {self.request_bytes}")
        if not (0.0 <= self.read_fraction and 0.0 <= self.meta_fraction):
            raise ConfigError("mix fractions must be non-negative")
        if self.read_fraction + self.meta_fraction > 1.0:
            raise ConfigError(
                "read_fraction + meta_fraction must leave room for writes: "
                f"{self.read_fraction} + {self.meta_fraction} > 1"
            )

    @property
    def write_fraction(self) -> float:
        return 1.0 - self.read_fraction - self.meta_fraction

    def kind_rate(self, kind: str) -> float:
        """Aggregate arrival rate (ops/s) of one operation kind."""
        fraction = {
            "write": self.write_fraction,
            "read": self.read_fraction,
            "meta": self.meta_fraction,
        }[kind]
        return self.streams * self.rate * fraction


class ServiceWorkload:
    """Lazy event sources plus station executors over one plane + MDS."""

    KINDS = ("write", "read", "meta")

    def __init__(self, spec: ServiceSpec, plane: DataPlane, mds: MetadataServer) -> None:
        self.spec = spec
        self.plane = plane
        self.mds = mds
        self.regions = min(spec.streams, REGIONS)
        self.region_bytes = REGION_SLOTS * spec.request_bytes
        #: Write cursor per region (slot index, wraps at REGION_SLOTS).
        self._cursors = [0] * self.regions
        #: Operations attributed to each *real* stream — the only O(streams)
        #: state; 8 bytes per stream.
        self.ops_per_stream = np.zeros(spec.streams, dtype=np.int64)
        self.file = None
        self._pool: list[tuple[object, str]] = []  # (dir handle, file name)

    # -- setup (untimed; runs before the arrival window opens) -------------
    def setup(self) -> None:
        """Create the shared file and the bounded metadata pool."""
        self.file = self.plane.create_file("service.dat")
        ndirs = max(1, min(self.spec.streams, MAX_DIRS))
        root = self.mds.root
        for d in range(ndirs):
            dirh = self.mds.mkdir(root, f"svc{d:03d}")
            for j in range(FILES_PER_DIR):
                name = f"f{j}"
                self.mds.create(dirh, name)
                self._pool.append((dirh, name))

    # -- lazy event sources -------------------------------------------------
    def events(self, kind: str) -> Iterator[tuple[np.ndarray, list[tuple]]]:
        """Infinite superposed-Poisson arrival stream for one op kind, as
        blocks for :meth:`~repro.sim.events.EventLoop.add_blocks`.

        Yields ``(gaps, rows)``: an ndarray of exponential inter-arrival
        gaps at the kind's aggregate rate and one row per arrival (see
        ``ROW_*``), each attributed to a uniform stream.

        Each column has its own sub-stream (docs/SERVICE.md): gaps, stream
        attributions and the kind's detail (a read's slot, a metadata op's
        stat/utime coin; a write's offset walks its region cursor) draw
        from ``derive_rng(seed, "service", kind, "gaps" | "streams" |
        "detail")``.  No column interleaves with another, so a block is
        three vector draws equal to the per-arrival scalar draws, and the
        stream of arrivals is the same at any :data:`ARRIVAL_BLOCK`.  Blocks
        are always whole: rows past ``spec.duration_s`` are drawn and never
        dispatched, and ``ops_per_stream`` counts the arrivals up to and
        including the first one past the window (the one the loop holds
        pending).  Memory is O(block).
        """
        lam = self.spec.kind_rate(kind)
        if lam <= 0.0:
            return
        gap_rng, stream_rng, detail_rng = (
            derive_rng(self.spec.seed, "service", kind, column)
            for column in ("gaps", "streams", "detail")
        )
        scale = 1.0 / lam
        horizon, nbytes = self.spec.duration_s, self.spec.request_bytes
        regions, region_bytes = self.regions, self.region_bytes
        cursors, pool = self._cursors, self._pool
        code = self.KINDS.index(kind)
        t = 0.0  # the previous block's last arrival (sources start at 0)
        while True:
            gaps = gap_rng.exponential(scale, ARRIVAL_BLOCK)
            streams = stream_rng.integers(self.spec.streams, size=ARRIVAL_BLOCK)
            if t <= horizon:
                times = arrival_times(t, gaps)  # the loop's own sum
                counted = int(times.searchsorted(horizon, "right")) + 1
                np.add.at(self.ops_per_stream, streams[:counted], 1)
                t = float(times[-1])
            ids = streams.tolist()
            if code == _META:
                coins = detail_rng.random(ARRIVAL_BLOCK) < 0.5
                methods = np.where(coins, "stat", "utime").tolist()
                targets = [pool[s % len(pool)] for s in ids]
                rows = zip(repeat(code), ids, repeat(0), methods, targets)
            else:
                if code == _READ:
                    slots = detail_rng.integers(REGION_SLOTS, size=ARRIVAL_BLOCK)
                    offsets = (streams % regions * region_bytes + slots * nbytes).tolist()
                else:
                    offsets = []
                    for region in (streams % regions).tolist():
                        slot = cursors[region]
                        cursors[region] = (slot + 1) % REGION_SLOTS
                        offsets.append(region * region_bytes + slot * nbytes)
                rows = zip(repeat(code), ids, repeat(nbytes), offsets)
            yield gaps, list(rows)

    # -- station executors (row → service time, simulated seconds) ---------
    def data_service(self, row: tuple) -> float:
        """Price one data row: map it, submit the batch, return wall time.

        The region index recovered from the offset is the allocator-visible
        stream id — the same folding the generator applied.  Reads of
        not-yet-written slots map to holes and cost nothing, exactly like
        reading sparse ranges anywhere else in the simulator.
        """
        offset, nbytes = row[ROW_OFFSET], row[ROW_NBYTES]
        if row[ROW_KIND] == _WRITE:
            starts, nblocks = self.plane.write(
                self.file, offset // self.region_bytes, offset, nbytes
            )
            return self.plane.array.submit_batch(starts, nblocks, True)
        starts, nblocks = self.plane.read(self.file, offset, nbytes)
        return self.plane.array.submit_batch(starts, nblocks, False)

    def meta_service(self, row: tuple) -> float:
        """Price one metadata row via the MDS timeline delta."""
        t0 = self.mds.elapsed_s
        getattr(self.mds, row[ROW_METHOD])(*row[ROW_TARGET])
        return self.mds.elapsed_s - t0

    @property
    def active_streams(self) -> int:
        """How many distinct streams have issued at least one op."""
        return int(np.count_nonzero(self.ops_per_stream))


class ServiceTelemetry:
    """Bridge :class:`~repro.sim.events.Station` probes into a time series.

    One instance per service cell: attach :meth:`loop_probe` to the event
    loop and :meth:`station_probe` to each station, and per-window signals
    accumulate into :attr:`series` with no other coupling — the stations
    never learn what is observing them, and with no telemetry attached
    their per-arrival cost is a single ``None`` check.

    **Record, then reduce.**  A station probe does no statistics: it
    logs each arrival by column, and a full station's refused run — handed
    over whole, ``probe.refused(times, ops, queued)`` — with three
    ``extend`` calls.  Every :data:`TELEMETRY_CHUNK` rows — and at
    :meth:`finish` / :meth:`snapshot`, after asking the station for its
    open run — the log is reduced into the window frames with numpy, one
    contiguous run of rows per window (arrival times and each station's
    completion times are non-decreasing).  The reduction is
    exact: counters are integer counts, histograms take each run through
    :meth:`~repro.obs.histogram.Histogram.observe_array`, and float sums
    are folded left to right from the running value, so every frame is
    bit-equal to what per-arrival ``incr``/``add``/``observe`` calls would
    have built, at any chunk size (docs/TELEMETRY.md).

    Series emitted per station (and per ``station.kind`` for the mix
    breakdown): ``arrivals``/``drops``/``completions`` counters, a
    ``latency_s`` sojourn histogram and a ``queue_depth`` histogram
    (both attributed to the *arrival* window), ``busy_s`` accumulation
    (per-window saturation = busy_s / window_s) and moved ``bytes``
    (per-window goodput), the latter two attributed to the window the
    operation *completes* in.  A plain ``arrivals`` counter sums the
    stations': the total offered client load (a scrub tick reaches no
    station and is not an arrival).

    :meth:`track_cache` additionally polls the MDS buffer-cache counters
    (:data:`CACHE_SERIES`, docs/CACHE.md) into per-window deltas plus a
    derived ``cache.hit_rate`` sum — flushed only when the loop probe
    crosses a window boundary, so it costs nothing per arrival.
    """

    #: Buffer-cache counters rolled into per-window series by
    #: :meth:`track_cache`.
    CACHE_SERIES = ("cache.hits", "cache.misses", "cache.evictions")

    def __init__(self, window_s: float) -> None:
        self.series = TimeSeries(window_s)
        self._window_s = self.series.window_s
        #: Index of the window the loop is in.
        self._window = 0
        #: One ``reduce()`` per station probe handed out.
        self._reducers: list = []
        self._cache_counters = None
        self._cache_last: dict[str, int] = {}

    def track_cache(self, metrics) -> None:
        """Start rolling the cache counters of ``metrics`` into windows."""
        self._cache_counters = metrics.raw_counters()
        self._cache_last = {
            s: self._cache_counters.get(s, 0) for s in self.CACHE_SERIES
        }

    def _flush_cache(self) -> None:
        """Attribute counter deltas since the last flush to the open
        window — by index: ``frame(idx * window_s)`` is the wrong frame
        for many ``idx``."""
        live = self._cache_counters
        frame = self.series.frame_at(self._window)
        counters = frame.counters
        last = self._cache_last
        hits = misses = 0
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
        if hits or misses:
            frame.sums["cache.hit_rate"] = hits / (hits + misses)

    def loop_probe(self, times: np.ndarray) -> Iterator[tuple[int, int]]:
        """The ``EventLoop.probe`` callback: one ``(lo, hi)`` run of the
        chunk's sorted time column per window it touches.

        On entering a run in a new window the cache deltas since the last
        flush are billed to the window just left — the loop dispatches a
        run between two ``next`` calls, so the counters are read after the
        last arrival of one window and before the first of the next, as a
        per-arrival probe would read them.
        """
        for window, lo, hi in self.series.window_runs(times):
            if window != self._window:
                if self._cache_counters is not None:
                    self._flush_cache()
                self._window = window
            yield lo, hi

    def _reduce(self) -> None:
        """Fold everything recorded so far into the window frames."""
        for reduce in self._reducers:
            reduce()

    def finish(self, t: float) -> None:
        """End of run: reduce what is still logged and flush the open
        cache-counter window."""
        self._reduce()
        if self._cache_counters is not None:
            self._flush_cache()
        self._window = int(t / self._window_s)

    def station_probe(self, name: str):
        """The ``Station.probe`` callback for station ``name``.

        The callback logs one row per arrival (``probe.refused`` a whole
        refused run); its ``reduce`` (run every :data:`TELEMETRY_CHUNK`
        rows, and by :meth:`finish` and :meth:`snapshot`) does the statistics.
        """
        series = self.series
        kinds = ServiceWorkload.KINDS
        arrivals = f"{name}.arrivals"
        queue_depth = f"{name}.queue_depth"
        drops = f"{name}.drops"
        latency = f"{name}.latency_s"
        completions = f"{name}.completions"
        busy = f"{name}.busy_s"
        nbytes = f"{name}.bytes"
        kind_arrivals = [f"{name}.{k}.arrivals" for k in kinds]
        kind_drops = [f"{name}.{k}.drops" for k in kinds]
        kind_latency = [f"{name}.{k}.latency_s" for k in kinds]
        # The log, by column: arrival times, kind codes, and four doubles per
        # arrival — ``queued, done, service, nbytes`` (a drop's ``done``: nan).
        nows: list[float] = []
        kind_codes = bytearray()
        fates = array("d")
        limit = TELEMETRY_CHUNK
        nan = float("nan")

        def probe(
            now: float,
            row: tuple,
            queued: int,
            done: float | None,
            service: float,
        ) -> None:
            nows.append(now)
            kind_codes.append(row[ROW_KIND])
            fates.extend((queued, nan if done is None else done, service, row[ROW_NBYTES]))
            if len(nows) >= limit:
                reduce()

        def refused(times: Sequence[float], rows: Sequence[tuple], queued: int) -> None:
            nows.extend(times)
            kind_codes.extend(map(itemgetter(ROW_KIND), rows))
            fates.extend(array("d", (queued, nan, 0.0, 0.0)) * len(rows))
            if len(nows) >= limit:
                reduce()

        def bump(counters: dict[str, int], names: list[str], codes: np.ndarray) -> None:
            for code, n in enumerate(np.bincount(codes, minlength=len(kinds)).tolist()):
                if n:
                    counters[names[code]] = counters.get(names[code], 0) + n

        def reduce() -> None:
            if probe.upstream is not None:
                probe.upstream()  # the station's open refused run, if any
            if not nows:
                return
            now = np.array(nows)
            kind = np.array(kind_codes, dtype=np.intp)
            queued, done, service, moved = np.array(fates).reshape(-1, 4).T
            del nows[:], kind_codes[:], fates[:]
            started = ~np.isnan(done)
            sojourn = done - now
            # Arrival side: counters and both histograms land in the window
            # the operation arrived in.
            for frame, lo, hi in series.runs(now):
                counters = frame.counters
                counters[arrivals] = counters.get(arrivals, 0) + (hi - lo)
                counters["arrivals"] = counters.get("arrivals", 0) + (hi - lo)
                bump(counters, kind_arrivals, kind[lo:hi])
                frame.hist(queue_depth).observe_array(queued[lo:hi])
                ok = started[lo:hi]
                ndrops = (hi - lo) - int(np.count_nonzero(ok))
                if ndrops:
                    counters[drops] = counters.get(drops, 0) + ndrops
                    bump(counters, kind_drops, kind[lo:hi][~ok])
                if ndrops < hi - lo:
                    run_sojourn = sojourn[lo:hi][ok]
                    run_kind = kind[lo:hi][ok]
                    frame.hist(latency).observe_array(run_sojourn)
                    for code in np.flatnonzero(np.bincount(run_kind)).tolist():
                        frame.hist(kind_latency[code]).observe_array(
                            run_sojourn[run_kind == code]
                        )
            # Completion side: busy seconds and moved bytes land in the
            # window the operation completes in.  A metadata op moves no
            # data, so it never creates a ``bytes`` series.
            done, service = done[started], service[started]
            moved, is_data = moved[started], kind[started] != _META
            for frame, lo, hi in series.runs(done):
                counters = frame.counters
                counters[completions] = counters.get(completions, 0) + (hi - lo)
                sums = frame.sums
                sums[busy] = fold_left(sums.get(busy, 0.0), service[lo:hi])
                data_bytes = moved[lo:hi][is_data[lo:hi]]
                if data_bytes.shape[0]:
                    sums[nbytes] = fold_left(sums.get(nbytes, 0.0), data_bytes)

        probe.refused, probe.upstream = refused, None
        self._reducers.append(reduce)
        return probe

    def snapshot(self) -> TimeSeriesSnapshot:
        self._reduce()
        return self.series.snapshot()
