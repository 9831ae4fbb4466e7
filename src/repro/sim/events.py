"""Open-loop event scheduling: arrival-driven service over the simulator.

The closed-loop engines (:func:`repro.workloads.base.run_data_phase`, the
metadata workloads) issue each operation the instant the previous one
completes — throughput-oriented, zero think time.  This module adds the
*open-loop* counterpart: operations arrive on their own schedule whether or
not the system has finished the previous ones, which is the only regime in
which *latency* under load (queueing delay, saturation, drops) is
observable at all.

Two pieces:

:class:`EventLoop`
    A time-ordered merge of lazily-generated arrival streams over a
    :class:`~repro.sim.clock.SimClock`.  A source hands the loop its
    arrivals a *block* at a time — a column of inter-arrival gaps and a
    column of ops — and the loop holds exactly **one** block per source, so
    memory is O(sources × block) no matter how many events a run
    processes.  In an open loop no arrival depends on what the system did
    with an earlier one, so the loop *schedules, then executes*: it merges
    the blocks' time columns with one stable sort up to the earliest block
    end, then dispatches the merged rows in a plain loop.  A million client
    streams are superposed *inside* a source (a merged Poisson process is
    itself Poisson), not registered individually.

:class:`Station`
    A single-server bounded-queue service center wrapping one simulator
    layer (the data plane's disk array, or the MDS).  The underlying
    device model prices each operation (its *service time*); the station
    layers FIFO queueing on top: an arrival either queues behind
    ``free_at`` or — if the queue is at ``depth`` — is dropped.  Sojourn
    time (completion − arrival) lands in a log2 histogram for p50/p99/p999
    queries; busy time, drops and queue-depth samples come along for
    saturation and goodput reporting.

The loop is time-ordered and deterministic: ties in arrival time break by
scheduling order (registration order for first arrivals), sources draw
from :func:`repro.rng.derive_rng` sub-streams, and nothing here consults
wall-clock time.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.obs.histogram import Histogram
from repro.sim.clock import SimClock

__all__ = ["EventLoop", "Station", "arrival_times"]

#: Refused arrivals a full :class:`Station` logs before it books them; bounds
#: the log as ``TELEMETRY_CHUNK`` bounds the telemetry row log.
REFUSED_CHUNK = 1024


def arrival_times(origin: float, gaps: np.ndarray) -> np.ndarray:
    """Absolute times of arrivals ``gaps`` apart, the first one ``gaps[0]``
    after ``origin``: ``accumulate`` is ``out[i] = out[i-1] + in[i]``, the
    left-to-right float sum ``when + dt`` a per-event walk makes."""
    return np.add.accumulate(np.concatenate(((origin,), gaps)))[1:]


@dataclass(slots=True, eq=False)
class _Source:
    """One registered source and the block of it the loop is holding."""

    sid: int
    blocks: Iterator
    handler: Callable
    #: When the pending arrival ``rows[pos]`` was scheduled, on the loop's
    #: global counter — the tie-break among equal times.
    seq: int
    #: Absolute arrival times and ops of the current block.
    times: np.ndarray | None = None
    rows: Sequence = ()
    pos: int = 0


class EventLoop:
    """Merge lazy arrival sources in simulated-time order.

    >>> from repro.sim.clock import SimClock
    >>> seen = []
    >>> loop = EventLoop(SimClock())
    >>> loop.add_source(iter([(0.5, "a"), (1.0, "b")]),
    ...                 lambda now, op: seen.append((now, op)))
    >>> loop.add_source(iter([(0.7, "x")]), lambda now, op: seen.append((now, op)))
    >>> loop.run(until=2.0)
    3
    >>> seen
    [(0.5, 'a'), (0.7, 'x'), (1.5, 'b')]

    ``arrival_dt`` is relative to the *previous* event of the same source
    (an inter-arrival gap), so independent sources interleave naturally.

    **The order, defined one event at a time:** the next event is the
    pending arrival with the smallest ``(time, scheduling seq)``, where a
    source's next arrival is scheduled — takes the next number of a global
    counter — right after its previous one was handled (its first, at
    registration).  :meth:`run` computes that order a chunk at a time and
    falls back to the definition only for an exact cross-source tie.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        #: Sources with a pending arrival, in registration order.
        self._live: list[_Source] = []
        self._seq = 0
        self._sources = 0
        self.processed = 0
        #: Optional telemetry hook ``probe(times)``, called once per merged
        #: chunk with the sorted time column of the rows about to be
        #: dispatched.  It returns ``(lo, hi)`` runs that partition the
        #: column in order, and the loop dispatches a run between taking it
        #: and asking for the next: a generator's code between two
        #: ``yield``s executes between the handlers of two runs.
        #: Observe-only.  A chunk cut short (a handler registered a source,
        #: or raised) is scheduled again from its first undispatched row,
        #: which the probe then sees a second time.
        self.probe: Callable[[np.ndarray], Iterable[tuple[int, int]]] | None = None

    def __len__(self) -> int:
        return len(self._live)

    def add_source(
        self,
        events: Iterator[tuple[float, Any]],
        on_event: Callable[[float, Any], None],
    ) -> None:
        """Register one lazy per-event source.

        ``events`` yields ``(arrival_dt, op)`` pairs; ``on_event(now, op)``
        is invoked for each at its absolute arrival time.  Only the next
        pending event is held in memory; the iterator is advanced one
        event at a time as the loop drains (each event enters the loop as a
        one-row block).  An exhausted iterator simply retires its source.
        A handler may register further sources while the loop runs.
        """
        self.add_blocks((((dt,), (op,)) for dt, op in events), on_event)

    def add_blocks(
        self,
        blocks: Iterator[tuple[Sequence[float], Sequence]],
        on_event: Callable[[float, Any], None],
    ) -> None:
        """Register one lazy source that draws its arrivals a block ahead.

        ``blocks`` yields ``(gaps, ops)`` column pairs — non-empty, of equal
        length, every gap finite and >= 0, or the source is retired with a
        :class:`~repro.errors.ConfigError` — the ``(arrival_dt, op)``
        protocol of :meth:`add_source`, a block at a time.  The loop turns
        the gaps into absolute times (:func:`arrival_times`), holds one
        block per source, and asks for the next only once the block's last
        arrival has been handled — exactly when a per-event source would be
        advanced.
        """
        src = _Source(self._sources, blocks, on_event, self._seq)
        self._sources += 1
        self._seq += 1
        self._live.append(src)
        self._pull(src, self.clock.now)

    def _pull(self, src: _Source, origin: float) -> None:
        """Fetch ``src``'s next block, its gaps counted from ``origin``;
        an exhausted (or invalid) source leaves the live set."""
        try:
            gaps, rows = next(src.blocks)
        except StopIteration:
            self._live.remove(src)
            return
        gaps = np.asarray(gaps, dtype=np.float64)
        bad = gaps[~((gaps >= 0.0) & (gaps < np.inf))]
        if len(gaps) == len(rows) > 0 and not bad.shape[0]:
            src.times = arrival_times(origin, gaps)
            src.rows = rows
            src.pos = 0
            return
        self._live.remove(src)
        if not bad.shape[0]:
            raise ConfigError(
                f"a block of {len(gaps)} gaps and {len(rows)} rows from source {src.sid}"
            )
        raise ConfigError(
            f"{'negative' if bad[0] < 0.0 else 'non-finite'} inter-arrival time "
            f"from source {src.sid}: {bad[0]}"
        )

    def run(self, until: float | None = None) -> int:
        """Drain events in time order; returns how many were processed.

        With ``until`` set, stops *before* the first event strictly past
        that time (the event stays pending, and the clock parks at
        ``until``).  Without it, runs until every source is exhausted —
        only sensible for finite sources.

        Each round schedules every pending arrival up to the earliest end
        of a held block (or ``until``) — no source can owe an arrival
        before that time — and dispatches the merged rows; the source
        whose block ended is advanced and the next round begins.
        """
        live = self._live
        probe = self.probe
        advance_to = self.clock.advance_to
        horizon = float("inf") if until is None else until
        processed = 0
        try:
            while live:
                bound = min(horizon, min(float(s.times[-1]) for s in live))
                members, slices = [], []
                for s in live:
                    hi = int(s.times.searchsorted(bound, "right"))
                    if hi > s.pos:
                        members.append(s)
                        slices.append(slice(s.pos, hi))
                if not members:
                    break  # every pending arrival is past the horizon
                when = np.concatenate([s.times[cut] for s, cut in zip(members, slices)])
                owner = np.repeat(
                    np.arange(len(members)), [cut.stop - cut.start for cut in slices]
                )
                order = when.argsort(kind="stable")
                when, owner = when[order], owner[order]
                # The stable sort is the defined order unless two sources
                # meet at one instant: stop the chunk before the first such
                # tie, or — when it is at the head — dispatch the one
                # arrival the definition picks.
                tied = np.flatnonzero((np.diff(when) == 0.0) & (np.diff(owner) != 0))
                if tied.shape[0]:
                    lo, hi = 0, int(when.searchsorted(when[tied[0]], "left"))
                    if not hi:
                        pick = min(members, key=lambda s: (s.times[s.pos], s.seq))
                        lo = int(np.argmax(owner == members.index(pick)))
                        hi = lo + 1
                    order, when, owner = order[lo:hi], when[lo:hi], owner[lo:hi]
                n = order.shape[0]
                pool = list(chain.from_iterable(s.rows[cut] for s, cut in zip(members, slices)))
                rows = [pool[i] for i in order.tolist()]
                times = when.tolist()
                handlers = [members[i].handler for i in owner.tolist()]
                # Successors of this chunk's rows take seqs from a range
                # reserved now, below any source a handler registers.
                base = self._seq
                self._seq = base + n
                nlive = len(live)
                done = 0
                try:
                    for lo, hi in probe(when) if probe is not None else ((0, n),):
                        for now, handler, row in zip(times[lo:hi], handlers[lo:hi], rows[lo:hi]):
                            advance_to(now)
                            handler(now, row)
                            done += 1
                            if len(live) != nlive:
                                break  # a new source may owe an earlier arrival
                        else:
                            continue
                        break
                finally:
                    processed += done
                    self._advance(members, owner[:done], base)
        finally:
            self.processed += processed
        if until is not None:
            advance_to(until)
        return processed

    def _advance(self, members: list[_Source], owner: np.ndarray, base: int) -> None:
        """Book the dispatched prefix of a chunk: ``owner[j]`` is the
        member whose pending row was handled ``j``-th."""
        if not owner.shape[0]:
            return
        for i, src in enumerate(members):
            mine = np.flatnonzero(owner == i)
            if mine.shape[0]:
                src.pos += mine.shape[0]
                src.seq = base + int(mine[-1])
        # The last handler may have registered sources: its own successor
        # is scheduled after them.
        src = members[owner[-1]]
        src.seq = self._seq
        self._seq += 1
        for src in members:
            if src.pos == len(src.rows):
                self._pull(src, float(src.times[-1]))


class Station:
    """Single-server FIFO queue with bounded depth over a device model.

    ``execute(op)`` must return the operation's *service time* in
    simulated seconds (e.g. the batch wall time of its disk requests).
    The station turns that into open-loop queueing behaviour:

    - completions are reaped lazily — any in-flight operation whose
      completion time is ``<= now`` finishes before the new arrival is
      examined (no completion events needed in the loop);
    - the queue depth observed by the arrival is recorded, and if it is
      already at ``depth`` the operation is **dropped** (counted, never
      executed — its service cost is not charged);
    - otherwise the operation starts at ``max(now, free_at)`` and its
      sojourn time ``completion − arrival`` lands in :attr:`latency`.

    Single-server is deliberate: the device models underneath already
    parallelize internally (striped arrays, batched plans); the station
    prices *ordering*, which is what an open-loop client perceives.
    """

    __slots__ = (
        "name", "depth", "_execute", "latency", "_queue_depth",
        "_offered", "started", "_dropped", "completed", "busy_s", "free_at",
        "_inflight", "_closed_until", "_refused", "_probe",
    )

    def __init__(self, name: str, execute: Callable[[Any], float], depth: int) -> None:
        if depth < 1:
            raise ConfigError(f"station queue depth must be >= 1: {depth}")
        self.name = name
        self.depth = depth
        self._execute = execute
        #: Sojourn time (queueing + service) of every started op.
        self.latency = Histogram()
        self._queue_depth = Histogram()
        self._offered = 0
        self.started = 0
        self._dropped = 0
        self.completed = 0
        self.busy_s = 0.0
        self.free_at = 0.0
        self._inflight: deque[float] = deque()
        #: A full station is closed until its oldest in-flight completion
        #: (-inf: open).  Arrivals before that are refused by comparison and
        #: logged as ``(now, op)``; :meth:`_book` books the run in bulk.
        self._closed_until = -math.inf
        self._refused: list[tuple[float, Any]] = []
        self._probe = None

    @property
    def probe(self) -> Callable[[float, Any, int, float | None, float], None] | None:
        """Optional telemetry hook ``probe(now, op, queued, done, service)``,
        called once per arrival after its fate is decided: ``done`` is the
        completion time (``None`` for a drop) and ``service`` the charged
        service time (0.0 on drops).  A refused run reaches it when booked —
        before the next accepted arrival — and by column, as
        ``probe.refused(times, ops, queued)``, if it has that attribute; one
        with an ``upstream`` attribute is handed the station's ``_book``
        there, to call before the probe's own books are read.  Observe-only.
        """
        return self._probe

    @probe.setter
    def probe(self, probe) -> None:
        self._book()  # the open run belongs to the previous observer
        self._probe = probe
        if hasattr(probe, "upstream"):
            probe.upstream = self._book

    @property
    def offered(self) -> int:
        """Arrivals seen; exact on every read, mid-run included."""
        return self._offered + len(self._refused)

    @property
    def dropped(self) -> int:
        """Arrivals the bounded queue refused; exact on every read."""
        return self._dropped + len(self._refused)

    @property
    def queue_depth(self) -> Histogram:
        """Queue length each arrival found ahead of it (drops included)."""
        self._book()
        return self._queue_depth

    def offer(self, now: float, op: Any) -> float | None:
        """One arrival at time ``now``; returns its completion time, or
        ``None`` if the bounded queue rejected it."""
        if now >= self._closed_until:
            if self._refused:
                self._book()
            inflight = self._inflight
            while inflight and inflight[0] <= now:
                inflight.popleft()
                self.completed += 1
            q = len(inflight)
            if q < self.depth:
                self._closed_until = -math.inf
                self._offered += 1
                self._queue_depth.observe(float(q))
                service = self._execute(op)
                if service < 0.0:
                    raise ConfigError(
                        f"negative service time at station {self.name}: {service}"
                    )
                start = now if now > self.free_at else self.free_at
                done = start + service
                self.free_at = done
                self.busy_s += service
                inflight.append(done)
                self.latency.observe(done - now)
                self.started += 1
                if self._probe is not None:
                    self._probe(now, op, q, done, service)
                return done
            self._closed_until = inflight[0]
        refused = self._refused
        refused.append((now, op))
        if len(refused) >= REFUSED_CHUNK:
            self._book()
        return None

    def _book(self) -> None:
        """Book the logged refused run: every arrival in it found ``depth``
        operations ahead of it and was dropped."""
        run = self._refused
        if not run:
            return
        self._refused = []  # the probe may read this station while it takes the run
        self._offered += len(run)
        self._dropped += len(run)
        self._queue_depth.observe_repeated(float(self.depth), len(run))
        probe = self._probe
        if probe is not None:
            refused = getattr(probe, "refused", None)
            if refused is not None:
                refused(*zip(*run), self.depth)
            else:
                for now, op in run:
                    probe(now, op, self.depth, None, 0.0)

    def drain(self) -> float:
        """Retire everything still in flight; returns the last completion
        time (or 0.0 if the station never started an operation)."""
        self._book()
        self._closed_until = -math.inf
        last = self._inflight[-1] if self._inflight else 0.0
        self.completed += len(self._inflight)
        self._inflight.clear()
        return last

    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    def saturation(self, duration_s: float) -> float:
        """Fraction of ``duration_s`` the server spent busy (can exceed
        1.0 when the backlog outlives the arrival window)."""
        return self.busy_s / duration_s if duration_s > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Station({self.name!r}, started={self.started}, "
            f"dropped={self.dropped}, busy_s={self.busy_s:.6f})"
        )
