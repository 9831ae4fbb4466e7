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
    A heap-scheduled merge of lazily-generated arrival streams over a
    :class:`~repro.sim.clock.SimClock`.  Each source is an iterator of
    ``(arrival_dt, op)`` events — the same lazy event-stream protocol the
    workload generators speak (:mod:`repro.workloads.base`) — and the loop
    holds exactly **one** pending arrival per source, so memory is
    O(sources) no matter how many events a run processes.  A million
    client streams are superposed *inside* a source generator (a merged
    Poisson process is itself Poisson), not registered individually.

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

import heapq
import itertools
from collections import deque
from collections.abc import Callable, Iterator
from typing import Any

from repro.errors import ConfigError
from repro.obs.histogram import Histogram
from repro.sim.clock import SimClock

__all__ = ["EventLoop", "Station"]

class EventLoop:
    """Merge lazy ``(arrival_dt, op)`` sources in simulated-time order.

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
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        # One heap entry per live source, carrying everything dispatch
        # needs: (when, seq, op, events, on_event, source_id).  seq comes
        # from a global monotone counter: deterministic tie-break, and no
        # two entries ever compare beyond it (ops are never compared).
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._sources = 0
        self.processed = 0
        #: Optional telemetry hook ``probe(now, op)``, called for every
        #: dispatched event before its handler.  Observe-only: must not
        #: touch the op or the simulation.  None (the default) costs one
        #: comparison per event.
        self.probe: Callable[[float, Any], None] | None = None

    def __len__(self) -> int:
        return len(self._heap)

    def add_source(
        self,
        events: Iterator[tuple[float, Any]],
        on_event: Callable[[float, Any], None],
    ) -> None:
        """Register one lazy event source.

        ``events`` yields ``(arrival_dt, op)`` pairs; ``on_event(now, op)``
        is invoked for each at its absolute arrival time.  Only the next
        pending event is held in memory; the iterator is advanced one
        event at a time as the loop drains.  An exhausted iterator simply
        retires its source.  A handler may register further sources while
        the loop runs.
        """
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
        """Drain events in time order; returns how many were processed.

        With ``until`` set, stops *before* the first event strictly past
        that time (the event stays pending, and the clock parks at
        ``until``).  Without it, runs until every source is exhausted —
        only sensible for finite sources.
        """
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


class Station:
    """Single-server FIFO queue with bounded depth over a device model.

    ``execute(op)`` must return the operation's *service time* in
    simulated seconds (e.g. the batch wall time of its disk requests).
    The station turns that into open-loop queueing behaviour:

    - completions are reaped lazily — any in-flight operation whose
      completion time is ``<= now`` finishes before the new arrival is
      examined (no completion events needed in the loop's heap);
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
        "name", "depth", "_execute", "latency", "queue_depth",
        "offered", "started", "dropped", "completed", "busy_s", "free_at",
        "_inflight", "probe",
    )

    def __init__(self, name: str, execute: Callable[[Any], float], depth: int) -> None:
        if depth < 1:
            raise ConfigError(f"station queue depth must be >= 1: {depth}")
        self.name = name
        self.depth = depth
        self._execute = execute
        #: Sojourn time (queueing + service) of every started op.
        self.latency = Histogram()
        #: Queue length each arrival found ahead of it (drops included).
        self.queue_depth = Histogram()
        self.offered = 0
        self.started = 0
        self.dropped = 0
        self.completed = 0
        self.busy_s = 0.0
        self.free_at = 0.0
        self._inflight: deque[float] = deque()
        #: Optional telemetry hook ``probe(now, op, queued, done, service)``
        #: called once per arrival after its fate is decided: ``done`` is
        #: the completion time (``None`` when the bounded queue dropped it)
        #: and ``service`` the charged service time (0.0 on drops).
        #: Observe-only; None (the default) costs one comparison per
        #: arrival.
        self.probe: Callable[[float, Any, int, float | None, float], None] | None = None

    def offer(self, now: float, op: Any) -> float | None:
        """One arrival at time ``now``; returns its completion time, or
        ``None`` if the bounded queue rejected it."""
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
        """Retire everything still in flight; returns the last completion
        time (or 0.0 if the station never started an operation)."""
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
