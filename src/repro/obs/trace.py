"""Structured tracing: bounded ring buffer of simulated-time events.

Instrumented layers emit events — *what happened, where, at which
simulated time, for how long* — into a :class:`Tracer`.  The buffer is a
ring (``collections.deque`` with ``maxlen``) of raw rows, so a long run
keeps the most recent ``capacity`` events and merely counts the rest as
dropped; tracing never grows without bound.  A row is one flat tuple
``(t, dur, stream, schema, *attr values)`` whose ``schema`` —
``(layer, op, *attr names)`` — is shared by every event of the same
shape; :class:`TraceEvent` objects exist only once :meth:`Tracer.events`
is called.  A site of fixed shape declares its schema as a module
constant and appends positionally with :meth:`Tracer.record`;
:meth:`Tracer.emit` is the keyword form of the same row, and array code
paths append a whole batch of rows from numpy columns with one
:meth:`Tracer.emit_batch` call.

Tracing is a property of the buffer, never of the code path: hot paths
guard every *emission* with ``if tracer.enabled:`` (sparing the argument
packing) but run the same code either way, and default to the shared
:data:`NULL_TRACER`, whose ``enabled`` is ``False`` — with tracing off the
per-operation cost is one attribute load and a branch.  The null tracer
therefore has no recording methods at all: it carries only what a caller
outside such a guard touches (binding a clock, and a sweep's
spawn / rows / absorb hand-off).

Timestamps are *simulated* seconds.  A component that owns a timeline (a
disk, the MDS) passes ``t=`` explicitly; everything else falls back to the
tracer's bound clock (the data plane binds the disk array's elapsed time,
the MDS binds its serialized elapsed time — first bind wins), or to a
monotone event sequence number when no clock is bound.

A sweep never shares a ring: each cell records into a :meth:`Tracer.spawn`
of the run's tracer and the run :meth:`Tracer.absorb` takes its
:meth:`Tracer.rows` in submission order (:mod:`repro.core.sweep`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any

import numpy as np


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured event on the simulated timeline."""

    t: float                 #: simulated timestamp (seconds)
    layer: str               #: subsystem: disk, sched, cache, fsm, alloc, fs, meta, fault, run
    op: str                  #: operation within the layer
    dur: float = 0.0         #: simulated duration (seconds), 0 for instants
    stream: int | None = None  #: originating write stream, when known
    attrs: dict[str, Any] = field(default_factory=dict)


class _Span:
    """Context manager recording one event spanning its ``with`` block."""

    __slots__ = ("_tracer", "_layer", "_op", "_stream", "_attrs", "t0")

    def __init__(
        self,
        tracer: "Tracer",
        layer: str,
        op: str,
        stream: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self._layer = layer
        self._op = op
        self._stream = stream
        self._attrs = attrs
        self.t0 = 0.0

    def __enter__(self) -> "_Span":
        self.t0 = self._tracer.now()
        return self

    def __exit__(self, *exc) -> None:
        t1 = self._tracer.now()
        self._tracer.emit(
            self._layer,
            self._op,
            t=self.t0,
            dur=max(0.0, t1 - self.t0),
            stream=self._stream,
            **self._attrs,
        )


class _NullSpan:
    """Reusable no-op context manager (disabled tracing)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded ring buffer of trace rows, read back as :class:`TraceEvent`."""

    __slots__ = (
        "enabled", "capacity", "clock", "active_stream", "_rows", "_schemas", "_emitted",
    )

    def __init__(
        self,
        capacity: int = 65536,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive: {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self.clock = clock
        #: Stream id given to events recorded without one: the operation a
        #: :class:`SamplingTracer` is armed for, always None otherwise.
        self.active_stream: int | None = None
        self._rows: deque[tuple] = deque(maxlen=capacity)
        #: Interned ``(layer, op, *attr names)`` tuples, one per event shape.
        self._schemas: dict[tuple, tuple] = {}
        self._emitted = 0

    # -- clock -------------------------------------------------------------
    def bind_clock(
        self, clock: Callable[[], float], override: bool = False
    ) -> None:
        """Attach a simulated-time source; first bind wins unless forced."""
        if override or self.clock is None:
            self.clock = clock

    def now(self) -> float:
        """Current simulated time: bound clock, else the event sequence —
        this ring's own ``emitted`` count, so an unclocked sweep cell stamps
        0.0, 1.0, ... whichever cells ran before it, in whichever process."""
        if self.clock is not None:
            return self.clock()
        return float(self._emitted)

    # -- recording ---------------------------------------------------------
    def record(
        self,
        schema: tuple,
        t: float | None,
        dur: float,
        stream: int | None,
        *values: Any,
    ) -> None:
        """Record one event of a declared shape (evicting the oldest once at
        capacity): ``schema`` is a constant ``(layer, op, *attr names)`` and
        ``values`` the attrs in that order.  ``t=None`` stamps the bound
        clock, else the sequence number; ``stream=None`` the active stream."""
        if not self.enabled:
            return
        if t is None:
            clock = self.clock
            t = clock() if clock is not None else float(self._emitted)
        self._emitted += 1
        self._rows.append(
            (t, dur, self.active_stream if stream is None else stream, schema, *values)
        )

    def emit(
        self,
        layer: str,
        op: str,
        t: float | None = None,
        dur: float = 0.0,
        stream: int | None = None,
        **attrs: Any,
    ) -> None:
        """Record one event given by keywords: the :meth:`record` row, with
        the schema interned per shape."""
        if not self.enabled:
            return
        key = (layer, op, *attrs)
        self.record(self._schemas.setdefault(key, key), t, dur, stream, *attrs.values())

    def emit_batch(
        self,
        layer: str,
        ops: Sequence[str],
        t: np.ndarray,
        dur: np.ndarray,
        stream: int | None = None,
        **columns: Any,
    ) -> None:
        """Record ``len(ops)`` events with one ring append.

        ``ops`` names each event's operation; ``t``, ``dur`` and every
        array in ``columns`` hold one element per event, and any other
        column value is shared by all of them.  Arrays are converted with
        ``.tolist()``, so the rows — and every export — hold Python ints
        and floats, exactly what per-event :meth:`emit` calls would store.
        """
        if not self.enabled:
            return
        n = len(ops)
        names = tuple(columns)
        schemas = {}
        for op in set(ops):
            key = (layer, op, *names)
            schemas[op] = self._schemas.setdefault(key, key)
        if stream is None:
            stream = self.active_stream
        self._emitted += n
        self._rows.extend(zip(
            t.tolist(), dur.tolist(), repeat(stream, n),
            map(schemas.__getitem__, ops),
            *(
                v.tolist() if isinstance(v, np.ndarray) else repeat(v, n)
                for v in columns.values()
            ),
        ))

    def span(
        self, layer: str, op: str, stream: int | None = None, **attrs: Any
    ) -> _Span | _NullSpan:
        """Context manager timing its block on the simulated clock."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, layer, op, stream, attrs)

    # -- inspection --------------------------------------------------------
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return [
            TraceEvent(
                t, schema[0], schema[1], dur, stream,
                dict(zip(schema[2:], values, strict=True)),
            )
            for t, dur, stream, schema, *values in self._rows
        ]

    @property
    def emitted(self) -> int:
        """Events emitted over the tracer's lifetime (including evicted)."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return max(0, self._emitted - len(self._rows))

    # -- one ring per sweep cell -------------------------------------------
    def spawn(self) -> "Tracer":
        """A fresh ring of this tracer's kind for one sweep cell: same
        class, ``capacity`` and ``enabled``; empty, and with no clock."""
        return Tracer(capacity=self.capacity, enabled=self.enabled)

    def rows(self) -> list[tuple]:
        """The retained raw rows, oldest first — plain picklable tuples."""
        return list(self._rows)

    def absorb(self, rows: Sequence[tuple], emitted: int) -> None:
        """Append another ring's ``rows()`` / ``emitted`` behind this one's:
        the ring keeps the last ``capacity`` rows of the concatenation, as
        if the events had been emitted here, and the counts add up."""
        self._rows.extend(rows)
        self._emitted += emitted


class _ArmedOp:
    """Context manager arming a :class:`SamplingTracer` for one operation."""

    __slots__ = ("_tracer", "_stream")

    def __init__(self, tracer: "SamplingTracer", stream: int) -> None:
        self._tracer = tracer
        self._stream = stream

    def __enter__(self) -> "_ArmedOp":
        self._tracer.enabled = True
        self._tracer.active_stream = self._stream
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.enabled = False
        self._tracer.active_stream = None


class SamplingTracer(Tracer):
    """Trace 1-in-N deterministically chosen streams end-to-end.

    A whole-run :class:`Tracer` records every event of every operation;
    with a million streams that is far more than any ring holds, so the
    interesting operations are evicted long before the run ends.  A
    ``SamplingTracer`` bounds the *volume*: it is **dormant at rest** —
    ``enabled`` is False, so unsampled operations (the overwhelming
    majority) emit nothing — and is *armed* only for the duration of a
    sampled operation:

    >>> tracer = SamplingTracer(every=1000)
    >>> if tracer.sampled(stream):                      # doctest: +SKIP
    ...     with tracer.op(stream):
    ...         station.offer(now, op)  # deep layers emit as usual

    Inside the ``with`` block every instrumented layer the operation
    touches (MDS queue, journal, allocator, disk) sees an enabled tracer
    and emits.  Armed or dormant, the operation runs the same code path —
    ``enabled`` guards emissions, never a choice of path — so sampling
    observes without perturbing.

    Stream selection is deterministic — ``stream % every == offset`` —
    so repeated runs with the same seed trace the same streams.  Events
    emitted while armed inherit the armed stream id when the emitting
    layer doesn't pass its own.
    """

    __slots__ = ("every", "offset")

    def __init__(
        self,
        every: int = 1000,
        offset: int = 0,
        capacity: int = 65536,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"sampling period must be >= 1: {every}")
        super().__init__(capacity=capacity, clock=clock, enabled=False)
        self.every = every
        self.offset = offset % every

    def spawn(self) -> "SamplingTracer":
        return SamplingTracer(self.every, self.offset, self.capacity)

    def sampled(self, stream: int) -> bool:
        """Whether ``stream`` is one of the 1-in-N sampled streams."""
        return stream % self.every == self.offset

    def op(self, stream: int) -> _ArmedOp:
        """Arm the tracer for one sampled operation (context manager)."""
        return _ArmedOp(self, stream)


def parse_sample(sample: "int | str") -> int:
    """Parse a sampling period: an int N or the CLI form ``"1/N"``."""
    if isinstance(sample, int):
        period = sample
    else:
        text = sample.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if num.strip() != "1":
                raise ValueError(
                    f"sampling rate must be 1/N, got {sample!r}"
                )
            period = int(den)
        else:
            period = int(text)
    if period < 1:
        raise ValueError(f"sampling period must be >= 1: {sample!r}")
    return period


class NullTracer:
    """Zero-overhead stand-in used when tracing is off.

    ``enabled`` is always ``False`` and every emission site checks it
    first, so the null tracer records nothing and has no recording
    methods; it keeps only what a caller outside that guard touches.  Use
    the module-level :data:`NULL_TRACER` singleton.
    """

    __slots__ = ()

    enabled = False
    emitted = 0

    def bind_clock(self, clock: Callable[[], float], override: bool = False) -> None:
        pass

    def spawn(self) -> "NullTracer":
        return self

    def rows(self) -> list[tuple]:
        return []

    def absorb(self, rows: Sequence[tuple], emitted: int) -> None:
        pass


#: Shared disabled tracer: the default for every instrumented component.
NULL_TRACER = NullTracer()


def coerce_tracer(trace: "Tracer | NullTracer | bool | None") -> "Tracer | NullTracer":
    """Normalize a runner's ``trace=`` argument.

    ``None``/``False`` → :data:`NULL_TRACER`; ``True`` → a fresh
    :class:`Tracer`; a tracer instance is passed through.
    """
    if trace is None or trace is False:
        return NULL_TRACER
    if trace is True:
        return Tracer()
    return trace
