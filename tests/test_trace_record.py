"""``Tracer.record``, the positional row primitive, against ``Tracer.emit``.

Every fixed-shape emission site in ``src/`` declares its schema
``(layer, op, *attr names)`` and appends with ``record``; ``emit`` is the
keyword form of the same row.  The property here: a ``record`` call leaves
exactly the ring an ``emit`` call with the matching keywords leaves —
rows, ``emitted``, ``dropped`` and the decoded events — on clocked and
unclocked rings, rings that wrap, and a ``SamplingTracer`` armed and
disarmed between calls.  Since ``emit`` now calls ``record``, both are
also held to :class:`_EmitModel`, the standalone ``emit`` body (with the
``SamplingTracer`` override folded in) that built these rows before.
That the converted sites record the rows they emitted before is pinned by
the ``emit``-based oracles (``tests/meta_reference.py``,
``tests/metrics_reference.py``) and the trace goldens
(``tests/test_trace_identity.py``, ``tests/service_golden.py``).
"""

from __future__ import annotations

from collections import deque
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import NULL_TRACER, NullTracer, SamplingTracer, Tracer

#: Declared schemas of a few shapes: no attrs, one, several.
SCHEMAS = (
    ("meta", "create"),
    ("meta", "journal_commit", "records"),
    ("cache", "hit", "start", "nblocks"),
    ("disk", "read", "disk", "start", "nblocks", "seek_s", "transfer_s"),
)

_times = st.none() | st.floats(0.0, 1e6, allow_nan=False)
_streams = st.none() | st.integers(0, 50)
_event = st.tuples(
    st.just("event"),
    st.sampled_from(SCHEMAS),
    _times,
    st.floats(0.0, 10.0, allow_nan=False),
    _streams,
    st.lists(st.integers(-5, 1 << 40), min_size=5, max_size=5),
)
_arm = st.tuples(st.just("arm"), st.integers(0, 50))
_disarm = st.tuples(st.just("disarm"))


class _EmitModel:
    """Oracle: the ring the standalone ``Tracer.emit`` body kept, with the
    ``SamplingTracer`` override's stream rule folded in."""

    def __init__(self, capacity, clock, enabled):
        self.rows, self.emitted = deque(maxlen=capacity), 0
        self.clock, self.enabled, self.active_stream = clock, enabled, None

    def emit(self, layer, op, t=None, dur=0.0, stream=None, **attrs):
        if not self.enabled:
            return
        if stream is None:
            stream = self.active_stream
        if t is None:
            t = self.clock() if self.clock is not None else float(self.emitted)
        self.emitted += 1
        self.rows.append((t, dur, stream, (layer, op, *attrs), *attrs.values()))


def _clock():
    ticks = count()
    return lambda: 0.25 * next(ticks)


def _pair(kind: str, capacity: int, clocked: bool):
    """Two identical fresh tracers, each with its own identical clock."""
    def make():
        if kind == "sampling":
            tr = SamplingTracer(every=3, capacity=capacity)
        else:
            tr = Tracer(capacity=capacity)
        if clocked:
            tr.bind_clock(_clock())
        return tr
    return make(), make()


def _replay(by_record: Tracer, by_emit: Tracer, model: _EmitModel, script) -> None:
    sampling = isinstance(by_record, SamplingTracer)
    armed: list = []
    for step in script:
        if step[0] == "arm":
            if sampling and not armed:
                armed = [by_record.op(step[1]), by_emit.op(step[1])]
                for op in armed:
                    op.__enter__()
                model.enabled, model.active_stream = True, step[1]
        elif step[0] == "disarm":
            for op in armed:
                op.__exit__(None, None, None)
            if armed:
                model.enabled, model.active_stream = False, None
            armed = []
        else:
            _, schema, t, dur, stream, pool = step
            values = pool[: len(schema) - 2]
            attrs = dict(zip(schema[2:], values))
            by_record.record(schema, t, dur, stream, *values)
            by_emit.emit(schema[0], schema[1], t=t, dur=dur, stream=stream, **attrs)
            model.emit(schema[0], schema[1], t=t, dur=dur, stream=stream, **attrs)


def _same_ring(a: Tracer, b: Tracer) -> None:
    assert a.rows() == b.rows()
    assert (a.emitted, a.dropped, len(a)) == (b.emitted, b.dropped, len(b))
    assert a.events() == b.events()


@settings(deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(("plain", "sampling")),
    capacity=st.integers(1, 8) | st.just(65536),
    clocked=st.booleans(),
    script=st.lists(st.one_of(_event, _event, _arm, _disarm), max_size=40),
)
def test_record_is_emit(kind, capacity, clocked, script):
    by_record, by_emit = _pair(kind, capacity, clocked)
    model = _EmitModel(capacity, _clock() if clocked else None, kind == "plain")
    _replay(by_record, by_emit, model, script)
    _same_ring(by_record, by_emit)
    assert by_record.rows() == list(model.rows)
    assert by_record.emitted == model.emitted


def test_emit_batch_takes_the_armed_stream():
    """With ``active_stream`` on the base class, ``emit_batch`` resolves a
    missing stream itself — the rows a loop of ``record`` calls leaves."""
    starts = np.array([8, 16, 24], dtype=np.int64)
    t = np.array([0.0, 0.5, 1.25])
    dur = np.array([0.5, 0.75, 0.125])
    ops = ["read", "write", "read"]
    batched, looped = SamplingTracer(every=5), SamplingTracer(every=5)
    with batched.op(10):
        batched.emit_batch("disk", ops, t, dur, disk="d0", start=starts)
    with looped.op(10):
        for i, op in enumerate(ops):
            looped.record(
                ("disk", op, "disk", "start"), float(t[i]), float(dur[i]), None,
                "d0", int(starts[i]),
            )
    _same_ring(batched, looped)
    assert {e.stream for e in batched.events()} == {10}
    plain = Tracer()
    plain.emit_batch("disk", ops, t, dur, disk="d0", start=starts)
    assert {e.stream for e in plain.events()} == {None}


def test_arity_mismatch_raises_when_read():
    for values in ((1,), (1, 2, 3)):
        tr = Tracer()
        tr.record(SCHEMAS[2], 0.0, 0.0, None, *values)  # the hot path does not check
        with pytest.raises(ValueError):
            tr.events()


def test_null_tracer_has_the_tracer_surface():
    public = {name for name in dir(Tracer) if not name.startswith("_")}
    assert "record" in public and "active_stream" in public
    assert public <= set(dir(NullTracer))
    NULL_TRACER.record(SCHEMAS[1], None, 0.0, None, 1)
    assert NULL_TRACER.rows() == [] and NULL_TRACER.emitted == 0
    assert NULL_TRACER.active_stream is None


def test_sampling_tracer_adds_no_recording_override():
    assert not {"emit", "emit_batch", "record"} & set(vars(SamplingTracer))
    assert Tracer().active_stream is None
