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
``tests/metrics_reference.py``) and the traced cases of the golden
registry (``tests/golden.py``).
"""

from __future__ import annotations

import ast
from collections import deque
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import SamplingTracer, Tracer

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
    assert (a.emitted, a.dropped) == (b.emitted, b.dropped)
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


SRC = Path(__file__).resolve().parents[1] / "src"

#: The recording methods only :class:`Tracer` has: ``NULL_TRACER`` has none.
_RECORDING = frozenset({"record", "emit", "emit_batch"})


def _is_tracer(node: ast.expr) -> bool:
    """``tracer`` or ``self.tracer``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "tracer" and isinstance(node.value, ast.Name) \
            and node.value.id == "self"
    return isinstance(node, ast.Name) and node.id == "tracer"


def _tests_enabled(test: ast.expr) -> bool:
    """``<…>.enabled``, alone or as one term of an ``and``."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_tests_enabled(v) for v in test.values)
    return isinstance(test, ast.Attribute) and test.attr == "enabled"


def emissions(source: str) -> list[tuple[int, bool]]:
    """``(line, guarded)`` for every recording call on a tracer receiver:
    guarded when it sits in the body (not the ``else``) of an ``if`` that
    tests ``<…>.enabled``."""
    found: list[tuple[int, bool]] = []

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.If):
            visit(node.test, guarded)
            for child in node.body:
                visit(child, guarded or _tests_enabled(node.test))
            for child in node.orelse:
                visit(child, guarded)
            return
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and isinstance(func, ast.Attribute) \
                and func.attr in _RECORDING and _is_tracer(func.value):
            found.append((node.lineno, guarded))
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(ast.parse(source), False)
    return found


def test_the_scan_flags_an_unguarded_call():
    planted = (
        "def f(self, tracer):\n"
        "    tracer.record(S, None, 0.0, None)\n"
        "    if tracer.enabled and n:\n"
        "        self.tracer.emit('x', 'y')\n"
        "    else:\n"
        "        self.tracer.emit_batch('x', ops, t, d)\n"
        "    if not tracer.enabled:\n"
        "        tracer.record(S, None, 0.0, None)\n"
        "    self._tracer.emit('x', 'y')\n"
    )
    assert emissions(planted) == [(2, False), (4, True), (6, False), (8, False)]


def test_every_emission_in_src_is_guarded_by_enabled():
    """The contract that lets ``NULL_TRACER`` carry no recording method:
    no code in ``src/`` records into a tracer without checking
    ``enabled`` first."""
    seen, unguarded = 0, []
    for path in sorted(SRC.rglob("*.py")):
        for line, guarded in emissions(path.read_text(encoding="utf-8")):
            seen += 1
            if not guarded:
                unguarded.append(f"{path.relative_to(SRC)}:{line}")
    assert seen > 20  # the scan sees the sites it is meant to check
    assert unguarded == []


def test_sampling_tracer_adds_no_recording_override():
    assert not {"emit", "emit_batch", "record"} & set(vars(SamplingTracer))
    assert Tracer().active_stream is None
