"""A metadata run in one body: ``MetadataServer.run_many`` equals the loop
of public calls it stands for.

``run_many("create" | "utime" | "delete", argsets)`` feeds every plan of
the run to one ``_run``, which books the op counter, ``mds.journal_writes``
and the latency samples once on the way out; any other method loops its
public call.  Either way the server must end where the per-call loop ends —
``tests/test_meta_batched.py::snapshot`` (clock, counters, histograms,
cache and readahead order, journal), the redo records and the exported
trace rows — on every profile, under a full ``Tracer`` and a
``SamplingTracer`` armed and disarmed between calls, when a call at
position k raises (the calls before it applied and booked), when an armed
injector tears or crashes a commit mid-run, and after ``crash_recover``.

``Histogram.observe_each``, which takes the run's latency samples, is held
to a loop of ``observe``.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.histogram as histogram_mod
from repro.errors import CrashError, FileExists, FileNotFound, ReproError
from repro.fault import FaultInjector, FaultPlan
from repro.meta.mds import MetadataServer
from repro.obs.export import to_jsonl
from repro.obs.histogram import Histogram
from repro.obs.trace import SamplingTracer, Tracer

from tests.test_meta_batched import PROFILES, snapshot
from tests.test_metrics_reduce import patched, same_histogram

NAMES = [f"f{j:03d}" for j in range(50)]


def run_many(mds: MetadataServer):
    return mds.run_many


def per_call(mds: MetadataServer):
    """The loop of public calls a run stands for."""

    def call(method: str, argsets: list[tuple]) -> int:
        fn = getattr(mds, method)
        for args in argsets:
            fn(*args)
        return len(argsets)

    return call


def attempt(call, *args):
    """The call's result, or the simulator error it raised."""
    try:
        return call(*args)
    except ReproError as exc:
        return (type(exc), exc.args)


def state(mds: MetadataServer) -> dict:
    out = {**snapshot(mds), "redo": mds._redo, "pending": mds.journal.pending_records()}
    if isinstance(mds.tracer, Tracer):
        buf = io.StringIO()
        to_jsonl(mds.tracer.events(), buf)
        out["trace"] = buf.getvalue()
    return out


def phases(dirs: list) -> list[tuple[str, list[tuple]]]:
    """Runs over three directories: long enough to cross checkpoints (every
    64 journaled ops on these profiles), the fallback methods, a raise at
    position k of a create / delete / utime run, and an empty run."""
    a, b, c = dirs
    return [
        ("create", [(d, n) for n in NAMES for d in dirs]),
        ("utime", [(d, n) for n in NAMES[::2] for d in dirs]),
        ("stat", [(d, n) for n in NAMES[::5] for d in dirs]),
        ("readdir_stat", [(d,) for d in dirs]),
        ("delete", [(d, n) for n in NAMES[::3] for d in dirs]),
        ("create", [(a, "x0"), (a, "x1"), (a, "f001"), (a, "x2")]),
        ("delete", [(b, "f001"), (b, "f000"), (b, "f002")]),
        ("utime", [(c, "f001"), (c, "x0")]),
        ("create", []),
    ]


def scenario(mds: MetadataServer, call) -> list:
    dirs = [mds.mkdir(mds.root, f"d{i}") for i in range(3)]
    return [attempt(call, method, argsets) for method, argsets in phases(dirs)]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_run_many_equals_the_loop_of_public_calls(profile, traced):
    outs, states, recovered = [], [], []
    for make in (run_many, per_call):
        mds = MetadataServer(PROFILES[profile](), tracer=Tracer() if traced else None)
        outs.append(scenario(mds, make(mds)))
        states.append(state(mds))
        mds.crash_recover()
        recovered.append(state(mds))
    assert outs[0] == outs[1]
    assert states[0] == states[1]
    assert recovered[0] == recovered[1]
    assert outs[0][:5] == [150, 75, 30, 3, 51]
    # A raise at position k: the calls before it were applied and booked.
    assert outs[0][5:8] == [
        (FileExists, ("f001",)), (FileNotFound, ("f000",)), (FileNotFound, ("x0",)),
    ]
    assert outs[0][8] == 0
    counters = states[0]["metrics"]
    assert counters["mds.op.create"] == 150 + 2
    assert counters["mds.op.delete"] == 51 + 1
    assert counters["mds.op.utime"] == 75 + 1
    assert counters["mds.checkpoints"] > 2
    assert states[0]["hists"]["mds.op_latency_s"][0] == states[0]["ops"]


def test_sampling_tracer_armed_and_disarmed_between_calls():
    """The tracer flips ``enabled`` between calls, so the body reads it
    per call: every armed op, and no other, leaves its ``meta`` row."""
    states = []
    for make in (run_many, per_call):
        tracer = SamplingTracer(every=2)
        mds = MetadataServer(PROFILES["redbud-mif"](), tracer=tracer)
        call = make(mds)
        dirs = [mds.mkdir(mds.root, f"d{i}") for i in range(3)]
        for i, (method, argsets) in enumerate(phases(dirs)):
            if i % 2:
                with tracer.op(i):
                    attempt(call, method, argsets)
            else:
                attempt(call, method, argsets)
            # Single calls in between, armed and not.
            with tracer.op(100 + i):
                mds.stat(dirs[0], "f004")
            mds.stat(dirs[0], "f004")
        states.append(state(mds))
        ops = [e for e in tracer.events() if e.layer == "meta" and e.op != "journal_commit"]
        assert {e.stream for e in ops} == {1, 3, 5, 7} | {100 + i for i in range(9)}
        assert sum(e.op == "utime" for e in ops) == 75 + 1
        assert sum(e.op == "stat" for e in ops) == 9
    assert states[0] == states[1]


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_an_injector_tearing_commits_mid_run(profile):
    """Two-block commits under ``torn_every=2``: every second commit of the
    run tears, is counted and traced, never acknowledged — and recovery
    discards exactly those."""
    states = []
    for make in (run_many, per_call):
        mds = MetadataServer(PROFILES[profile](), tracer=Tracer())
        d = mds.mkdir(mds.root, "work")
        create_file = mds.layout.create_file

        def two_block_commit(parent, name, now, create_file=create_file):
            inode, plan = create_file(parent, name, now)
            plan.journal_records = 2
            return inode, plan

        mds.layout.create_file = two_block_commit
        injector = FaultInjector(FaultPlan(seed=0, torn_every=2))
        mds.disk.attach_injector(injector)
        assert make(mds)("create", [(d, f"f{i}") for i in range(20)]) == 20
        assert mds.metrics.count("mds.torn_journal_records") == injector.torn_writes > 0
        torn = [e.attrs["seq"] for e in mds.tracer.events() if e.op == "journal_torn"]
        assert torn == [r.seq for r in mds.journal.pending_records()]
        before = state(mds)
        injector.disarm()
        mds.crash_recover()
        assert mds.metrics.count("mds.discarded_records") == len(torn)
        states.append((before, state(mds)))
    assert states[0] == states[1]


@pytest.mark.parametrize("crash_after", [0, 1, 5, 40])
def test_an_injector_crashing_mid_run(crash_after):
    """A crash part way through a run: the ops before it stay applied and
    booked, the crashing op is left as the per-call loop leaves it, and
    recovery replays the same records."""
    states = []
    for make in (run_many, per_call):
        mds = MetadataServer(PROFILES["lustre"](), tracer=Tracer())
        d = mds.mkdir(mds.root, "work")
        injector = FaultInjector(FaultPlan(seed=0, crash_after_requests=crash_after))
        mds.disk.attach_injector(injector)
        with pytest.raises(CrashError):
            make(mds)("create", [(d, f"f{i}") for i in range(200)])
        crashed = state(mds)
        injector.disarm()
        replayed = mds.crash_recover()
        states.append((crashed, replayed, state(mds)))
    assert states[0] == states[1]


def test_a_method_without_a_run_body_loops_the_public_call(monkeypatch):
    mds = MetadataServer(PROFILES["redbud-mif"]())
    calls = []
    stat = mds.stat
    monkeypatch.setattr(mds, "stat", lambda *args: calls.append(args) or stat(*args))
    d = mds.mkdir(mds.root, "d")
    assert mds.run_many("create", [(d, "a"), (d, "b")]) == 2
    assert mds.run_many("stat", [(d, "a"), (d, "b"), (d, "a")]) == 3
    assert calls == [(d, "a"), (d, "b"), (d, "a")]
    with pytest.raises(AttributeError):
        mds.run_many("no_such_op", [()])


# -- Histogram.observe_each == a loop of observe -----------------------------
ints = st.integers(min_value=0, max_value=2**40)
floats = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


@settings(deadline=None, max_examples=150)
@given(
    batches=st.lists(st.lists(st.one_of(ints, floats), max_size=30), max_size=8),
    chunk=st.sampled_from([1, 7, 1024]),
)
def test_observe_each_is_a_loop_of_observe(batches, chunk):
    with patched(histogram_mod, "LOG_CHUNK", chunk):
        got, want = Histogram(), Histogram()
        for batch in batches:
            got.observe_each(batch)
            for v in batch:
                want.observe(v)
            assert len(got._log) < chunk
        same_histogram(got, want)


def test_observe_each_across_log_chunk_keeps_int_extrema():
    values = [(7 * i) % 3001 + 1 for i in range(3 * histogram_mod.LOG_CHUNK + 5)]
    got, want = Histogram(), Histogram()
    got.observe_each(values[:10])
    got.observe_each(values[10:])
    for v in values:
        want.observe(v)
    same_histogram(got, want)
    snap = got.snapshot()
    assert type(snap.minimum) is int and type(snap.maximum) is int
    assert got._log == []


def test_observe_each_of_nothing_is_a_no_op():
    h = Histogram()
    h.observe(2.0)
    h.observe_each([])
    assert h._log == [2.0]
    assert h.count == 1


def test_observe_each_with_a_negative_sample_records_none_of_them():
    """Unlike the loop, which keeps the samples before the bad one."""
    h = Histogram()
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.observe_each([2.0, -1.0, 3.0])
    assert h._log == [1.0]
    assert h.count == 1 and h.total == 1.0
