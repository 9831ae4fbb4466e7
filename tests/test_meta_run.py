"""A metadata run in one body: ``MetadataServer.run_many`` equals the loop
of public calls it stands for.

``run_many("create" | "utime" | "delete", argsets)`` executes the run on
the column body (``_run_columns``), or under an armed injector feeds its
plans to one ``_run``; either books the op counter, ``mds.journal_writes``
and the latency samples once on the way out.  Any other method loops its
public call.  Every way the server must end where the per-call loop ends —
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
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.histogram as histogram_mod
from repro.errors import CrashError, FileExists, FileNotFound, ReproError
from repro.fault import FaultInjector, FaultPlan
from repro.fs.redbud import RedbudFileSystem
from repro.meta.mds import MetadataServer
from repro.obs.export import to_jsonl
from repro.obs.histogram import Histogram
from repro.obs.trace import SamplingTracer, Tracer
from repro.units import KiB

from tests.conftest import small_config
from tests.meta_reference import ReferenceMetadataServer, ScalarMetadataServer
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
    out = {
        **snapshot(mds),
        "redo": [list(r.dirties) for r in mds.journal.replay()],
        "pending": mds.journal.pending_records(),
    }
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


#: The longest run :func:`drawn_run` draws: past one chunk of the longest
#: checkpoint interval drawn below, and past an evicting cache.
LONGEST_RUN = 80


def drawn_run(data, method: str, live: dict, dirs: list) -> list[tuple]:
    """A run of ``method`` over the names ``live`` holds per directory, of
    one op up to :data:`LONGEST_RUN`; a call at a drawn position k raises
    (a create of a held name, a utime / delete of a missing one)."""
    n = data.draw(st.integers(1, LONGEST_RUN), label="length")
    if method == "create":
        fresh = [(d, f"n{i:03d}") for i in range(3 * LONGEST_RUN) for d in range(len(dirs))]
        pool = [(d, name) for d, name in fresh if name not in live[d]]
    else:
        pool = [(d, name) for d in range(len(dirs)) for name in sorted(live[d])]
    argsets = [(dirs[d], name) for d, name in pool[:n]]
    k = data.draw(st.integers(0, len(argsets)), label="k")
    held = [(d, name) for d in range(len(dirs)) for name in sorted(live[d])]
    if method != "create":
        held = [(0, "missing")]
    if k < len(argsets) and held:
        argsets.insert(k, (dirs[held[0][0]], held[0][1]))
    return argsets


@settings(max_examples=25, deadline=None)
@given(
    profile=st.sampled_from(sorted(PROFILES)),
    interval=st.sampled_from([1, 7, 64]),
    cache_blocks=st.sampled_from([24, 4096]),
    traced=st.booleans(),
    methods=st.lists(st.sampled_from(["create", "utime", "delete"]), min_size=1, max_size=5),
    data=st.data(),
)
def test_run_many_is_the_loop_of_public_calls_at_any_run_length(
    profile, interval, cache_blocks, traced, methods, data
):
    """Column-body runs of any length meet checkpoints at any interval,
    cold and evicting caches, and a raise at any position."""
    cfg = PROFILES[profile]()
    cfg = replace(
        cfg,
        meta=replace(cfg.meta, journal_interval_ops=interval),
        cache=replace(cfg.cache, capacity_blocks=cache_blocks),
    )
    servers = [MetadataServer(cfg, tracer=Tracer() if traced else None) for _ in range(2)]
    calls = [run_many(servers[0]), per_call(servers[1])]
    dirs = [[mds.mkdir(mds.root, f"d{i}") for i in range(2)] for mds in servers]
    live: dict[int, set[str]] = {0: set(), 1: set()}
    for method in ["create", *methods]:
        argsets = drawn_run(data, method, live, dirs[0])
        outs = []
        for call, ds in zip(calls, dirs):
            own = [(ds[dirs[0].index(d)], name) for d, name in argsets]
            outs.append(attempt(call, method, own))
        assert outs[0] == outs[1]
        assert state(servers[0]) == state(servers[1])
        live = {i: set(d.entries) for i, d in enumerate(dirs[0])}
    for mds in servers:
        mds.crash_recover()
    assert state(servers[0]) == state(servers[1])


def test_a_run_in_a_fragmented_directory_records_each_spill_at_its_op():
    """Creates in a fragmented embedded directory carry an ``inode_spill``
    row on their plans; the column body records each when its op starts,
    where the per-call loop records it."""
    states = []
    for make in (run_many, per_call):
        mds = MetadataServer(PROFILES["redbud-mif"](), tracer=Tracer())
        d = mds.mkdir(mds.root, "frag")
        mds.create(d, "seed")
        mds.set_extent_records(d, "seed", 64)
        names = [(d, f"f{i:03d}") for i in range(32)]
        assert make(mds)("create", names) == len(names)
        states.append(state(mds))
    assert "inode_spill" in states[0]["trace"]
    assert states[0] == states[1]


def test_a_run_on_a_tracer_another_component_clocks_keeps_that_clock():
    """In a file system the data plane binds the shared tracer's clock
    first, so the per-op body stamps the MDS's clock-less rows (cache hits,
    arranges, journal commits) with the data plane's time; so must the
    column body."""
    states = []
    for make in (run_many, per_call):
        fs = RedbudFileSystem(small_config(), tracer=Tracer())
        fs.create("/a")
        fs.write("/a", 0, 64 * KiB)
        assert fs.mds.tracer.clock != fs.mds.now
        names = [(fs.dir_handle("/"), f"m{i:03d}") for i in range(32)]
        assert make(fs.mds)("create", names) == len(names)
        states.append(state(fs.mds))
    assert states[0] == states[1]


@pytest.mark.parametrize("oracle", [ReferenceMetadataServer, ScalarMetadataServer])
def test_an_oracle_server_runs_a_long_run_through_its_own_body(oracle):
    """A server class that replaces ``_run`` (the per-op oracles the
    equivalence tests compare against) keeps its body for every op of a
    run, however long: the column body never stands in for the oracle."""

    class Counting(oracle):
        executed = 0

        def _execute(self, plan, op_name, requests=1):
            Counting.executed += 1
            super()._execute(plan, op_name, requests)

    mds = Counting(PROFILES["redbud-mif"]())
    d = mds.mkdir(mds.root, "d")
    names = [(d, f"f{i:03d}") for i in range(100)]
    before = Counting.executed
    for method in ("create", "utime", "delete"):
        assert mds.run_many(method, names) == len(names)
    assert Counting.executed - before == 3 * len(names)


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
    assert h.snapshot().count == 1


def test_observe_each_with_a_negative_sample_records_none_of_them():
    """Unlike the loop, which keeps the samples before the bad one."""
    h = Histogram()
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.observe_each([2.0, -1.0, 3.0])
    assert h._log == [1.0]
    assert (h.snapshot().count, h.snapshot().total) == (1, 1.0)
