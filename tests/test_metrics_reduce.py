"""Record → reduce equals per-sample statistics on the closed-loop path.

``Histogram`` logs samples and folds them a chunk at a time;
``SimulatedDisk.submit_one`` logs one row per request in its bag and a
reducer does the accounting (docs/PERF.md, "Journal group commit").  These
tests hold both to the eager oracle vendored in
``tests/metrics_reference.py`` with ``==`` — float accumulators, histogram
``total``s and the types of the extrema included — and pin the
``Metrics.reset`` bugfix, the straight-line ``Journal.log_batch`` body and
the slots ``JournalRecord``.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.disk.disk as disk_mod
import repro.obs.histogram as histogram_mod
from repro.config import DiskParams, FSConfig
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.errors import MetadataError, SimulationError
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.meta.journal import Journal, JournalRecord
from repro.meta.mds import MetadataServer
from repro.obs.histogram import Histogram
from repro.sim.metrics import Metrics
from repro.workloads.service import ServiceTelemetry

from .metrics_reference import ReferenceDisk, ReferenceHistogram, ReferenceMetrics

CHUNKS = st.sampled_from([1, 7, 1_000_000])


@contextlib.contextmanager
def patched(module, name, value):
    """A module constant set for the length of a block (hypothesis re-runs
    the test body, so pytest's function-scoped monkeypatch will not do)."""
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

ints = st.integers(min_value=0, max_value=2**40)
floats = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
sample = st.one_of(ints, floats)
int_array = st.lists(ints, max_size=12).map(lambda v: np.array(v, dtype=np.int64))
float_array = st.lists(floats, max_size=12).map(lambda v: np.array(v, dtype=np.float64))

hist_step = st.one_of(
    st.tuples(st.just("observe"), sample),
    st.tuples(st.just("observe_array"), st.one_of(int_array, float_array)),
    st.tuples(st.just("absorb"), st.lists(sample, max_size=5)),
    st.tuples(st.sampled_from(
        ["snapshot", "count", "total", "reset", "pickle", "deepcopy"]
    ), st.none()),
)


def same_histogram(got, want) -> None:
    g, w = got.snapshot(), want.snapshot()
    assert g == w
    assert repr(g.total) == repr(w.total)
    assert (type(g.minimum), type(g.maximum)) == (type(w.minimum), type(w.maximum))


@settings(deadline=None, max_examples=200)
@given(steps=st.lists(hist_step, max_size=40), chunk=CHUNKS, direct=st.sampled_from([1, 5, 64]))
def test_histogram_equals_the_eager_oracle(steps, chunk, direct):
    with patched(histogram_mod, "LOG_CHUNK", chunk), patched(histogram_mod, "DIRECT_FROM", direct):
        got, want = Histogram(), ReferenceHistogram()
        for op, arg in steps:
            if op in ("observe", "observe_array"):
                getattr(got, op)(arg)
                getattr(want, op)(arg)
            elif op == "absorb":
                other = ReferenceHistogram()
                for v in arg:
                    other.observe(v)
                got.absorb(other.snapshot())
                want.absorb(other.snapshot())
            elif op == "snapshot":
                same_histogram(got, want)
            elif op == "count":
                assert got.snapshot().count == want.snapshot().count
            elif op == "total":
                assert repr(got.snapshot().total) == repr(want.snapshot().total)
            elif op == "reset":
                got.reset()
                want.reset()
            elif op == "pickle":
                got = pickle.loads(pickle.dumps(got, pickle.HIGHEST_PROTOCOL))
            else:
                clone = copy.deepcopy(got)
                clone.observe(1.0)  # the copy owns its log
                got = copy.deepcopy(got)
            # Never more than a chunk of samples waiting to be reduced.
            assert len(got._log) < chunk
        same_histogram(got, want)


def test_all_int_histogram_reports_int_extrema():
    h = Histogram()
    for v in (8, 1, 64):
        h.observe(v)
    h.observe_array(np.array([2, 128], dtype=np.int64))
    snap = h.snapshot()
    assert (snap.minimum, snap.maximum) == (1, 128)
    assert type(snap.minimum) is int and type(snap.maximum) is int


def test_first_extremal_sample_keeps_its_type():
    # 2 then 2.0: a strict per-sample comparison never replaces the int.
    got, want = Histogram(), ReferenceHistogram()
    for h in (got, want):
        h.observe(2)
        h.observe_array(np.array([2.0]))
    same_histogram(got, want)
    assert type(got.snapshot().minimum) is int


@pytest.mark.parametrize("chunk", [1, 7, 1_000_000])
def test_negative_sample_raises_at_the_call_and_logs_nothing(monkeypatch, chunk):
    monkeypatch.setattr(histogram_mod, "LOG_CHUNK", chunk)
    h = Histogram()
    for v in (1.0, 0, 3):
        h.observe(v)
    pending = list(h._log)
    with pytest.raises(ValueError):
        h.observe(-1e-9)
    with pytest.raises(ValueError):
        h.observe_array(np.array([1.0, -2.0, 3.0]))
    assert h._log == pending
    assert (h.snapshot().count, h.snapshot().total) == (3, 4.0)


def test_long_array_is_reduced_on_the_spot_after_the_log():
    got, want = Histogram(), ReferenceHistogram()
    short = np.linspace(0.0, 3.0, histogram_mod.DIRECT_FROM - 1)
    long = np.linspace(0.0, 3.0, histogram_mod.DIRECT_FROM)
    for h in (got, want):
        h.observe(0.1)
        h.observe_array(short)
    assert len(got._log) == histogram_mod.DIRECT_FROM
    for h in (got, want):
        h.observe_array(long)
        h.observe(0.2)
    assert got._log == [0.2]
    same_histogram(got, want)


# ---------------------------------------------------------------------------
# Disk request log: two disks, one bag
# ---------------------------------------------------------------------------

PARAMS = DiskParams(capacity_blocks=4096)

request = st.tuples(
    st.integers(min_value=0, max_value=4000),
    st.integers(min_value=1, max_value=64),
    st.booleans(),
)
disk_step = st.one_of(
    st.tuples(st.just("one"), st.integers(0, 1), request),
    st.tuples(st.just("batch"), st.integers(0, 1), st.lists(request, min_size=1, max_size=6)),
    st.tuples(st.just("arrays"), st.integers(0, 1), st.lists(request, min_size=1, max_size=6)),
    st.tuples(st.sampled_from(["count", "total", "snapshot", "since"]), st.none(), st.none()),
    st.tuples(st.just("inject"), st.integers(0, 1), st.none()),
)


def _pair(metrics, cls):
    return [cls(PARAMS, metrics=metrics, name=f"d{i}") for i in range(2)]


def _play(disks, metrics, steps):
    """Run ``steps``; returns everything a reader saw along the way."""
    seen = []
    mark = metrics.snapshot()
    for op, which, arg in steps:
        if op == "one":
            seen.append(disks[which].submit_one(*arg))
        elif op == "batch":
            seen.append(disks[which].submit_batch(
                [BlockRequest(s, n, is_write=w) for s, n, w in arg]
            ))
        elif op == "arrays":
            starts, nblocks, writes = zip(*arg)
            seen.append(disks[which].submit_arrays(
                np.array(starts, dtype=np.int64),
                np.array(nblocks, dtype=np.int64),
                np.array(writes, dtype=bool),
            ))
        elif op == "count":
            seen.append([metrics.count(k) for k in (
                "disk.requests", "disk.write_blocks", "scheduler.batches",
            )])
        elif op == "total":
            seen.append(repr(metrics.snapshot().total("disk.transfer_s")))
        elif op == "snapshot":
            mark = metrics.snapshot()
            seen.append(mark)
        elif op == "since":
            seen.append(metrics.since(mark))
        else:
            # No faults planned: an armed injector sends single requests
            # down as one-row batches instead of logging them.
            disks[which].attach_injector(FaultInjector(FaultPlan(seed=0)))
        seen.append([(d.head, repr(d.busy_s)) for d in disks])
    seen.append(metrics.snapshot())
    return seen


@settings(deadline=None, max_examples=200)
@given(steps=st.lists(disk_step, max_size=40), chunk=CHUNKS)
def test_two_disks_sharing_a_bag_equal_the_eager_oracle(steps, chunk):
    with patched(histogram_mod, "LOG_CHUNK", chunk), patched(disk_mod, "REQUEST_CHUNK", chunk):
        metrics = Metrics()
        got = _play(_pair(metrics, SimulatedDisk), metrics, steps)
        # Never more than a chunk of rows waiting to be reduced.
        assert len(metrics.deferred(disk_mod.reduce_request_rows)) < chunk
    reference = ReferenceMetrics()
    want = _play(_pair(reference, ReferenceDisk), reference, steps)
    assert got == want
    for name in ("disk.positioning_s", "disk.transfer_s"):
        assert repr(got[-1].total(name)) == repr(want[-1].total(name))


def test_rows_from_both_disks_fold_in_submission_order():
    # One log per *bag*: were there one per disk, d0's rows would all fold
    # before d1's, and for these sizes that moves disk.transfer_s in its
    # last digits (the service_open counter-example in docs/PERF.md).
    sizes = [1 + (i * i) % 61 for i in range(300)]
    metrics, reference = Metrics(), ReferenceMetrics()
    for bag, cls in ((metrics, SimulatedDisk), (reference, ReferenceDisk)):
        disks = _pair(bag, cls)
        for i, n in enumerate(sizes):
            disks[i % 2].submit_one((i * 37) % 4000, n, True)
    got, want = metrics.snapshot(), reference.snapshot()
    assert repr(got.total("disk.transfer_s")) == repr(want.total("disk.transfer_s"))
    assert got == want
    per_disk = 0.0
    for n in sizes[0::2] + sizes[1::2]:
        per_disk += disks[0].model.transfer_time(n)
    assert per_disk != want.total("disk.transfer_s")
    d0, d1 = _pair(metrics, SimulatedDisk)
    assert d0._rows is d1._rows is metrics.deferred(disk_mod.reduce_request_rows)


def test_submit_one_past_capacity_raises_before_anything_is_logged():
    disk = SimulatedDisk(PARAMS)
    disk.submit_one(10, 2, True)
    before = (list(disk._rows), disk.head, disk.busy_s)
    with pytest.raises(SimulationError):
        disk.submit_one(4090, 7, True)
    assert (list(disk._rows), disk.head, disk.busy_s) == before
    assert disk.metrics.count("disk.requests") == 1


def test_injector_attached_mid_sequence_flushes_the_log_first():
    disk = SimulatedDisk(PARAMS)
    disk.submit_one(10, 2, True)
    disk.submit_one(12, 2, True)
    assert len(disk._rows) == 2
    disk.attach_injector(FaultInjector(FaultPlan(seed=0)))
    disk.submit_one(100, 1, False)  # a one-row batch through the fault filter
    assert disk._rows == []
    assert disk.metrics.count("fault.requests") == 1
    assert disk.metrics.snapshot().histogram("disk.request_blocks").count == 3


def test_bag_with_pending_rows_survives_pickle_and_deepcopy():
    disk = SimulatedDisk(PARAMS)
    disk.submit_one(10, 2, True)
    for clone in (pickle.loads(pickle.dumps(disk)), copy.deepcopy(disk)):
        assert clone._rows is clone.metrics.deferred(disk_mod.reduce_request_rows)
        clone.submit_one(12, 3, False)
        assert clone.metrics.count("disk.requests") == 2
        assert clone.metrics.count("disk.read_blocks") == 3
    assert disk.metrics.count("disk.requests") == 1


def test_eagerly_bumped_counters_may_be_read_raw():
    # raw_counters() lags for disk.* / scheduler.* (the reducer commits
    # them); the one raw *reader* in src/, ServiceTelemetry, reads cache.*,
    # which the buffer cache bumps eagerly.
    mds = MetadataServer(FSConfig())
    telemetry = ServiceTelemetry(0.1)
    telemetry.track_cache(mds.metrics)
    raw = mds.metrics.raw_counters()
    assert telemetry._cache_counters is raw
    assert all(s.startswith("cache.") for s in ServiceTelemetry.CACHE_SERIES)
    d = mds.mkdir(mds.root, "d")
    mds.stat(mds.root, "d")
    mds.create(d, "f")  # ends in a commit write: a row, not a counter bump
    lagging = raw.get("disk.requests", 0)
    cache_raw = {s: raw.get(s, 0) for s in ServiceTelemetry.CACHE_SERIES}
    snap = mds.metrics.snapshot()
    assert lagging < snap.count("disk.requests")
    assert cache_raw == {s: snap.count(s) for s in ServiceTelemetry.CACHE_SERIES}
    assert snap.count("cache.hits") + snap.count("cache.misses") > 0


# ---------------------------------------------------------------------------
# Metrics.reset keeps handles live (latent at c306524)
# ---------------------------------------------------------------------------

def test_reset_keeps_histogram_handles_live():
    mds = MetadataServer(FSConfig())
    d = mds.mkdir(mds.root, "d")
    mds.create(d, "a")
    mds.metrics.reset()
    mds.create(d, "b")
    mds.create(d, "c")
    m = mds.metrics.snapshot()
    assert m.count("mds.op.create") == 2
    assert m.histogram("mds.op_latency_s").count == 2
    assert m.count("disk.requests") == m.histogram("disk.request_latency_s").count
    assert m.count("disk.requests") == m.histogram("disk.request_blocks").count


def test_reset_discards_pending_rows_and_samples():
    disk = SimulatedDisk(PARAMS)
    disk.submit_one(10, 2, True)
    disk.metrics.observe("side", 1.5)
    disk.metrics.reset()
    assert disk._rows == []
    assert disk.metrics.snapshot() == Metrics().snapshot()
    assert disk.metrics.snapshot().histogram_names() == []
    disk.submit_one(12, 2, True)
    assert disk.metrics.count("disk.requests") == 1
    assert disk.metrics.snapshot().histogram_names() == [
        "disk.request_blocks", "disk.request_latency_s",
    ]


# ---------------------------------------------------------------------------
# Journal: log_batch of one entry, slots JournalRecord
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class DataclassRecord:
    """``JournalRecord`` as the dataclass it was at c306524."""

    seq: int
    block: int
    dirties: tuple[int, ...]
    committed: bool = False


def _journal_state(j: Journal):
    return (j.head_block, j.records_written, j._seq, list(j._records))


@pytest.mark.parametrize("region", [1, 5])
def test_log_batch_of_one_entry_equals_log_at_every_head(region):
    for head in range(region):
        for nblocks in range(-1, region + 2):
            a, b = Journal(100, region), Journal(100, region)
            for j in (a, b):
                if head:
                    j.append(head)
            try:
                record, reqs = a.log([7, 9], nblocks)
                want = ([record], reqs, [(0, len(reqs))])
            except MetadataError as exc:
                want = str(exc)
            try:
                got = b.log_batch((([7, 9], nblocks),))
            except MetadataError as exc:
                got = str(exc)
            assert got == want, (head, nblocks)
            assert _journal_state(a) == _journal_state(b), (head, nblocks)


def test_slots_journal_record_matches_the_dataclass():
    j = Journal(10, 8)
    r0, _ = j.log([3, 4])
    r1, _ = j.log((5,), 2)
    j.commit(r1)
    assert j.pending_records() == [r0] and j.replay() == [r1]
    for r in (r0, r1):
        twin = DataclassRecord(r.seq, r.block, r.dirties, r.committed)
        assert repr(r) == repr(twin).replace("DataclassRecord", "JournalRecord")
        fields = dataclasses.astuple(twin)
        assert r == JournalRecord(*fields)
        assert r != JournalRecord(twin.seq + 1, *fields[1:])
        assert r != JournalRecord(*fields[:3], not twin.committed)
        assert r != fields
    assert JournalRecord(seq=1, block=2, dirties=(3,)) == JournalRecord(1, 2, (3,), False)
    with pytest.raises(TypeError):
        hash(r0)  # like a mutable dataclass
    with pytest.raises(AttributeError):
        r0.extra = 1
