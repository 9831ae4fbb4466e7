"""Property-based tests for the disk layer.

Scheduler invariant: arranging a batch may reorder and merge requests but
must preserve *coverage* — every requested block is transferred, reads and
writes never merge into each other, and merges only bridge bounded gaps.

Cache invariant: data the caller asked to read is resident afterwards
(capacity permitting), so an immediate re-read costs no disk time.

Checkpoint batch: ``SimulatedDisk.submit_sorted_writes`` (the scalar body
for ascending one-block writes) equals ``submit_arrays`` on the same
blocks, with ``==`` on everything a reader can see.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheParams, DiskParams, SchedulerParams
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.disk.scheduler import ElevatorScheduler, FifoScheduler
from repro.errors import SimulationError
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.obs.trace import Tracer
from repro.sim.metrics import Metrics

CAPACITY = 1 << 14


@st.composite
def request_batches(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    out = []
    for _ in range(n):
        start = draw(st.integers(min_value=0, max_value=CAPACITY - 64))
        nblocks = draw(st.integers(min_value=1, max_value=32))
        is_write = draw(st.booleans())
        out.append(BlockRequest(start, nblocks, is_write))
    return out


def blocks_of(requests, writes: bool):
    out = set()
    for r in requests:
        if r.is_write == writes:
            out |= set(range(r.start, r.end))
    return out


@given(request_batches(), st.integers(min_value=0, max_value=64))
@settings(max_examples=150)
def test_elevator_preserves_coverage(batch, gap):
    sched = ElevatorScheduler(SchedulerParams(merge_gap_blocks=gap))
    arranged = sched.arrange(batch)
    # Every requested block is covered, kind-separated (skip-transfer may
    # cover extra blocks, but only *between* same-kind requests).
    for writes in (True, False):
        assert blocks_of(batch, writes) <= blocks_of(arranged, writes)


@given(request_batches())
@settings(max_examples=100)
def test_fifo_preserves_order_and_coverage(batch):
    sched = FifoScheduler(SchedulerParams(kind="fifo", merge_gap_blocks=0))
    arranged = sched.arrange(batch)
    for writes in (True, False):
        assert blocks_of(batch, writes) == blocks_of(arranged, writes)
    # Zero-gap merging never grows the request count.
    assert len(arranged) <= len(batch)


@given(request_batches(), st.integers(min_value=1, max_value=16))
@settings(max_examples=100)
def test_elevator_matches_independent_oracle(batch, limit):
    """arrange() == per-window sort + adjacent merge, computed here by an
    independent (naive) oracle.

    (A tempting stronger property — "sorted service time <= FIFO service
    time" — is *false*: seek cost is concave in distance, so an unequal
    split of the same total travel can cost less than the elevator's even
    sweep.  hypothesis found the counterexample.)"""
    sched = ElevatorScheduler(SchedulerParams(merge_gap_blocks=0, batch_limit=limit))
    arranged = sched.arrange(batch)

    expected: list[tuple[int, int, bool]] = []
    for i in range(0, len(batch), limit):
        window = sorted(batch[i : i + limit], key=lambda r: (r.start, r.nblocks))
        window_out: list[tuple[int, int, bool]] = []
        for r in window:
            if (
                window_out
                and window_out[-1][2] == r.is_write
                and window_out[-1][0] + window_out[-1][1] == r.start
            ):
                s, n, w = window_out[-1]
                window_out[-1] = (s, n + r.nblocks, w)
            else:
                window_out.append((r.start, r.nblocks, r.is_write))
        expected.extend(window_out)
    assert [(r.start, r.nblocks, r.is_write) for r in arranged] == expected


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2000),
            st.integers(min_value=1, max_value=16),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100)
def test_cache_read_your_reads(reads):
    disk = SimulatedDisk(DiskParams(capacity_blocks=CAPACITY), SchedulerParams())
    cache = BufferCache(
        CacheParams(capacity_blocks=65536, readahead_max_blocks=32), disk
    )
    for start, n in reads:
        cache.read(start, n)
        # Everything just requested is resident...
        for b in range(start, start + n):
            assert b in cache
        # ...so the immediate re-read is free.
        assert cache.read(start, n) == 0.0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=1, max_value=8),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100)
def test_cache_write_then_read_is_free(ops):
    disk = SimulatedDisk(DiskParams(capacity_blocks=CAPACITY), SchedulerParams())
    cache = BufferCache(
        CacheParams(capacity_blocks=65536, readahead_max_blocks=32), disk
    )
    written: set[int] = set()
    for start, n, sync in ops:
        cache.write(start, n, sync=sync)
        written |= set(range(start, start + n))
    before = disk.metrics.count("disk.read_requests")
    for b in sorted(written):
        cache.read(b, 1)
    assert disk.metrics.count("disk.read_requests") == before


# -- the checkpoint's batch == submit_arrays on the same blocks --------------


def _twins(kind="elevator", limit=512, gap=128, header=0.0, traced=True):
    """Two identical disks, each on its own bag and tracer."""
    return [
        SimulatedDisk(
            DiskParams(capacity_blocks=CAPACITY, request_header_s=header),
            SchedulerParams(kind=kind, merge_gap_blocks=gap, batch_limit=limit),
            Metrics(),
            tracer=Tracer() if traced else None,
        )
        for _ in range(2)
    ]


def _as_columns(disk, blocks):
    n = len(blocks)
    return disk.submit_arrays(
        np.array(blocks, dtype=np.int64), np.ones(n, dtype=np.int64), True
    )


def _seen(disk):
    """Everything a reader of ``disk`` can see, floats by ``repr``."""
    snap = disk.metrics.snapshot()
    return (
        repr(disk.busy_s), disk.head, snap,
        {k: repr(v) for k, v in snap.accumulators.items()},
        {
            k: (repr(h.total), type(h.minimum), type(h.maximum))
            for k, h in snap.histograms.items()
        },
        disk.tracer.rows(),
    )


# Clustered blocks merge (gap 0, 1 or 200 bridges them); far ones do not.
sorted_blocks = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=CAPACITY - 1),
    ),
    max_size=40,
    unique=True,
).map(sorted)


@given(
    blocks=sorted_blocks,
    kind=st.sampled_from(["elevator", "fifo"]),
    limit=st.integers(min_value=1, max_value=8),
    gap=st.sampled_from([0, 1, 200]),
    header=st.sampled_from([0.0, 2.5e-4]),
    traced=st.booleans(),
    pending=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=CAPACITY - 64),
            st.integers(min_value=1, max_value=32),
            st.booleans(),
        ),
        max_size=4,
    ),
)
@settings(max_examples=300, deadline=None)
def test_sorted_writes_equal_submit_arrays(
    blocks, kind, limit, gap, header, traced, pending
):
    got, want = _twins(kind, limit, gap, header, traced)
    for disk in (got, want):
        # Logged submit_one rows are reduced before the batch's own books.
        for start, nblocks, is_write in pending:
            disk.submit_one(start, nblocks, is_write)
    assert repr(got.submit_sorted_writes(list(blocks))) == repr(
        _as_columns(want, blocks)
    )
    assert _seen(got) == _seen(want)


def test_a_block_at_capacity_raises_and_changes_nothing():
    got, want = _twins()
    blocks = [3, 9, CAPACITY, CAPACITY + 5]
    before = _seen(got)
    with pytest.raises(SimulationError) as raised:
        got.submit_sorted_writes(blocks)
    with pytest.raises(SimulationError) as expected:
        _as_columns(want, blocks)
    assert str(raised.value) == str(expected.value)
    assert f"[{CAPACITY}, {CAPACITY + 1})" in str(raised.value)
    assert _seen(got) == _seen(want) == before
    got.submit_sorted_writes([3, CAPACITY - 1])  # the last block fits


def test_with_an_injector_attached_the_batch_takes_submit_arrays():
    got, want = _twins(gap=1)
    for disk in (got, want):
        # Tear every multi-block write and crash at the third request.
        disk.attach_injector(
            FaultInjector(FaultPlan(seed=0, torn_every=1, crash_after_requests=2))
        )
    calls = []
    column_path = got.submit_arrays
    got.submit_arrays = lambda *columns: calls.append(columns) or column_path(*columns)
    blocks = [10, 11, 12, 500, 502, 900, 4000]
    outcomes = []
    for submit in (got.submit_sorted_writes, lambda b: _as_columns(want, b)):
        try:
            outcomes.append(submit(blocks))
        except Exception as fault:  # the injected crash
            outcomes.append(repr(fault))
    assert len(calls) == 1
    assert outcomes[0] == outcomes[1]
    assert "crash" in outcomes[0]
    assert got.torn_writes == want.torn_writes == 2
    assert _seen(got) == _seen(want)
    assert [r[3][:2] for r in got.tracer.rows()].count(("fault", "torn_write")) == 2
