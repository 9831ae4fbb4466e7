"""Property-based oracles for the batched metadata execution path.

Two contracts, each checked against its scalar twin on random inputs:

- ``BufferCache.read_batch`` over an arbitrary read list is the scalar
  ``read`` loop — same total disk seconds (exact bits), same LRU and
  readahead end state, same counters, same disk head and busy time.  The
  domain is kept small relative to the cache capacity so warm fast-path
  hits, evictions, frontier crossings and past-capacity fallbacks all
  occur.

- ``Journal.log_batch`` is per-record ``log``/``commit`` at *every* crash
  point: committing exactly the records whose commit writes completed
  before the crash yields the same replay set, and the written request
  stream is identical block for block.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheParams, DiskParams, SchedulerParams
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.meta.journal import Journal

CAPACITY = 192


def make_cache(capacity=48):
    disk = SimulatedDisk(DiskParams(capacity_blocks=CAPACITY), SchedulerParams())
    cache = BufferCache(
        CacheParams(
            capacity_blocks=capacity,
            readahead_init_blocks=4,
            readahead_max_blocks=16,
        ),
        disk,
    )
    return cache, disk


read_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=CAPACITY - 1),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=1,
    max_size=40,
)


@given(read_lists)
@settings(max_examples=200, deadline=None)
def test_read_batch_is_the_scalar_read_loop(reads):
    c1, d1 = make_cache()
    c2, d2 = make_cache()
    t1 = c1.read_batch(reads)
    t2 = 0.0
    for start, nblocks in reads:
        t2 += c2.read(start, nblocks)
    assert t1 == t2
    assert list(c1._lru) == list(c2._lru)
    assert list(c1._ra.items()) == list(c2._ra.items())
    assert d1.metrics.snapshot().counters == d2.metrics.snapshot().counters
    assert d1.head == d2.head
    assert d1.busy_s == d2.busy_s


@given(read_lists, read_lists)
@settings(max_examples=100, deadline=None)
def test_consecutive_batches_compose(first, second):
    """A batch boundary changes nothing: two batches equal one
    concatenated batch equal the scalar loop."""
    c1, d1 = make_cache()
    c2, d2 = make_cache()
    c1.read_batch(first)
    c1.read_batch(second)
    for start, nblocks in first + second:
        c2.read(start, nblocks)
    assert list(c1._lru) == list(c2._lru)
    assert list(c1._ra.items()) == list(c2._ra.items())
    assert d1.busy_s == d2.busy_s


journal_entries = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=500), max_size=4),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=8,
)


@given(journal_entries, st.integers(min_value=4, max_value=9))
@settings(max_examples=200, deadline=None)
def test_log_batch_matches_per_record_log(entries, region):
    """Full completion: records, request stream and spans line up with a
    per-record log/commit sequence, including circular wrap-around."""
    jb = Journal(base_block=1, nblocks=region)
    js = Journal(base_block=1, nblocks=region)
    records, requests, spans = jb.log_batch(
        [(tuple(d), n) for d, n in entries]
    )
    scalar_requests = []
    for i, (dirties, nblocks) in enumerate(entries):
        record, reqs = js.log(tuple(dirties), nblocks)
        js.commit(record)
        lo, hi = spans[i]
        assert requests[lo:hi] == reqs
        assert (records[i].seq, records[i].block) == (record.seq, record.block)
        scalar_requests.extend(reqs)
        jb.commit(records[i])
    assert requests == scalar_requests
    assert jb.head_block == js.head_block
    assert jb.records_written == js.records_written
    assert [(r.seq, r.dirties) for r in jb.replay()] == [
        (r.seq, r.dirties) for r in js.replay()
    ]


@given(journal_entries, st.data())
@settings(max_examples=200, deadline=None)
def test_log_batch_replay_equal_at_every_crash_point(entries, data):
    """Crash after K commit writes: the group-commit journal replays exactly
    what the per-record journal would — completed records and nothing else."""
    entries = [(tuple(d), n) for d, n in entries]
    jb = Journal(base_block=1, nblocks=16)
    records, requests, spans = jb.log_batch(entries)
    crash_at = data.draw(
        st.integers(min_value=0, max_value=len(requests)), label="crash_at"
    )
    # Batched caller: acknowledge records whose whole span hit the platter.
    for record, (lo, hi) in zip(records, spans):
        if hi <= crash_at:
            jb.commit(record)

    # Scalar oracle: operations run one at a time; the op whose commit
    # write crashes stays uncommitted and nothing after it ever runs.
    js = Journal(base_block=1, nblocks=16)
    written = 0
    for dirties, nblocks in entries:
        record, reqs = js.log(dirties, nblocks)
        if written + len(reqs) <= crash_at:
            written += len(reqs)
            js.commit(record)
        else:
            break

    assert [(r.seq, r.block, r.dirties) for r in jb.replay()] == [
        (r.seq, r.block, r.dirties) for r in js.replay()
    ]
    # Torn/unreached records are discarded by truncation on both sides.
    jb.truncate()
    js.truncate()
    assert jb.replay() == js.replay() == []
