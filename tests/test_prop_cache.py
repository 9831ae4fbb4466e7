"""Property oracle: the buffer cache equals a straight-line reference cache.

:class:`BufferCache` (docs/CACHE.md) must match the reference
block-for-block in cache state, billing-for-billing in disk time and
counter-for-counter in metrics, under arbitrary interleavings of ``read``
/ ``insert_blocks`` / ``invalidate`` / ``write`` / ``read_batch`` —
including ``read_batch``'s resident-hit fast path crossing the other
mutations.

The oracle is a straight-line reimplementation of the cache's semantics
(flat LRU + fixed readahead-context table, scalar reads only, the fixed
frontier-in-region invalidation rule) kept deliberately free of fast
paths, so any behavioural drift in the production class shows up as a
state or billing divergence here.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheParams, DiskParams, SchedulerParams
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest

CAPACITY = 192


class ReferenceCache:
    """The BufferCache semantics, scalar-only and fast-path-free."""

    def __init__(self, params: CacheParams, disk: SimulatedDisk) -> None:
        self.params = params
        self.disk = disk
        self.metrics = disk.metrics
        self.lru: OrderedDict[int, None] = OrderedDict()
        self.ra: OrderedDict[int, int] = OrderedDict()

    def insert(self, start: int, nblocks: int) -> None:
        if self.params.capacity_blocks == 0:
            return
        for b in range(start, start + nblocks):
            if b in self.lru:
                self.lru.move_to_end(b)
            else:
                self.lru[b] = None
        while len(self.lru) > self.params.capacity_blocks:
            self.lru.popitem(last=False)
            self.metrics.incr("cache.evictions")

    def invalidate(self, start: int, nblocks: int) -> None:
        end = start + nblocks
        for b in range(start, end):
            self.lru.pop(b, None)
        stale = [k for k in self.ra if start <= k < end]
        for k in stale:
            del self.ra[k]
        if stale:
            self.metrics.incr("cache.ra_invalidated", len(stale))

    def write(self, start: int, nblocks: int, sync: bool = True) -> float:
        self.insert(start, nblocks)
        if sync:
            return self.disk.submit_one(start, nblocks, True)
        self.metrics.incr("cache.delayed_writes")
        return 0.0

    def read(self, start: int, nblocks: int) -> float:
        slack = 2 * self.params.readahead_max_blocks
        ctx_key = next((k for k in self.ra if k - slack <= start <= k), None)
        prefetch = 0
        if ctx_key is not None:
            window = self.ra[ctx_key]
            if start + nblocks > ctx_key:
                window = min(window * 2, self.params.readahead_max_blocks)
                prefetch = window
                del self.ra[ctx_key]
                self.ra[start + nblocks + prefetch] = window
                self.metrics.incr("cache.readahead_hits")
            else:
                self.ra.move_to_end(ctx_key)
        else:
            req_end = min(start + nblocks, self.disk.capacity_blocks)
            if any(b not in self.lru for b in range(start, req_end)):
                window = self.params.readahead_init_blocks
                prefetch = window if nblocks > 1 else 0
                self.ra[start + nblocks + prefetch] = window
        while len(self.ra) > self.params.ra_contexts:
            self.ra.popitem(last=False)

        want = nblocks + prefetch
        misses: list[BlockRequest] = []
        requested_miss = False
        run_start = -1
        for b in range(start, start + want):
            if b >= self.disk.capacity_blocks:
                break
            if b in self.lru:
                self.metrics.incr(
                    "cache.hits" if b < start + nblocks else "cache.ra_cached"
                )
                self.lru.move_to_end(b)
                if run_start >= 0:
                    misses.append(BlockRequest(run_start, b - run_start, is_write=False))
                    run_start = -1
            else:
                if b < start + nblocks:
                    self.metrics.incr("cache.misses")
                    requested_miss = True
                if run_start < 0:
                    run_start = b
        if run_start >= 0:
            end = min(start + want, self.disk.capacity_blocks)
            misses.append(BlockRequest(run_start, end - run_start, is_write=False))
        if not misses:
            return 0.0
        elapsed = self.disk.submit_batch(misses)
        for req in misses:
            self.insert(req.start, req.nblocks)
        if not requested_miss:
            self.metrics.incr("cache.prefetch_only_reads")
            self.metrics.add("cache.unbilled_prefetch_s", elapsed)
            return 0.0
        self.metrics.observe("cache.read_latency_s", elapsed)
        return elapsed


def make_pair(capacity=48):
    d1 = SimulatedDisk(DiskParams(capacity_blocks=CAPACITY), SchedulerParams())
    d2 = SimulatedDisk(DiskParams(capacity_blocks=CAPACITY), SchedulerParams())
    params = CacheParams(
        capacity_blocks=capacity,
        readahead_init_blocks=4,
        readahead_max_blocks=16,
    )
    return BufferCache(params, d1), d1, ReferenceCache(params, d2), d2


starts = st.integers(min_value=0, max_value=CAPACITY - 1)
lengths = st.integers(min_value=1, max_value=12)
runs = st.tuples(starts, lengths)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), runs),
        st.tuples(st.just("read_batch"), st.lists(runs, min_size=1, max_size=10)),
        st.tuples(st.just("insert"), st.lists(starts, min_size=1, max_size=12)),
        st.tuples(st.just("invalidate"), runs),
        st.tuples(st.just("write"), st.tuples(runs, st.booleans())),
    ),
    min_size=1,
    max_size=30,
)


@given(ops)
@settings(max_examples=200, deadline=None)
def test_cache_is_the_reference_cache(sequence):
    cache, d1, ref, d2 = make_pair()
    billed: list[float] = []
    ref_billed: list[float] = []
    for kind, arg in sequence:
        if kind == "read":
            billed.append(cache.read(*arg))
            ref_billed.append(ref.read(*arg))
        elif kind == "read_batch":
            billed.append(cache.read_batch(arg))
            batch = 0.0  # same summation order as the batch's internal loop
            for start, nblocks in arg:
                batch += ref.read(start, nblocks)
            ref_billed.append(batch)
        elif kind == "insert":
            cache.insert_blocks(arg)
            for b in arg:
                ref.insert(b, 1)
        elif kind == "invalidate":
            cache.invalidate(*arg)
            ref.invalidate(*arg)
        else:  # write
            (start, nblocks), sync = arg
            nblocks = min(nblocks, CAPACITY - start)  # writes must fit the disk
            billed.append(cache.write(start, nblocks, sync=sync))
            ref_billed.append(ref.write(start, nblocks, sync=sync))
    assert billed == ref_billed  # exact bits, op for op
    assert list(cache._lru) == list(ref.lru)
    assert list(cache._ra.items()) == list(ref.ra.items())
    assert dict(d1.metrics.raw_counters()) == dict(d2.metrics.raw_counters())
    assert d1.metrics.snapshot().total("cache.unbilled_prefetch_s") == \
        d2.metrics.snapshot().total("cache.unbilled_prefetch_s")
    assert d1.head == d2.head
    assert d1.busy_s == d2.busy_s
