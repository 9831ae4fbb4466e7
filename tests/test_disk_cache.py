"""Buffer cache: hit/miss accounting, LRU eviction, readahead growth."""

import pytest

from repro.config import CacheParams, DiskParams, SchedulerParams
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.errors import ConfigError, SimulationError
from repro.fs.profiles import redbud_mif_profile
from repro.meta.mds import MetadataServer


def make_cache(capacity=64, ra_init=4, ra_max=32):
    disk = SimulatedDisk(DiskParams(capacity_blocks=1 << 16), SchedulerParams())
    cache = BufferCache(
        CacheParams(
            capacity_blocks=capacity,
            readahead_init_blocks=ra_init,
            readahead_max_blocks=ra_max,
        ),
        disk,
    )
    return cache, disk


class TestCaching:
    def test_first_read_misses(self):
        cache, _ = make_cache()
        cache.read(10, 1)
        assert cache.metrics.count("cache.misses") == 1

    def test_repeat_read_hits(self):
        cache, disk = make_cache()
        cache.read(10, 1)
        before = disk.metrics.count("disk.requests")
        t = cache.read(10, 1)
        assert t == 0.0
        assert disk.metrics.count("disk.requests") == before
        assert cache.metrics.count("cache.hits") >= 1

    def test_write_populates_cache(self):
        cache, disk = make_cache()
        cache.write(5, 2)
        before = disk.metrics.count("disk.requests")
        cache.read(5, 2)
        assert disk.metrics.count("disk.requests") == before

    def test_sync_write_goes_to_disk(self):
        cache, disk = make_cache()
        cache.write(5, 2, sync=True)
        assert disk.metrics.count("disk.write_requests") == 1

    def test_async_write_stays_in_cache(self):
        cache, disk = make_cache()
        cache.write(5, 2, sync=False)
        assert disk.metrics.count("disk.write_requests") == 0
        assert cache.metrics.count("cache.delayed_writes") == 1

    def test_lru_eviction(self):
        cache, _ = make_cache(capacity=4)
        cache.read(0, 1)
        for b in range(100, 104):
            cache.read(b, 1)
        assert 0 not in cache
        assert cache.metrics.count("cache.evictions") >= 1

    def test_invalidate(self):
        cache, _ = make_cache()
        cache.read(10, 2)
        cache.invalidate(10, 2)
        assert 10 not in cache
        assert 11 not in cache

    def test_drop(self):
        cache, _ = make_cache()
        cache.read(10, 2)
        cache.drop()
        assert len(cache) == 0

    def test_zero_blocks_rejected(self):
        cache, _ = make_cache()
        with pytest.raises(SimulationError):
            cache.read(0, 0)
        with pytest.raises(SimulationError):
            cache.write(0, 0)


class TestReadahead:
    def test_sequential_single_block_reads_trigger_prefetch(self):
        cache, disk = make_cache(capacity=256, ra_init=4, ra_max=32)
        # A long run of sequential 1-block reads should need far fewer disk
        # requests than blocks read.
        for b in range(64):
            cache.read(b, 1)
        assert disk.metrics.count("disk.requests") < 20
        assert cache.metrics.count("cache.readahead_hits") >= 1

    def test_window_growth_reduces_requests_for_longer_runs(self):
        cache1, disk1 = make_cache(capacity=4096, ra_max=32)
        for b in range(32):
            cache1.read(b, 1)
        short_reqs = disk1.metrics.count("disk.requests")
        cache2, disk2 = make_cache(capacity=4096, ra_max=32)
        for b in range(256):
            cache2.read(b, 1)
        long_reqs = disk2.metrics.count("disk.requests")
        # 8x the blocks must not cost 8x the requests (window doubled).
        assert long_reqs < 8 * short_reqs

    def test_interleaved_streams_each_get_a_context(self):
        cache, disk = make_cache(capacity=4096)
        # Two interleaved sequential streams (dentry blocks at 0+, itable
        # blocks at 1000+) like a readdirplus.
        for i in range(32):
            cache.read(i, 1)
            cache.read(1000 + i, 1)
        # With per-stream contexts both streams prefetch: far fewer than 64.
        assert disk.metrics.count("disk.requests") < 32

    def test_random_reads_do_not_prefetch(self):
        cache, disk = make_cache(capacity=4096)
        for b in (5000, 100, 9000, 42, 7777):
            cache.read(b, 1)
        assert disk.metrics.count("disk.blocks") == 5

    def test_more_streams_than_contexts_thrash_the_table(self):
        # 8 interleaved streams against the default 4 contexts: every
        # context is evicted before its stream returns, so no read ever
        # crosses a frontier.
        cache, _ = make_cache(capacity=4096)
        for i in range(24):
            for s in range(8):
                cache.read(s * 4096 + i, 1)
        assert cache.metrics.count("cache.readahead_hits") == 0
        assert cache.metrics.count("cache.hits") == 0

    def test_ra_contexts_field_bounds_the_table(self):
        disk = SimulatedDisk(DiskParams(capacity_blocks=1 << 16), SchedulerParams())
        cache = BufferCache(CacheParams(ra_contexts=2), disk)
        for base in (0, 1000, 2000):
            cache.read(base, 2)
        assert len(cache._ra) == 2

    def test_ra_contexts_must_be_positive(self):
        with pytest.raises(ConfigError):
            CacheParams(ra_contexts=0)


class TestPrefetchRuns:
    def test_prefetch_runs_is_batched_and_unbilled(self):
        cache, disk = make_cache(capacity=256)
        before = disk.metrics.count("disk.read_requests")
        assert cache.prefetch_runs([(0, 8), (20, 4)]) == 0.0
        assert disk.metrics.count("disk.read_requests") > before
        assert cache.metrics.count("cache.dir_prefetches") == 1
        assert cache.metrics.count("cache.prefetch_issued_blocks") == 12
        assert cache.metrics.snapshot().total("cache.unbilled_prefetch_s") > 0.0
        assert all(b in cache for b in [*range(8), *range(20, 24)])

    def test_resident_blocks_are_not_refetched(self):
        cache, disk = make_cache(capacity=256)
        cache.prefetch_runs([(0, 8)])
        before = disk.metrics.count("disk.read_requests")
        cache.prefetch_runs([(0, 8)])  # fully resident: nothing to do
        assert disk.metrics.count("disk.read_requests") == before
        assert cache.metrics.count("cache.dir_prefetches") == 1
        assert cache.metrics.count("cache.prefetch_issued_blocks") == 8

    def test_mds_does_not_prefetch(self):
        mds = MetadataServer(redbud_mif_profile())
        d = mds.mkdir(mds.root, "d")
        for i in range(40):
            mds.create(d, f"f{i:03d}")
        mds.drop_caches()
        mds.readdir_stat(d)
        assert mds.metrics.count("cache.dir_prefetches") == 0


class TestBillingOnCachedReads:
    """Fully cache-resident reads must cost zero simulated time even when
    they cross a stale readahead frontier: the synchronous prefetch the
    frontier triggers is still issued, but its disk time belongs to the
    background, not to the read that never touched the disk."""

    def test_hypothesis_pinned_example(self):
        # Minimal falsifying example found by test_cache_read_your_reads:
        # (485, 2) crosses the frontier left at 485 by the first read's
        # prefetch, then (482, 3) re-reads resident blocks across it.
        cache, _ = make_cache(capacity=65536, ra_init=4, ra_max=32)
        for start, n in [(478, 2), (485, 2), (425, 1), (482, 3)]:
            cache.read(start, n)
            for b in range(start, start + n):
                assert b in cache
            assert cache.read(start, n) == 0.0

    def test_prefetch_still_issued_but_unbilled(self):
        cache, disk = make_cache(capacity=65536, ra_init=4, ra_max=32)
        cache.read(478, 2)  # leaves a frontier past 480
        frontier = next(iter(cache._ra))
        for b in range(480, frontier + 1):
            cache.write(b, 1)  # make the frontier read fully resident
        before = disk.metrics.count("disk.read_requests")
        elapsed = cache.read(frontier - 1, 2)  # crosses the frontier
        assert elapsed == 0.0  # resident read: free...
        assert disk.metrics.count("disk.read_requests") > before  # ...but prefetched
        assert cache.metrics.count("cache.prefetch_only_reads") == 1
        assert cache.metrics.snapshot().total("cache.unbilled_prefetch_s") > 0.0

    def test_partial_miss_still_billed(self):
        cache, _ = make_cache()
        cache.write(100, 1)  # resident, but no readahead frontier
        assert cache.read(100, 2) > 0.0  # block 101 is a real miss


class TestInvalidateReadahead:
    def test_invalidate_drops_context_into_region(self):
        cache, _ = make_cache(ra_init=4, ra_max=32)
        cache.read(10, 2)  # prefetches and leaves a frontier near 16
        assert cache._ra
        frontier = next(iter(cache._ra))
        cache.invalidate(frontier - 1, 4)
        assert frontier not in cache._ra
        assert cache.metrics.count("cache.ra_invalidated") >= 1

    def test_invalidate_far_region_keeps_context(self):
        cache, _ = make_cache(ra_init=4, ra_max=32)
        cache.read(10, 2)
        assert cache._ra
        cache.invalidate(5000, 4)
        assert cache._ra  # unrelated context survives

    def test_invalidated_frontier_does_not_leak_billing(self):
        # After invalidation, re-reading near the old frontier re-misses and
        # is billed (the context is gone, so no frontier crossing applies).
        cache, disk = make_cache(ra_init=4, ra_max=32)
        cache.read(10, 2)
        frontier = next(iter(cache._ra))
        cache.invalidate(10, frontier + 8 - 10)
        assert cache.read(frontier, 1) > 0.0
        assert disk.metrics.count("disk.read_requests") >= 2

    def test_invalidate_below_frontier_keeps_context(self):
        # Invalidating a region wholly *below* the frontier must not drop
        # the context: the prediction target still exists.  (Regression:
        # the stale rule used to drop any context within readahead slack
        # of the region, not just frontiers inside it.)
        cache, _ = make_cache(capacity=65536, ra_init=4, ra_max=32)
        cache.read(478, 2)
        frontier = next(iter(cache._ra))
        cache.invalidate(470, frontier - 470 - 1)  # stops short of frontier
        assert frontier in cache._ra

    def test_surviving_context_keeps_warm_read_billing(self):
        # The surviving context preserves the prefetch-without-billing
        # behaviour: a fully-resident read crossing its frontier is free
        # but still issues the prefetch to disk.
        cache, disk = make_cache(capacity=65536, ra_init=4, ra_max=32)
        cache.read(478, 2)
        frontier = next(iter(cache._ra))
        cache.invalidate(470, 8)  # [470, 478): below the data and frontier
        assert frontier in cache._ra
        for b in range(480, frontier + 1):
            cache.write(b, 1)  # make the frontier read fully resident
        before = disk.metrics.count("disk.read_requests")
        assert cache.read(frontier - 1, 2) == 0.0  # warm read stays free
        assert disk.metrics.count("disk.read_requests") > before
        assert cache.metrics.count("cache.prefetch_only_reads") == 1
