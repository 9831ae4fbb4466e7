"""Fault injection beneath the disk: plans, LSEs, torn writes, crashes."""

import pytest

from repro.config import CacheParams, DiskParams, SchedulerParams
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.errors import ConfigError, CrashError, LatentSectorError
from repro.fault import FaultInjector, FaultPlan


def make_disk() -> SimulatedDisk:
    return SimulatedDisk(DiskParams(capacity_blocks=1 << 14), SchedulerParams())


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, 1 << 14)
        b = FaultPlan.seeded(7, 1 << 14)
        assert a == b

    def test_different_seeds_differ(self):
        assert FaultPlan.seeded(1, 1 << 14) != FaultPlan.seeded(2, 1 << 14)

    def test_crash_window_none_disables_crash(self):
        plan = FaultPlan.seeded(0, 1 << 14, crash_window=None)
        assert plan.crash_after_requests is None

    def test_crash_point_within_window(self):
        plan = FaultPlan.seeded(0, 1 << 14, crash_window=(10, 60))
        assert 10 <= plan.crash_after_requests < 60

    def test_lse_blocks_flattens_ranges(self):
        plan = FaultPlan(seed=0, lse_ranges=((5, 2), (100, 1)))
        assert plan.lse_blocks() == {5, 6, 100}

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(seed=0, torn_every=-1)
        with pytest.raises(ConfigError):
            FaultPlan(seed=0, crash_after_requests=-5)
        with pytest.raises(ConfigError):
            FaultPlan(seed=0, lse_ranges=((-1, 2),))


class TestLatentSectorErrors:
    def test_read_of_bad_block_raises(self):
        disk = make_disk()
        disk.attach_injector(FaultInjector(FaultPlan(seed=0, lse_ranges=((50, 2),))))
        with pytest.raises(LatentSectorError):
            disk.submit_one(49, 4, False)

    def test_read_elsewhere_succeeds(self):
        disk = make_disk()
        disk.attach_injector(FaultInjector(FaultPlan(seed=0, lse_ranges=((50, 2),))))
        assert disk.submit_one(200, 4, False) > 0.0

    def test_write_heals(self):
        disk = make_disk()
        inj = FaultInjector(FaultPlan(seed=0, lse_ranges=((50, 2),)))
        disk.attach_injector(inj)
        disk.submit_one(50, 2, True)
        assert inj.bad_blocks == frozenset()
        assert disk.submit_one(50, 2, False) > 0.0

    def test_develop_lse_after_write(self):
        disk = make_disk()
        inj = FaultInjector(FaultPlan(seed=0))
        disk.attach_injector(inj)
        disk.submit_one(10, 4, True)
        assert inj.written == {10, 11, 12, 13}
        assert inj.develop_lse({11}) == 1
        with pytest.raises(LatentSectorError):
            disk.submit_one(10, 4, False)

    def test_partial_batch_still_bills_serviced_requests(self):
        disk = make_disk()
        disk.attach_injector(FaultInjector(FaultPlan(seed=0, lse_ranges=((500, 1),))))
        busy_before = disk.busy_s
        with pytest.raises(LatentSectorError):
            # FIFO order within the arranged batch is not guaranteed, but at
            # least the requests serviced before the bad one must be billed.
            disk.submit_batch([BlockRequest(10, 2), BlockRequest(500, 1)])
        assert disk.busy_s > busy_before


class TestTornWrites:
    def test_every_nth_multiblock_write_is_torn(self):
        disk = make_disk()
        inj = FaultInjector(FaultPlan(seed=0, torn_every=2))
        disk.attach_injector(inj)
        for i in range(4):
            disk.submit_one(i * 100, 8, True)
        assert inj.torn_writes == 2
        assert disk.metrics.count("fault.torn_writes") == 2

    def test_single_block_writes_are_atomic(self):
        disk = make_disk()
        inj = FaultInjector(FaultPlan(seed=0, torn_every=1))
        disk.attach_injector(inj)
        for i in range(5):
            disk.submit_one(i * 10, 1, True)
        assert inj.torn_writes == 0

    def test_torn_write_persists_strict_prefix(self):
        disk = make_disk()
        inj = FaultInjector(FaultPlan(seed=0, torn_every=1))
        disk.attach_injector(inj)
        disk.submit_one(0, 8, True)
        assert inj.written == set(range(0, 4))  # half persisted


class TestCrashPoints:
    def test_crash_fires_at_the_configured_request(self):
        disk = make_disk()
        inj = FaultInjector(FaultPlan(seed=0, crash_after_requests=3))
        disk.attach_injector(inj)
        for i in range(3):
            disk.submit_one(i * 10, 1, False)
        with pytest.raises(CrashError):
            disk.submit_one(100, 1, False)
        assert inj.crashes == 1

    def test_crash_disarms_injector(self):
        disk = make_disk()
        inj = FaultInjector(FaultPlan(seed=0, crash_after_requests=0))
        disk.attach_injector(inj)
        with pytest.raises(CrashError):
            disk.submit_one(0, 1, False)
        # Recovery runs against a quiet disk: no re-crash.
        assert disk.submit_one(0, 1, False) > 0.0

    def test_disarmed_injector_counts_nothing(self):
        disk = make_disk()
        inj = FaultInjector(FaultPlan(seed=0, lse_ranges=((5, 1),), torn_every=1))
        disk.attach_injector(inj)
        inj.disarm()
        disk.submit_one(5, 4, True)
        disk.submit_one(5, 1, False)
        assert inj.requests_seen == 0
        assert inj.torn_writes == 0


class TestFaultedCacheReads:
    def test_read_batch_keeps_hits_booked_before_a_faulted_read(self):
        """A plan whose first read is resident and whose second hits a
        developed LSE: the hits counted before the fault stay counted, and
        the cache is where two scalar reads would leave it."""

        def drive(batch: bool):
            disk = make_disk()
            injector = FaultInjector(FaultPlan(seed=0))
            disk.attach_injector(injector)
            cache = BufferCache(CacheParams(capacity_blocks=64), disk)
            cache.read(10, 2)
            injector.develop_lse({500})
            with pytest.raises(LatentSectorError):
                if batch:
                    cache.read_batch([(10, 2), (500, 1)])
                else:
                    cache.read(10, 2)
                    cache.read(500, 1)
            return disk.metrics.snapshot(), list(cache._lru), list(cache._ra.items())

        batched, scalar = drive(True), drive(False)
        assert batched == scalar
        assert batched[0].count("cache.hits") == 2
