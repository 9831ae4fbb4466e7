"""Allocation policies: vanilla, reservation, static, delayed + registry."""

import pytest

from repro.alloc.base import AllocTarget, PhysicalRun
from repro.alloc.delayed import DelayedPolicy, _coalesce
from repro.alloc.registry import POLICY_NAMES, make_policy
from repro.alloc.reservation import ReservationPolicy
from repro.alloc.static import StaticPolicy
from repro.alloc.vanilla import VanillaPolicy
from repro.alloc.window import Window
from repro.block.freespace import FreeSpaceManager
from repro.config import AllocPolicyParams
from repro.errors import AllocationError, ConfigError


def make_fsm() -> FreeSpaceManager:
    return FreeSpaceManager(ndisks=2, blocks_per_disk=4096, pags_per_disk=2)


def target(group=0) -> AllocTarget:
    return AllocTarget(group_index=group, slot=0)


def covered(runs: list[PhysicalRun]) -> int:
    return sum(r.length for r in runs if not r.unwritten)


class TestWindow:
    def test_covers(self):
        w = Window(logical=10, physical=100, length=8)
        assert w.covers(10)
        assert w.covers(10, 8)
        assert not w.covers(10, 9)
        assert not w.covers(9)

    def test_physical_for(self):
        w = Window(logical=10, physical=100, length=8)
        assert w.physical_for(13) == 103

    def test_consume(self):
        w = Window(logical=0, physical=100, length=8)
        w.consume_to(5)
        assert w.remaining == 3
        assert w.next_logical == 5
        assert w.next_physical == 105
        w.consume_to(3)  # high-water: no going back
        assert w.remaining == 3
        w.consume_to(8)
        assert w.exhausted

    def test_consume_past_end_rejected(self):
        with pytest.raises(AllocationError):
            Window(logical=0, physical=0, length=4).consume_to(5)


class TestVanilla:
    def test_allocates_exact_count(self):
        p = VanillaPolicy(AllocPolicyParams(policy="vanilla"), make_fsm())
        runs = p.allocate(1, 0, target(), dlocal=0, count=10)
        assert covered(runs) == 10

    def test_concurrent_streams_interleave(self):
        """The Figure 1(a) pathology: arrival order dictates placement."""
        p = VanillaPolicy(AllocPolicyParams(policy="vanilla"), make_fsm())
        a = p.allocate(1, 100, target(), dlocal=0, count=2)
        b = p.allocate(1, 200, target(), dlocal=100, count=2)
        a2 = p.allocate(1, 100, target(), dlocal=2, count=2)
        # Stream 100's second chunk is NOT adjacent to its first.
        assert a2[0].physical == b[0].physical + 2
        assert a2[0].physical != a[0].physical + 2


class TestReservation:
    def make(self, blocks=16) -> ReservationPolicy:
        return ReservationPolicy(
            AllocPolicyParams(policy="reservation", reservation_blocks=blocks),
            make_fsm(),
        )

    def test_pool_hands_out_arrival_order(self):
        p = self.make()
        a = p.allocate(1, 100, target(), dlocal=0, count=2)
        b = p.allocate(1, 200, target(), dlocal=50, count=2)
        # Different streams, same inode: physically adjacent in the pool.
        assert b[0].physical == a[0].physical + 2

    def test_pool_refills_contiguously(self):
        p = self.make(blocks=4)
        a = p.allocate(1, 0, target(), dlocal=0, count=4)
        b = p.allocate(1, 0, target(), dlocal=4, count=4)
        assert b[0].physical == a[0].physical + 4

    def test_release_returns_unconsumed(self):
        p = self.make(blocks=16)
        fsm = p.fsm
        p.allocate(1, 0, target(), dlocal=0, count=4)
        free_before = fsm.free_blocks
        released = p.release(1)
        assert released == 12
        assert fsm.free_blocks == free_before + 12

    def test_release_unknown_file_is_noop(self):
        assert self.make().release(42) == 0

    def test_per_file_pools_are_separate(self):
        p = self.make(blocks=8)
        a = p.allocate(1, 0, target(), dlocal=0, count=2)
        c = p.allocate(2, 0, target(), dlocal=0, count=2)
        # File 2's pool is a different reservation range.
        assert abs(c[0].physical - a[0].physical) >= 2


class TestStatic:
    def make(self) -> StaticPolicy:
        return StaticPolicy(AllocPolicyParams(policy="static"), make_fsm())

    def test_prepare_allocates_unwritten(self):
        p = self.make()
        runs = p.prepare(1, target(), 100)
        assert all(r.unwritten for r in runs)
        assert sum(r.length for r in runs) == 100
        assert p.prepared_blocks(1) == 100

    def test_prepare_contiguous_on_fresh_group(self):
        p = self.make()
        runs = p.prepare(1, target(), 100)
        assert len(runs) == 1

    def test_prepare_zero_is_noop(self):
        assert self.make().prepare(1, target(), 0) == []

    def test_beyond_declared_falls_back(self):
        p = self.make()
        p.prepare(1, target(), 10)
        runs = p.allocate(1, 0, target(), dlocal=10, count=5)
        assert covered(runs) == 5
        assert p.metrics.count("alloc.beyond_declared") == 5

    def test_on_delete_clears_bookkeeping(self):
        p = self.make()
        p.prepare(1, target(), 10)
        p.on_delete(1)
        assert p.prepared_blocks(1) == 0


class TestDelayed:
    def make(self, batch=8) -> DelayedPolicy:
        return DelayedPolicy(
            AllocPolicyParams(policy="delayed", delayed_batch_blocks=batch),
            make_fsm(),
        )

    def test_allocate_buffers(self):
        p = self.make()
        assert p.allocate(1, 0, target(), dlocal=0, count=4) == []
        assert p.pending_blocks(1) == 4

    def test_flush_coalesces_adjacent_ranges(self):
        p = self.make()
        p.allocate(1, 0, target(), dlocal=0, count=4)
        p.allocate(1, 0, target(), dlocal=4, count=4)
        flushed = p.flush(1)
        assert len(flushed) == 1
        _, runs = flushed[0]
        assert len(runs) == 1  # one contiguous allocation for both writes
        assert runs[0].length == 8
        assert p.pending_blocks(1) == 0

    def test_flush_out_of_order_ranges(self):
        p = self.make()
        p.allocate(1, 0, target(), dlocal=8, count=4)
        p.allocate(1, 0, target(), dlocal=0, count=4)
        _, runs = p.flush(1)[0]
        assert sum(r.length for r in runs) == 8
        assert runs[0].dlocal == 0  # sorted by logical offset

    def test_coalesce_helper(self):
        assert _coalesce([(0, 4), (4, 4)]) == [(0, 8)]
        assert _coalesce([(0, 4), (8, 4)]) == [(0, 4), (8, 4)]
        assert _coalesce([(0, 8), (2, 2)]) == [(0, 8)]
        assert _coalesce([]) == []

    def test_on_delete_drops_buffer(self):
        p = self.make()
        p.allocate(1, 0, target(), dlocal=0, count=4)
        p.on_delete(1)
        assert p.flush(1) == []


class TestRegistry:
    def test_all_names_construct(self):
        fsm = make_fsm()
        for name in POLICY_NAMES:
            policy = make_policy(AllocPolicyParams(policy=name), fsm)
            assert policy.name == name

    def test_unknown_rejected_by_params(self):
        with pytest.raises(ConfigError):
            AllocPolicyParams(policy="mystery")
