"""Allocation groups and the free-space manager (PAG directory)."""

import pytest

from repro.block.freespace import FreeSpaceManager
from repro.block.group import AllocationGroup
from repro.errors import AllocationError, NoSpaceError


class TestAllocationGroup:
    def test_geometry(self):
        g = AllocationGroup(index=2, base=1000, size=500, disk_index=1)
        assert g.end == 1500
        assert g.contains(1000)
        assert g.contains(1499)
        assert not g.contains(1500)

    def test_cursor_rotation_for_unhinted(self):
        g = AllocationGroup(0, 0, 1000, 0)
        s1, _ = g.allocate(10)
        s2, _ = g.allocate(10)
        assert s2 == s1 + 10

    def test_hinted_allocation_does_not_move_cursor(self):
        g = AllocationGroup(0, 0, 1000, 0)
        s1, _ = g.allocate(10)            # cursor -> 10
        g.allocate(10, hint=500)          # window reservation elsewhere
        s3, _ = g.allocate(10)            # next unhinted continues at 20
        assert s3 == s1 + 10

    def test_hint_outside_group_falls_back(self):
        g = AllocationGroup(0, 1000, 500, 0)
        start, got = g.allocate(10, hint=99999)
        assert g.contains(start)

    def test_utilization(self):
        g = AllocationGroup(0, 0, 100, 0)
        g.allocate(25)
        assert g.utilization == pytest.approx(0.25)

    def test_allocate_exact_and_release(self):
        g = AllocationGroup(0, 0, 100, 0)
        g.allocate_exact(50, 10)
        assert g.free_blocks == 90
        g.release(50, 10)
        assert g.free_blocks == 100


class TestFreeSpaceManager:
    @pytest.fixture
    def fsm(self) -> FreeSpaceManager:
        return FreeSpaceManager(ndisks=2, blocks_per_disk=1000, pags_per_disk=2)

    def test_group_layout(self, fsm):
        assert len(fsm.groups) == 4
        assert [g.base for g in fsm.groups] == [0, 500, 1000, 1500]
        assert [g.disk_index for g in fsm.groups] == [0, 0, 1, 1]

    def test_group_of(self, fsm):
        assert fsm.group_of(0).index == 0
        assert fsm.group_of(499).index == 0
        assert fsm.group_of(500).index == 1
        assert fsm.group_of(1999).index == 3

    def test_allocate_in_group(self, fsm):
        start, got = fsm.allocate_in_group(2, 10)
        assert fsm.group_of(start).index == 2
        assert got == 10

    def test_full_pag_spares_its_same_disk_sibling(self, fsm):
        # A file's layout names one PAG per stripe slot: a full PAG is out
        # of space, however much its sibling on the same disk holds.
        fsm.allocate_in_group(0, 500)
        free = [g.free.runs() for g in fsm.groups]
        with pytest.raises(NoSpaceError):
            fsm.allocate_in_group(0, 10)
        assert [g.free.runs() for g in fsm.groups] == free
        assert fsm.free_blocks == 1500

    def test_full_disk_spares_the_other_disk(self, fsm):
        # With both PAGs of disk 0 full, a request for group 0 does not
        # cross to disk 1 either.
        fsm.allocate_in_group(0, 500)
        fsm.allocate_in_group(1, 500)
        free = [g.free.runs() for g in fsm.groups]
        with pytest.raises(NoSpaceError):
            fsm.allocate_in_group(0, 10)
        assert [g.free.runs() for g in fsm.groups] == free
        assert fsm.free_blocks == 1000

    def test_array_full(self, fsm):
        for g in fsm.groups:
            g.allocate(500)
        with pytest.raises(NoSpaceError):
            fsm.allocate_in_group(0, 1)

    def test_allocate_near(self, fsm):
        start, got = fsm.allocate_near(1200, 10)
        assert start == 1200

    def test_allocate_exact_cross_group_rejected(self, fsm):
        with pytest.raises(AllocationError):
            fsm.allocate_exact(495, 10)

    def test_free_spanning_groups(self, fsm):
        fsm.allocate_exact(400, 100)
        fsm.allocate_exact(500, 100)
        fsm.free(400, 200)  # spans the group-0/group-1 boundary
        assert fsm.free_blocks == fsm.total_blocks

    def test_utilization(self, fsm):
        fsm.allocate_in_group(0, 500)
        assert fsm.utilization == pytest.approx(0.25)

    def test_geometry_validation(self):
        with pytest.raises(AllocationError):
            FreeSpaceManager(ndisks=1, blocks_per_disk=1000, pags_per_disk=3)
