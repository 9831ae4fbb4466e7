"""Journal wrap-around and MFS geometry/allocation."""

import pytest

from repro.config import DiskParams, MetaParams
from repro.errors import MetadataError, NoSpaceError
from repro.meta.journal import Journal
from repro.meta.mfs import MetadataFS


class TestJournal:
    def test_sequential_appends(self):
        j = Journal(base_block=1, nblocks=16)
        r1 = j.append(1)
        r2 = j.append(1)
        assert r1 == [(1, 1)]
        assert r2 == [(2, 1)]
        assert j.records_written == 2

    def test_wraps(self):
        j = Journal(base_block=10, nblocks=4)
        j.append(3)
        reqs = j.append(2)
        assert reqs == [(13, 1), (10, 1)]

    def test_oversized_append_rejected(self):
        with pytest.raises(MetadataError):
            Journal(0, 4).append(5)

    def test_invalid_region_rejected(self):
        with pytest.raises(MetadataError):
            Journal(-1, 4)
        with pytest.raises(MetadataError):
            Journal(0, 0)


@pytest.fixture
def mfs() -> MetadataFS:
    params = MetaParams(
        block_groups=4,
        blocks_per_group=2048,
        inodes_per_group=256,
        journal_blocks=64,
    )
    return MetadataFS(params, DiskParams(capacity_blocks=16384))


class TestGeometry:
    def test_layout_regions_do_not_overlap(self, mfs):
        assert mfs.journal_base == 1
        assert mfs.first_group_block == 65
        assert mfs.group_base(1) == 65 + 2048
        assert mfs.block_bitmap_block(0) == 65
        assert mfs.inode_bitmap_block(0) == 66
        assert mfs.itable_base(0) == 67
        assert mfs.data_base(0) == 67 + mfs.itable_blocks

    def test_itable_sizing(self, mfs):
        # 256 inodes at 16 per 4 KiB block.
        assert mfs.inodes_per_block == 16
        assert mfs.itable_blocks == 16

    def test_capacity_check(self):
        with pytest.raises(MetadataError):
            MetadataFS(
                MetaParams(block_groups=64, blocks_per_group=32768),
                DiskParams(capacity_blocks=1024),
            )

    def test_group_of_block(self, mfs):
        assert mfs.group_of_block(mfs.data_base(2)) == 2
        with pytest.raises(MetadataError):
            mfs.group_of_block(0)  # superblock is below the group region

    def test_itable_block_of(self, mfs):
        block, slot = mfs.itable_block_of(0)
        assert (block, slot) == (mfs.itable_base(0), 0)
        block, slot = mfs.itable_block_of(17)
        assert (block, slot) == (mfs.itable_base(0) + 1, 1)
        block, slot = mfs.itable_block_of(256)  # first inode of group 1
        assert block == mfs.itable_base(1)


class TestInodeAllocation:
    def test_alloc_in_preferred_group(self, mfs):
        ino, dirty = mfs.alloc_inode(2)
        assert ino == 2 * 256
        assert dirty == [mfs.inode_bitmap_block(2)]

    def test_fallback_when_group_full(self, mfs):
        for _ in range(256):
            mfs.alloc_inode(0)
        ino, _ = mfs.alloc_inode(0)
        assert ino == 256  # spilled to group 1

    def test_free_and_reuse(self, mfs):
        ino, _ = mfs.alloc_inode(0)
        dirty = mfs.free_inode(ino)
        assert dirty == [mfs.inode_bitmap_block(0)]
        ino2, _ = mfs.alloc_inode(0)
        assert ino2 == ino

    def test_exhaustion(self, mfs):
        for _ in range(4 * 256):
            mfs.alloc_inode(0)
        with pytest.raises(NoSpaceError):
            mfs.alloc_inode(0)


class TestDataAllocation:
    def test_alloc_in_group_data_area(self, mfs):
        start, got, dirty = mfs.alloc_data(1, 4)
        assert got == 4
        assert mfs.group_of_block(start) == 1
        assert start >= mfs.data_base(1)
        assert dirty == [mfs.block_bitmap_block(1)]

    def test_degrades_to_smaller_runs(self, mfs):
        # Consume the whole group-0 data area except scattered single blocks.
        total = mfs.data_blocks_per_group
        start, got, _ = mfs.alloc_data(0, total)
        assert got == total
        # Free every other block of a small range to fragment.
        for i in range(0, 8, 2):
            mfs.free_data(start + i, 1)
        s2, g2, _ = mfs.alloc_data(0, 4, minimum=1)
        assert g2 == 1

    def test_falls_to_next_group(self, mfs):
        mfs.alloc_data(0, mfs.data_blocks_per_group)
        start, _, _ = mfs.alloc_data(0, 4)
        assert mfs.group_of_block(start) == 1

    def test_free_validates_range(self, mfs):
        with pytest.raises(MetadataError):
            mfs.free_data(mfs.block_bitmap_block(0), 1)

    def test_utilization(self, mfs):
        assert mfs.data_utilization == 0.0
        mfs.alloc_data(0, mfs.data_blocks_per_group // 2)
        assert 0.1 < mfs.data_utilization < 0.2  # half of one of four groups

    def test_dir_rotor_cycles(self, mfs):
        groups = [mfs.next_dir_group() for _ in range(6)]
        assert groups == [0, 1, 2, 3, 0, 1]
