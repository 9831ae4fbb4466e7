"""Block bitmap: range set/clear, run finding, dirty-block reporting."""

import numpy as np
import pytest

from repro.block.bitmap import BlockBitmap
from repro.errors import AllocationError, NoSpaceError


@pytest.fixture
def bm() -> BlockBitmap:
    return BlockBitmap(size=1024, bits_per_block=256)


class TestRanges:
    def test_initially_free(self, bm):
        assert bm.free_count == 1024
        assert bm.is_range_free(0, 1024)

    def test_set_and_clear(self, bm):
        bm.set_range(10, 5)
        assert bm.used_count == 5
        assert bm.is_used(10)
        assert not bm.is_used(15)
        bm.clear_range(10, 5)
        assert bm.used_count == 0

    def test_double_set_rejected(self, bm):
        bm.set_range(0, 4)
        with pytest.raises(AllocationError):
            bm.set_range(3, 2)

    def test_double_clear_rejected(self, bm):
        with pytest.raises(AllocationError):
            bm.clear_range(0, 1)

    def test_out_of_range_rejected(self, bm):
        with pytest.raises(AllocationError):
            bm.set_range(1020, 10)


class TestDirtyBlocks:
    def test_single_bitmap_block(self, bm):
        assert bm.set_range(0, 10) == [0]

    def test_straddles_bitmap_blocks(self, bm):
        assert bm.set_range(250, 10) == [0, 1]


class TestFindFreeRun:
    def test_finds_from_hint(self, bm):
        assert bm.find_free_run(4, hint=100) == 100

    def test_skips_used(self, bm):
        bm.set_range(100, 10)
        assert bm.find_free_run(4, hint=100) == 110

    def test_wraps_around(self, bm):
        bm.set_range(512, 512)
        assert bm.find_free_run(4, hint=600) == 0

    def test_exact_fit(self, bm):
        bm.set_range(0, 1020)
        assert bm.find_free_run(4, hint=0) == 1020

    def test_no_space(self, bm):
        bm.set_range(0, 1024)
        with pytest.raises(NoSpaceError):
            bm.find_free_run(1)

    def test_run_straddling_scan_chunks(self):
        # A run that spans the chunk boundary must still be found.
        bm = BlockBitmap(size=3 * BlockBitmap._SCAN_CHUNK)
        hole_start = BlockBitmap._SCAN_CHUNK - 8
        bm.set_range(0, hole_start)
        bm.set_range(hole_start + 16, bm.size - hole_start - 16)
        assert bm.find_free_run(16, hint=0) == hole_start

    def test_rotor_advances_after_allocation(self, bm):
        start = bm.find_free_run(4)
        bm.set_range(start, 4)
        assert bm.find_free_run(4) == start + 4


class TestLoadMask:
    def test_load_pattern(self, bm):
        mask = np.zeros(1024, dtype=bool)
        mask[::2] = True
        bm.load_mask(mask)
        assert bm.used_count == 512
        assert bm.is_used(0)
        assert not bm.is_used(1)

    def test_requires_empty(self, bm):
        bm.set_range(0, 1)
        with pytest.raises(AllocationError):
            bm.load_mask(np.zeros(1024, dtype=bool))

    def test_requires_matching_shape(self, bm):
        with pytest.raises(AllocationError):
            bm.load_mask(np.zeros(10, dtype=bool))
