"""Extents and extent maps: mapping, merging, splitting, fragmentation."""

import pytest

from repro.block.extent import Extent, ExtentFlags, ExtentMap
from repro.errors import ExtentError

from tests.fsck_reference import validate_extent_map


class TestExtent:
    def test_ends(self):
        e = Extent(10, 100, 5)
        assert e.logical_end == 15
        assert e.physical_end == 105

    def test_physical_for(self):
        e = Extent(10, 100, 5)
        assert e.physical_for(12) == 102

    def test_physical_for_outside_rejected(self):
        with pytest.raises(ExtentError):
            Extent(10, 100, 5).physical_for(15)

    def test_abuts(self):
        a = Extent(0, 100, 5)
        assert a.abuts(Extent(5, 105, 3))
        assert not a.abuts(Extent(5, 106, 3))  # physical gap
        assert not a.abuts(Extent(6, 105, 3))  # logical gap
        assert not a.abuts(Extent(5, 105, 3, ExtentFlags.UNWRITTEN))  # flags

    def test_invalid_rejected(self):
        with pytest.raises(ExtentError):
            Extent(-1, 0, 1)
        with pytest.raises(ExtentError):
            Extent(0, 0, 0)


class TestInsert:
    def test_insert_and_lookup(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10))
        ext = m.lookup_block(3)
        assert ext is not None
        assert ext.physical_for(3) == 503

    def test_merges_abutting(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10))
        m.insert(Extent(10, 510, 10))
        assert m.extent_count == 1
        assert m.extents()[0].length == 20

    def test_merges_both_neighbours(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10))
        m.insert(Extent(20, 520, 10))
        m.insert(Extent(10, 510, 10))
        assert m.extent_count == 1

    def test_physically_discontiguous_does_not_merge(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10))
        m.insert(Extent(10, 900, 10))
        assert m.extent_count == 2

    def test_overlap_rejected(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10))
        with pytest.raises(ExtentError):
            m.insert(Extent(5, 900, 10))
        with pytest.raises(ExtentError):
            m.insert(Extent(9, 400, 1))

    def test_interleaved_streams_fragment(self):
        """Figure 1(a): arrival-order placement of concurrent streams makes
        logical-adjacent blocks physically scattered -> no merging."""
        m = ExtentMap()
        # 4 streams, regions of 4 blocks, allocated round-robin.
        phys = 1000
        for rnd in range(4):
            for s in range(4):
                m.insert(Extent(s * 4 + rnd, phys, 1))
                phys += 1
        assert m.extent_count == 16


class TestLookupRange:
    def test_clips_to_range(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10))
        got = m.lookup_range(3, 4)
        assert len(got) == 1
        assert (got[0].logical, got[0].physical, got[0].length) == (3, 503, 4)

    def test_spans_multiple_extents(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 5))
        m.insert(Extent(5, 900, 5))
        got = m.lookup_range(3, 4)
        assert [(e.physical, e.length) for e in got] == [(503, 2), (900, 2)]

    def test_holes_absent(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 2))
        m.insert(Extent(8, 900, 2))
        got = m.lookup_range(0, 10)
        assert sum(e.length for e in got) == 4

    def test_holes_in_range(self):
        m = ExtentMap()
        m.insert(Extent(2, 500, 2))
        holes = m.holes_in_range(0, 10)
        assert holes == [(0, 2), (4, 6)]

    def test_bad_count(self):
        with pytest.raises(ExtentError):
            ExtentMap().lookup_range(0, 0)


class TestMarkWritten:
    def test_converts_whole_extent(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10, ExtentFlags.UNWRITTEN))
        m.mark_written(0, 10)
        assert m.written_blocks == 10
        assert m.extent_count == 1

    def test_splits_partially(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10, ExtentFlags.UNWRITTEN))
        m.mark_written(3, 4)
        assert m.written_blocks == 4
        assert m.extent_count == 3
        assert m.lookup_block(0).unwritten
        assert not m.lookup_block(3).unwritten
        assert m.lookup_block(7).unwritten

    def test_remerges_written_pieces(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10, ExtentFlags.UNWRITTEN))
        m.mark_written(0, 5)
        m.mark_written(5, 5)
        assert m.extent_count == 1
        assert m.written_blocks == 10

    def test_noop_on_written(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10))
        m.mark_written(0, 10)
        assert m.extent_count == 1

    def test_validate_after_split(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 16, ExtentFlags.UNWRITTEN))
        m.mark_written(2, 3)
        m.mark_written(9, 2)
        validate_extent_map(m)

    def test_does_not_skip_the_extent_after_a_left_merge(self):
        # The converted [4, 8) merges into [0, 4); [8, 12) must still be
        # converted, not skipped.
        m = ExtentMap()
        m.insert(Extent(0, 100, 4))
        m.insert(Extent(4, 104, 4, ExtentFlags.UNWRITTEN))
        m.insert(Extent(8, 500, 4, ExtentFlags.UNWRITTEN))
        m.mark_written(0, 12)
        assert m.written_blocks == 12
        assert [(e.logical, e.physical, e.length, e.flags) for e in m] == [
            (0, 100, 8, 0), (8, 500, 4, 0)
        ]


class TestRemove:
    def test_remove_returns_fragments(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 10))
        removed = m.remove_range(2, 4)
        assert [(e.physical, e.length) for e in removed] == [(502, 4)]
        assert m.mapped_blocks == 6
        assert m.holes_in_range(0, 10) == [(2, 4)]

    def test_remove_nothing(self):
        m = ExtentMap()
        assert m.remove_range(0, 10) == []

    def test_clear(self):
        m = ExtentMap()
        m.insert(Extent(0, 500, 4))
        m.insert(Extent(8, 900, 4))
        removed = m.clear()
        assert len(removed) == 2
        assert m.extent_count == 0

    def test_size_blocks(self):
        m = ExtentMap()
        assert m.size_blocks == 0
        m.insert(Extent(8, 900, 4))
        assert m.size_blocks == 12
