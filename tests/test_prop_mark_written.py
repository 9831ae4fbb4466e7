"""Property test for :meth:`ExtentMap.mark_written` over preallocated maps.

After ``mark_written(lo, n)`` no block of ``[lo, lo+n)`` is unwritten,
every block keeps its physical address and the map is maximally merged —
including when a converted piece merges into a written left neighbour,
which must not skip the extent after it.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.block.extent import Extent, ExtentMap

from tests.fsck_reference import validate_extent_map


@st.composite
def preallocated_maps(draw):
    """``(extents, lo, n)``: a tiling of written and unwritten extents, each
    physically continuing the one before it or not, and a range over it."""
    extents = []
    logical, physical = 0, draw(st.integers(0, 100))
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.integers(1, 4))
        extents.append(Extent(logical, physical, length, draw(st.integers(0, 1))))
        logical += length
        physical += length + draw(st.sampled_from([0, 0, 50]))
    # The range shrinks towards the whole map.
    lo = draw(st.integers(0, logical - 1))
    return extents, lo, logical - lo - draw(st.integers(0, logical - lo - 1))


def _physical_of(m: ExtentMap) -> dict[int, int]:
    return {
        e.logical + k: e.physical + k for e in m for k in range(e.length)
    }


@settings(max_examples=300, deadline=None)
@given(preallocated_maps())
@example(([Extent(0, 100, 4), Extent(4, 104, 4, 1), Extent(8, 500, 4, 1)], 0, 12))
def test_mark_written_converts_the_whole_range(case):
    extents, lo, n = case
    m = ExtentMap()
    for e in extents:
        m.insert(e)
    before = _physical_of(m)
    m.mark_written(lo, n)
    assert not [e for e in m.lookup_range(lo, n) if e.unwritten]
    assert _physical_of(m) == before
    validate_extent_map(m)
