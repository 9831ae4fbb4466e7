"""Property-based tests for the extent map.

Invariants: sorted/non-overlapping/merged structure; lookup agrees with a
brute-force dict model; remove+holes partition the logical space.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.extent import Extent, ExtentFlags, ExtentMap
from repro.errors import ExtentError

from tests.fsck_reference import validate_extent_map

LOGICAL_SPACE = 256


@st.composite
def extent_batches(draw):
    """Non-overlapping logical extents with arbitrary physical placement."""
    n = draw(st.integers(min_value=1, max_value=12))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=LOGICAL_SPACE),
                min_size=2 * n,
                max_size=2 * n,
                unique=True,
            )
        )
    )
    extents = []
    for i in range(0, len(cuts) - 1, 2):
        logical, end = cuts[i], cuts[i + 1]
        if end <= logical:
            continue
        physical = draw(st.integers(min_value=0, max_value=10_000))
        unwritten = draw(st.booleans())
        extents.append(
            Extent(
                logical,
                physical,
                end - logical,
                ExtentFlags.UNWRITTEN if unwritten else ExtentFlags.NONE,
            )
        )
    return extents


@given(extent_batches())
@settings(max_examples=200)
def test_insert_preserves_structure_and_content(extents):
    m = ExtentMap()
    model: dict[int, int] = {}
    for e in extents:
        m.insert(e)
        for b in range(e.logical, e.logical_end):
            model[b] = e.physical_for(b)
    validate_extent_map(m)
    assert m.mapped_blocks == len(model)
    for b, phys in model.items():
        ext = m.lookup_block(b)
        assert ext is not None
        assert ext.physical_for(b) == phys
    # Holes are exactly the unmapped blocks.
    holes = m.holes_in_range(0, LOGICAL_SPACE)
    hole_blocks = {b for s, c in holes for b in range(s, s + c)}
    assert hole_blocks == set(range(LOGICAL_SPACE)) - set(model)


@given(extent_batches(), st.integers(0, LOGICAL_SPACE - 1), st.integers(1, 64))
@settings(max_examples=200)
def test_remove_range_partitions(extents, start, count):
    m = ExtentMap()
    for e in extents:
        m.insert(e)
    before = m.mapped_blocks
    removed = m.remove_range(start, count)
    validate_extent_map(m)
    removed_blocks = sum(e.length for e in removed)
    assert m.mapped_blocks == before - removed_blocks
    assert m.lookup_range(start, count) == []


@given(extent_batches(), st.integers(0, LOGICAL_SPACE - 1), st.integers(1, 64))
@settings(max_examples=200)
def test_mark_written_is_idempotent_and_flag_only(extents, start, count):
    m = ExtentMap()
    for e in extents:
        m.insert(e)
    mapping_before = {
        b: m.lookup_block(b).physical_for(b)
        for e in m.extents()
        for b in range(e.logical, e.logical_end)
    }
    m.mark_written(start, count)
    validate_extent_map(m)
    once = [(e.logical, e.physical, e.length, e.flags) for e in m.extents()]
    m.mark_written(start, count)
    twice = [(e.logical, e.physical, e.length, e.flags) for e in m.extents()]
    assert once == twice
    # Physical mapping is untouched; only flags may change.
    for b, phys in mapping_before.items():
        assert m.lookup_block(b).physical_for(b) == phys
    for e in m.lookup_range(start, count):
        assert not e.unwritten


@given(extent_batches())
@settings(max_examples=100)
def test_reinserting_any_mapped_block_raises(extents):
    m = ExtentMap()
    for e in extents:
        m.insert(e)
    for e in m.extents()[:3]:
        try:
            m.insert(Extent(e.logical, 99_999, 1))
        except ExtentError:
            continue
        raise AssertionError("overlap accepted")


def _contents(m: ExtentMap) -> list[tuple[int, int, int, int]]:
    return [(e.logical, e.physical, e.length, e.flags) for e in m.extents()]


@st.composite
def abutting_batches(draw):
    """Extents tiling most of the space, physically continuing each other in
    places (so inserts merge on one side, on both, or not at all), in two
    shuffled halves: what the map holds, and what ``insert_many`` adds."""
    extents = []
    logical, physical = draw(st.integers(0, 4)), draw(st.integers(0, 500))
    for _ in range(draw(st.integers(1, 24))):
        length = draw(st.integers(1, 6))
        flags = draw(st.sampled_from([0, 0, 1]))
        extents.append(Extent(logical, physical, length, flags))
        logical += length + draw(st.sampled_from([0, 0, 0, 2]))
        physical += length + draw(st.sampled_from([0, 0, 7]))
    order = draw(st.permutations(range(len(extents))))
    cut = draw(st.integers(0, len(extents)))
    return [extents[i] for i in order[:cut]], [extents[i] for i in order[cut:]]


@given(abutting_batches())
@settings(max_examples=300)
def test_insert_many_is_the_loop_of_insert(batches):
    held, added = batches
    looped, bulk = ExtentMap(), ExtentMap()
    for e in held:
        looped.insert(e)
        bulk.insert(e)
    for e in added:
        looped.insert(e)
    bulk.insert_many([(e.logical, e.physical, e.length, e.flags) for e in added])
    validate_extent_map(bulk)
    assert _contents(bulk) == _contents(looped)
    assert all(type(e.flags) is int and type(e.logical) is int for e in bulk)


@given(abutting_batches(), st.data())
@settings(max_examples=200)
def test_insert_many_rejects_an_overlap_before_it_mutates(batches, data):
    held, added = batches
    m = ExtentMap()
    for e in held:
        m.insert(e)
    # One more row over a block some other extent or row maps already.
    victim = data.draw(st.sampled_from(held + added))
    block = data.draw(st.integers(victim.logical, victim.logical_end - 1))
    rows = [(e.logical, e.physical, e.length, e.flags) for e in added]
    rows.insert(data.draw(st.integers(0, len(rows))), (block, 9_999, 1, 0))
    before = _contents(m)
    try:
        m.insert_many(rows)
    except ExtentError:
        assert _contents(m) == before
        validate_extent_map(m)
        return
    raise AssertionError("overlap accepted")


def test_insert_many_rejects_what_extent_rejects():
    m = ExtentMap()
    m.insert_many([])
    for row in [(-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 0)]:
        try:
            m.insert_many([(8, 8, 1, 0), row])
        except ExtentError:
            assert len(m) == 0
            continue
        raise AssertionError(f"accepted {row}")
