"""``LayoutInspector.file_layout`` against a per-block brute force.

The inspector cuts extents into fragments by column; here every mapped
block is its own fragment, which must give the same extent-independent
numbers: the interleave factor counts region changes and physical jumps
between neighbouring blocks of a disk, and a sweep that visits single
blocks pays positioning only where the head actually moves.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.dataplane import DataPlane
from repro.obs.layout import LayoutInspector

from tests.conftest import small_config

BS = 4096


def _brute_force(plane: DataPlane, f, region_blocks: int):
    bpd = plane.array.blocks_per_disk
    by_disk: dict[int, list[tuple[int, int]]] = {}  # disk -> (logical, physical)
    for slot, smap in enumerate(f.maps):
        for ext in smap:
            for k in range(ext.length):
                logical = f.to_logical(slot, ext.logical + k)
                by_disk.setdefault((ext.physical + k) // bpd, []).append(
                    (logical, ext.physical + k)
                )
    runs = regions = 0
    seek_s, seeks = 0.0, 0
    for disk, blocks in by_disk.items():
        placed = sorted((p, lo // region_blocks) for lo, p in blocks)
        regions += len({r for _, r in placed})
        runs += 1 + sum(
            1 for (p0, r0), (p1, r1) in zip(placed, placed[1:]) if r1 != r0 or p1 != p0 + 1
        )
        cost, n = plane.array.disks[disk].model.sweep_cost(
            (p - disk * bpd, 1) for _, p in sorted(blocks)
        )
        seek_s += cost
        seeks += n
    return (runs / regions if regions else 1.0), regions, seek_s, seeks


@given(
    policy=st.sampled_from(["vanilla", "reservation", "ondemand", "static"]),
    stripe_blocks=st.sampled_from([4, 6]),
    widths=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    declared=st.sampled_from([None, 40 * BS]),
    writes=st.lists(
        st.tuples(
            st.integers(0, 1), st.integers(0, 3), st.integers(0, 150), st.integers(1, 14)
        ),
        max_size=40,
    ),
    # In blocks: dividing the stripe round, not dividing it, under one
    # stripe unit, over the whole file; None = the default, one round.
    region_blocks=st.sampled_from([None, 1, 2, 5, 7, 12, 24, 1000]),
)
@settings(max_examples=150, deadline=None)
def test_file_layout_is_the_per_block_brute_force(
    policy, stripe_blocks, widths, declared, writes, region_blocks
):
    plane = DataPlane(small_config(policy=policy, ndisks=4, stripe_blocks=stripe_blocks))
    files = [
        plane.create_file(f"/f{i}", width=w, expected_bytes=declared)
        for i, w in enumerate(widths)
    ]
    for fi, stream, block, nblocks in writes:
        plane.write(files[fi % len(files)], stream, block * BS, nblocks * BS)
    inspector = LayoutInspector(None if region_blocks is None else region_blocks * BS)
    for f in files:
        layout = inspector.file_layout(plane, f)
        interleave, regions, seek_s, seeks = _brute_force(
            plane, f, region_blocks or f.stripe_blocks * f.width
        )
        assert (layout.interleave_factor, layout.regions) == (interleave, regions)
        assert (layout.seek_cost_s, layout.seeks) == (seek_s, seeks)
        assert layout.extents == f.extent_count
        assert layout.mapped_blocks == f.mapped_blocks


def test_an_empty_file_has_a_neutral_layout():
    plane = DataPlane(small_config())
    layout = LayoutInspector().file_layout(plane, plane.create_file("/empty"))
    assert (layout.interleave_factor, layout.regions) == (1.0, 0)
    assert (layout.seek_cost_s, layout.seeks, layout.contiguity) == (0.0, 0, 1.0)
