"""The columnar extent-map check and the data-plane faults it feeds.

:func:`repro.block.extent.invalid_maps` over an
:func:`~repro.block.extent.extent_columns` gather replaces a per-map
``validate`` call; its verdicts and messages must match the straight-line
oracle :func:`tests.fsck_reference.validate_extent_map`.  The hand-built planes
put an invalid map, an out-of-array extent and a PAG-crossing extent side
by side, so ``extent-map-invalid`` — which no Corruptor fault produces —
is checked against the serial oracle, and through repair.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.block.extent import Extent, ExtentMap, extent_columns, invalid_maps
from repro.core.runners.fsck import shard_work
from repro.errors import AllocationError, ExtentError
from repro.fs.dataplane import DataPlane
from repro.fs import verify
from repro.fs.verify import check_dataplane, repair_dataplane
from repro.units import KiB

from tests.conftest import small_config
from tests.fsck_reference import check_dataplane_reference, validate_extent_map


def set_rows(m: ExtentMap, rows) -> ExtentMap:
    """Make ``m``'s columns hold exactly the ``(logical, physical, length,
    flags)`` ``rows``, sound or not."""
    m._logical, m._physical, m._length, m._flags = ([row[k] for row in rows] for k in range(4))
    return m


def raw_map(rows) -> ExtentMap:
    return set_rows(ExtentMap(), rows)


@st.composite
def raw_maps(draw):
    """Maps whose neighbours may overlap, come out of order or abut with
    the same flags."""
    rows: list[tuple[int, int, int, int]] = []
    logical, physical = draw(st.integers(0, 8)), draw(st.integers(0, 64))
    for _ in range(draw(st.integers(0, 5))):
        length = draw(st.integers(1, 6))
        rows.append((logical, physical, length, draw(st.integers(0, 1))))
        # A negative gap overlaps the next extent; a zero gap abuts it.
        logical = max(0, logical + length + draw(st.integers(-3, 3)))
        physical = max(0, physical + length + draw(st.sampled_from([0, 0, 5, -2])))
    if draw(st.integers(0, 4)) == 0:
        rows = draw(st.permutations(rows))
    return raw_map(rows)


def reference_invalid(maps: list[ExtentMap]) -> list[tuple[int, str]]:
    out = []
    for i, m in enumerate(maps):
        try:
            validate_extent_map(m)
        except ExtentError as exc:
            out.append((i, str(exc)))
    return out


class TestExtentColumns:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(raw_maps(), max_size=8))
    @example([raw_map([])])
    @example([raw_map([(0, 10, 2, 0), (2, 12, 2, 0)])])
    @example([raw_map([(4, 10, 2, 0), (0, 20, 2, 0)])])
    @example([raw_map([(0, 10, 2, 0), (2, 50, 2, 0)])])
    def test_same_verdict_and_message_as_the_reference(self, maps):
        owner, cols = extent_columns(maps)
        assert invalid_maps(owner, cols) == reference_invalid(maps)
        rows = [row for m in maps for row in zip(m._logical, m._physical, m._length, m._flags)]
        assert owner.tolist() == [i for i, m in enumerate(maps) for _ in m._logical]
        assert cols.T.tolist() == [list(row) for row in rows]


def three_file_plane() -> DataPlane:
    """Vanilla plane, three files of 64 KiB: every mapped block is used."""
    plane = DataPlane(small_config(policy="vanilla"))
    for i in range(3):
        plane.write(plane.create_file(f"/f{i}"), 1, 0, 64 * KiB)
    return plane


def mapped_blocks(plane: DataPlane) -> int:
    return sum(m.mapped_blocks for f in plane.files() for m in f.maps)


def split_first_extent(plane: DataPlane, name: str) -> ExtentMap:
    """Cut the first extent of ``name``'s first non-empty map into two
    abutting rows: an unmerged pair no map operation leaves behind."""
    f = next(f for f in plane.files() if f.name == name)
    smap = next(m for m in f.maps if len(m))
    (logical, physical, length, flags), *rest = smap.columns().T.tolist()
    assert length > 1
    return set_rows(smap, [
        (logical, physical, 1, flags), (logical + 1, physical + 1, length - 1, flags), *rest,
    ])


def damaged_plane() -> DataPlane:
    """An invalid map, an out-of-array extent and a PAG-crossing extent."""
    plane = three_file_plane()
    split_first_extent(plane, "/f0")
    f1, f2 = plane.files()[1:]
    f1.maps[0].insert(Extent(10_000, plane.fsm.total_blocks + 64, 8))
    boundary = plane.fsm.groups[1].base
    f2.maps[0].insert(Extent(20_000, boundary - 2, 4))
    return plane


def report_key(report) -> tuple:
    return (
        tuple((f.code, f.message) for f in report.findings),
        report.checked_extents,
        report.checked_inodes,
    )


class TestHandBuiltDataplaneDamage:
    # ``checks`` runs the check that many times on one plane: a check is
    # read-only, so a repeated one must still equal the oracle.
    @pytest.mark.parametrize("checks", [1, 2])
    @pytest.mark.parametrize("strict", [False, True])
    def test_check_equals_reference(self, checks, strict):
        plane = damaged_plane()
        reports = [
            check_dataplane(plane, strict_accounting=strict) for _ in range(checks)
        ]
        expected = report_key(
            check_dataplane_reference(plane, strict_accounting=strict)
        )
        for report in reports:
            assert report.codes >= {
                "extent-map-invalid", "extent-outside-array", "extent-crosses-pag"
            }
            assert report_key(report) == expected

    def test_repair_equals_reference(self):
        plane = damaged_plane()
        fix = repair_dataplane(plane)
        assert fix.converged
        assert report_key(fix.after) == report_key(check_dataplane_reference(plane))
        assert {a.code for a in fix.actions} >= {
            "extent-map-invalid", "extent-outside-array"
        }

    def test_shard_work_counts_rows_per_pag(self):
        volumes = shard_work(damaged_plane())[0]
        # The crossing extent is seen by both PAGs it touches.
        assert len(volumes) >= 2


class TestDroppedMapReleasesItsBlocks:
    """Regression: repairing an invalid map used to unmap its extents and
    leave their blocks allocated, a leak no later check reports."""

    def test_used_equals_mapped_after_repair(self):
        plane = three_file_plane()
        assert plane.fsm.used_blocks == mapped_blocks(plane)
        split_first_extent(plane, "/f1")
        fix = repair_dataplane(plane)
        assert fix.converged
        assert [a.code for a in fix.actions] == ["extent-map-invalid"]
        assert plane.fsm.used_blocks == mapped_blocks(plane)
        assert check_dataplane(plane, strict_accounting=True).clean

    def test_blocks_a_kept_extent_maps_stay_allocated(self):
        plane = three_file_plane()
        f0, f1 = plane.files()[:2]
        kept = f0.maps[0].extents()[0]
        # /f1 also maps two of /f0's blocks, then its map turns invalid.
        f1.maps[0].insert(Extent(1_000, kept.physical, 2))
        split_first_extent(plane, "/f1")
        fix = repair_dataplane(plane)
        assert fix.converged
        # Nothing to re-claim: the shared blocks never went back to free space.
        assert [a.code for a in fix.actions] == ["extent-map-invalid"]
        assert not plane.fsm.group_of(kept.physical).free.is_free(kept.physical, 2)
        assert plane.fsm.used_blocks == mapped_blocks(plane)


def three_faults_plane() -> DataPlane:
    """An invalid map on /f1, a free block under /f0's extent, and two of
    /f0's blocks also mapped by /f2 (both files live in one PAG)."""
    plane = three_file_plane()
    f0, _f1, f2 = plane.files()
    split_first_extent(plane, "/f1")
    owned = f0.maps[0].extents()[0].physical
    plane.fsm.free(owned + 3, 1)
    f2.maps[0].insert(Extent(1_000, owned + 8, 2))
    return plane


class TestRepairAppliesTheCheck:
    def test_one_pass_scans_the_plane_twice(self, monkeypatch):
        scans = []
        real_scan = verify._scan_dataplane

        def counting_scan(*args, **kwargs):
            scans.append(1)
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(verify, "_scan_dataplane", counting_scan)
        fix = repair_dataplane(three_faults_plane())
        assert (fix.passes, fix.converged) == (1, True)
        # One scan finds the damage, one confirms the repair took.
        assert len(scans) == 2

    def test_actions_equal_the_recorded_repair(self):
        plane = three_faults_plane()
        assert report_key(check_dataplane(plane)) == report_key(
            check_dataplane_reference(plane)
        )
        fix = repair_dataplane(plane)
        # Recorded before repair stopped scanning again in each pass.
        invalid = (
            "unmerged abutting extents: Extent(logical=0, physical=0, length=1, "
            "flags=0) / Extent(logical=1, physical=1, length=15, flags=0)"
        )
        assert [(a.code, a.message) for a in fix.actions] == [
            ("extent-map-invalid", f"/f1 slot 0: dropped invalid extent map ({invalid})"),
            ("double-owned-block", "/f2 slot 0: unmapped Extent(logical=1000, "
             "physical=24584, length=2, flags=0)"),
            ("extent-maps-free", "/f0 slot 0: re-claimed 1 blocks of Extent(logical=0, "
             "physical=24576, length=16, flags=0)"),
        ]
        assert fix.passes == 1
        assert fix.after.clean
        assert report_key(fix.after) == report_key(check_dataplane_reference(plane))
        assert plane.fsm.used_blocks == mapped_blocks(plane)


class TestRepairAllocatorErrors:
    """Regression: repair used to swallow any exception while flipping a
    block, so an allocator fault read as "nothing to re-claim"."""

    def test_allocator_error_propagates(self, monkeypatch):
        plane = three_file_plane()
        block = plane.files()[0].maps[0].extents()[0].physical
        plane.fsm.free(block, 1)
        assert check_dataplane(plane).has("extent-maps-free")

        def broken(start, count):
            raise AllocationError(f"cannot claim {start}+{count}")

        monkeypatch.setattr(plane.fsm, "allocate_exact", broken)
        with pytest.raises(AllocationError, match=f"cannot claim {block}"):
            repair_dataplane(plane)
