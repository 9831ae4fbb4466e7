"""Serial fsck oracles for the sharded checkers in :mod:`repro.fs.verify`.

These are the original single-threaded, dict-based consistency walks, moved
here verbatim from ``src/repro/fs/verify.py`` when the shipped checker became
columnar.  They are deliberately slow and obvious — one Python step per block
and per directory entry — so ``tests/test_fsck_parallel.py`` can assert that
the vectorized, sharded checkers render the same findings, in the same order,
with the same counters.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.block.extent import Extent, ExtentMap
from repro.errors import ExtentError
from repro.fs.dataplane import DataPlane
from repro.fs.verify import FsckReport
from repro.meta.embedded_layout import EmbeddedLayout
from repro.meta.mds import MetadataServer
from repro.meta.normal_layout import NormalLayout


def validate_extent_map(m: ExtentMap) -> None:
    """Check an extent map's internal invariants (sorted, non-overlapping,
    merged) row by row over its raw columns; raise :class:`ExtentError`
    naming the first fault.  Formerly ``ExtentMap.validate``, the
    straight-line oracle of :func:`repro.block.extent.invalid_maps`."""
    rows = list(zip(m._logical, m._physical, m._length, m._flags))
    for (l0, p0, n0, f0), (l1, p1, n1, f1) in zip(rows, rows[1:]):
        if l0 + n0 > l1:
            fault = "overlapping"
        elif l0 + n0 == l1 and p0 + n0 == p1 and f0 == f1:
            fault = "unmerged abutting"
        else:
            continue
        a, b = Extent(l0, p0, n0, f0), Extent(l1, p1, n1, f1)
        raise ExtentError(f"{fault} extents: {a} / {b}")


def check_dataplane_reference(
    plane: DataPlane, strict_accounting: bool = True
) -> FsckReport:
    """Single-threaded dict-based data-plane checker (equivalence oracle)."""
    report = FsckReport()
    owner: dict[int, str] = {}
    mapped_blocks = 0
    for f in plane.files():
        for slot, smap in enumerate(f.maps):
            try:
                validate_extent_map(smap)
            except Exception as exc:  # structural corruption
                report.error(f"{f.name} slot {slot}: invalid extent map: {exc}", code="extent-map-invalid")
                continue
            for ext in smap:
                report.checked_extents += 1
                mapped_blocks += ext.length
                try:
                    group = plane.fsm.group_of(ext.physical)
                except Exception:
                    report.error(
                        f"{f.name} slot {slot}: extent {ext} outside the array",
                        code="extent-outside-array",
                    )
                    continue
                if ext.physical_end > group.end:
                    report.error(
                        f"{f.name} slot {slot}: extent {ext} crosses its PAG",
                        code="extent-crosses-pag",
                    )
                if group.index != f.layout[slot]:
                    report.error(
                        f"{f.name} slot {slot}: extent {ext} in PAG {group.index}, "
                        f"layout says {f.layout[slot]}",
                        code="extent-wrong-pag",
                    )
                for b in range(ext.physical, ext.physical_end):
                    prior = owner.get(b)
                    if prior is not None:
                        report.error(
                            f"block {b} owned by both {prior} and {f.name}#{slot}",
                            code="double-owned-block",
                        )
                        break
                    owner[b] = f"{f.name}#{slot}"
                if any(
                    group.free.is_free(b, 1)
                    for b in range(ext.physical, ext.physical_end)
                ):
                    report.error(
                        f"{f.name} slot {slot}: extent {ext} maps free blocks",
                        code="extent-maps-free",
                    )
    if strict_accounting:
        held = plane.fsm.used_blocks - mapped_blocks
        if held < 0:
            report.error(
                f"accounting: mapped {mapped_blocks} blocks exceed used "
                f"{plane.fsm.used_blocks}",
                code="accounting-overmapped",
            )
    return report


def check_mds_reference(mds: MetadataServer) -> FsckReport:
    """Single-threaded dict-based metadata checker (equivalence oracle)."""
    report = FsckReport()
    layout = mds.layout
    if isinstance(layout, EmbeddedLayout):
        _check_embedded(layout, report)
    elif isinstance(layout, NormalLayout):
        _check_normal(layout, report)
    return report


def _check_embedded(layout: EmbeddedLayout, report: FsckReport) -> None:
    content_owner: dict[int, int] = {}
    for d in layout._dirs.values():
        for start, count in d.content_runs:
            for b in range(start, start + count):
                prior = content_owner.get(b)
                if prior is not None:
                    report.error(
                        f"content block {b} owned by dirs {prior} and {d.dir_id}",
                        code="content-block-overlap",
                    )
                content_owner[b] = d.dir_id
        if d.dir_id not in layout.gdt:
            report.error(f"directory {d.dir_id} missing from the directory table",
                code="dir-missing-from-gdt",
            )
        for name, ino in d.entries.items():
            report.checked_inodes += 1
            try:
                inode = layout.inode_by_number(ino)
            except Exception:
                report.error(f"dir {d.dir_id}: entry {name!r} -> dangling inode {ino}",
                    code="dangling-inode",
                )
                continue
            if not inode.is_dir and inode.home_block not in content_owner:
                report.error(
                    f"inode {ino} ({name!r}) home block {inode.home_block} "
                    f"outside any directory content",
                    code="orphan-home-block",
                )
            if inode.name != name:
                report.error(
                    f"inode {ino}: name {inode.name!r} != entry name {name!r}",
                    code="inode-name-mismatch",
                )
    # Every live directory id must resolve through the table.
    for d in layout._dirs.values():
        try:
            layout.gdt.dir_ino_of(d.dir_id)
        except Exception:
            report.error(f"directory table cannot resolve dir {d.dir_id}",
                code="gdt-unresolvable",
            )


def _check_normal(layout: NormalLayout, report: FsckReport) -> None:
    mfs = layout.mfs
    for d in layout._dirs.values():
        if len(d.dentry_blocks) != len(d.fill):
            report.error(f"dir {d.ino}: dentry-block/fill length mismatch",
                code="dentry-fill-mismatch",
            )
        occupancy = sum(d.fill)
        if occupancy != len(d.entries):
            report.error(
                f"dir {d.ino}: fill says {occupancy} entries, map has {len(d.entries)}",
                code="entry-count-mismatch",
            )
        for name, ino in d.entries.items():
            report.checked_inodes += 1
            try:
                inode = layout.inode_by_number(ino)
            except Exception:
                report.error(f"dir {d.ino}: entry {name!r} -> dangling inode {ino}",
                    code="dangling-inode",
                )
                continue
            expected_block, expected_slot = mfs.itable_block_of(ino)
            if (inode.home_block, inode.home_slot) != (expected_block, expected_slot):
                report.error(
                    f"inode {ino}: home {inode.home_block}/{inode.home_slot} != "
                    f"itable {expected_block}/{expected_slot}",
                    code="inode-home-mismatch",
                )
            if d.entry_block.get(name) not in d.dentry_blocks:
                report.error(f"dir {d.ino}: entry {name!r} in unknown dentry block",
                    code="entry-unknown-dentry-block",
                )
