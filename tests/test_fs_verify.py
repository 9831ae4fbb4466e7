"""Online fsck: catches leaks, double allocations and namespace damage."""

import pytest

from repro.alloc.registry import POLICY_NAMES
from repro.block.extent import Extent
from repro.fs.dataplane import DataPlane
from repro.fs.redbud import RedbudFileSystem
from repro.fs.verify import check_dataplane, check_mds
from repro.units import KiB, MiB
from repro.workloads.streams import SharedFileMicrobench

from tests.conftest import small_config


class TestDataplaneFsck:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_clean_after_churn(self, policy):
        plane = DataPlane(small_config(policy=policy))
        bench = SharedFileMicrobench(
            nstreams=4, file_bytes=4 * MiB, write_request_bytes=16 * KiB
        )
        f = bench.create_shared_file(plane)
        bench.phase1_write(plane, f)
        plane.close_file(f)
        g = plane.create_file("/other", expected_bytes=1 * MiB)
        plane.write(g, 9, 0, 1 * MiB)
        plane.fsync(g)
        report = check_dataplane(plane)
        report.raise_if_dirty()
        assert report.checked_extents > 0

    def test_detects_double_ownership(self):
        plane = DataPlane(small_config(policy="vanilla"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        b = plane.create_file("/b")
        ext = a.maps[0].extents()[0]
        # Corrupt: map file b onto file a's physical blocks.
        b.maps[0].insert(Extent(0, ext.physical, ext.length))
        report = check_dataplane(plane)
        assert not report.clean
        assert any("owned by both" in e for e in report.errors)

    def test_detects_mapping_of_free_blocks(self):
        plane = DataPlane(small_config(policy="vanilla"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        ext = a.maps[0].extents()[0]
        plane.fsm.free(ext.physical, ext.length)  # corrupt the books
        report = check_dataplane(plane, strict_accounting=False)
        assert not report.clean
        assert any("maps free blocks" in e for e in report.errors)

    def test_raise_if_dirty(self):
        plane = DataPlane(small_config(policy="vanilla"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        ext = a.maps[0].extents()[0]
        plane.fsm.free(ext.physical, ext.length)
        with pytest.raises(AssertionError):
            check_dataplane(plane, strict_accounting=False).raise_if_dirty()


class TestMdsFsck:
    @pytest.mark.parametrize("layout", ["normal", "embedded"])
    def test_clean_after_namespace_churn(self, layout):
        fs = RedbudFileSystem(small_config(layout=layout))
        fs.mkdir("/d")
        for i in range(60):
            fs.create(f"/d/f{i}")
        for i in range(0, 60, 3):
            fs.unlink(f"/d/f{i}")
        fs.rename("/d/f1", "/d/renamed")
        report = check_mds(fs.mds)
        report.raise_if_dirty()
        assert report.checked_inodes > 0

    def test_detects_dangling_entry_embedded(self):
        fs = RedbudFileSystem(small_config(layout="embedded"))
        fs.mkdir("/d")
        inode = fs.mds.create(fs.dir_handle("/d"), "f")
        del fs.mds.layout._inodes[inode.ino]  # corrupt
        report = check_mds(fs.mds)
        assert any("dangling" in e for e in report.errors)

    def test_detects_fill_mismatch_normal(self):
        fs = RedbudFileSystem(small_config(layout="normal"))
        fs.mkdir("/d")
        fs.create("/d/f")
        d = fs.dir_handle("/d")
        d.fill[0] += 1  # corrupt the occupancy counter
        report = check_mds(fs.mds)
        assert any("fill says" in e for e in report.errors)


class TestFindingCodes:
    """Each corruption class maps to a stable machine-readable code — the
    contract the layout inspector's invariant assumptions rest on."""

    def test_double_allocated_block_code(self):
        plane = DataPlane(small_config(policy="vanilla"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        b = plane.create_file("/b")
        ext = a.maps[0].extents()[0]
        b.maps[0].insert(Extent(0, ext.physical, ext.length))
        report = check_dataplane(plane)
        assert report.has("double-owned-block")
        assert "double-owned-block" in report.codes

    def test_dangling_extent_outside_array_code(self):
        plane = DataPlane(small_config(policy="vanilla"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        # Corrupt: extent pointing past the end of the disk array.
        a.maps[0].insert(Extent(10_000, plane.fsm.total_blocks + 64, 8))
        report = check_dataplane(plane, strict_accounting=False)
        assert report.has("extent-outside-array")

    def test_extent_maps_free_blocks_code(self):
        plane = DataPlane(small_config(policy="vanilla"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        ext = a.maps[0].extents()[0]
        plane.fsm.free(ext.physical, ext.length)
        report = check_dataplane(plane, strict_accounting=False)
        assert report.has("extent-maps-free")

    def test_orphan_embedded_inode_code(self):
        fs = RedbudFileSystem(small_config(layout="embedded"))
        fs.mkdir("/d")
        fs.create("/d/f")
        layout = fs.mds.layout
        (ino,) = [
            i for i in layout._inodes.rows if layout._inodes[i].name == "f"
        ]
        # Corrupt: home block relocated outside every directory's content.
        layout._inodes[ino].home_block = 10**9
        report = check_mds(fs.mds)
        assert report.has("orphan-home-block")

    def test_dangling_inode_code_embedded(self):
        fs = RedbudFileSystem(small_config(layout="embedded"))
        fs.mkdir("/d")
        inode = fs.mds.create(fs.dir_handle("/d"), "f")
        del fs.mds.layout._inodes[inode.ino]
        report = check_mds(fs.mds)
        assert report.has("dangling-inode")

    def test_clean_report_has_no_codes(self):
        plane = DataPlane(small_config(policy="ondemand"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        plane.fsync(a)
        report = check_dataplane(plane)
        assert report.codes == set()
        assert report.clean
