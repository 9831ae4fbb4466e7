"""Data plane: write/read mapping, striping, delete, fsync, accounting."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.fs.dataplane import DataPlane
from repro.units import KiB, MiB

from tests.conftest import pairs, small_config


def make_plane(policy="ondemand", **kw) -> DataPlane:
    return DataPlane(small_config(policy=policy, **kw))


class TestCreateDelete:
    def test_layout_rotates_over_disks(self):
        plane = make_plane()
        f = plane.create_file("/a")
        assert len(f.layout) == plane.config.ndisks
        disks = {plane.fsm.groups[g].disk_index for g in f.layout}
        assert len(disks) == plane.config.ndisks

    def test_narrow_stripe(self):
        plane = make_plane()
        f = plane.create_file("/a", width=1)
        assert f.width == 1

    def test_delete_frees_every_block(self):
        plane = make_plane()
        free0 = plane.fsm.free_blocks
        f = plane.create_file("/a")
        plane.write(f, 1, 0, 1 * MiB)
        plane.close_file(f)
        plane.delete_file(f)
        assert plane.fsm.free_blocks == free0
        assert f.deleted

    def test_operations_on_deleted_file_rejected(self):
        plane = make_plane()
        f = plane.create_file("/a")
        plane.delete_file(f)
        with pytest.raises(ReproError):
            plane.write(f, 1, 0, 4096)
        with pytest.raises(ReproError):
            plane.read(f, 0, 4096)


class TestWriteRead:
    def test_write_maps_all_blocks(self):
        plane = make_plane()
        f = plane.create_file("/a")
        plane.write(f, 1, 0, 100 * KiB)
        assert f.written_blocks == 25
        assert f.size_bytes == 100 * KiB

    def test_write_returns_requests_covering_data(self):
        plane = make_plane()
        f = plane.create_file("/a")
        starts, nblocks = plane.write(f, 1, 0, 64 * KiB)
        assert starts.dtype == nblocks.dtype == np.int64
        assert nblocks.sum() == 16

    def test_read_back_touches_same_physical_blocks(self):
        plane = make_plane()
        f = plane.create_file("/a")
        wreqs = plane.write(f, 1, 0, 64 * KiB)
        rreqs = plane.read(f, 0, 64 * KiB)
        wset = set(pairs(wreqs))
        rblocks = {
            b for s, n in pairs(rreqs) for b in range(s, s + n)
        }
        wblocks = {
            b for s, n in wset for b in range(s, s + n)
        }
        assert rblocks == wblocks

    def test_read_of_hole_costs_nothing(self):
        plane = make_plane()
        f = plane.create_file("/a")
        assert pairs(plane.read(f, 0, 4096)) == []

    def test_overwrite_does_not_reallocate(self):
        plane = make_plane()
        f = plane.create_file("/a")
        plane.write(f, 1, 0, 64 * KiB)
        used = plane.fsm.used_blocks
        plane.write(f, 1, 0, 64 * KiB)
        assert plane.fsm.used_blocks == used

    def test_sparse_write_leaves_hole(self):
        plane = make_plane()
        f = plane.create_file("/a")
        plane.write(f, 1, 1 * MiB, 4096)
        assert f.written_blocks == 1
        assert pairs(plane.read(f, 0, 4096)) == []

    def test_unaligned_write_rounds_to_blocks(self):
        plane = make_plane()
        f = plane.create_file("/a")
        plane.write(f, 1, 100, 5000)  # straddles blocks 0 and 1
        assert f.written_blocks == 2

    def test_zero_length_rejected(self):
        plane = make_plane()
        f = plane.create_file("/a")
        with pytest.raises(ReproError):
            plane.write(f, 1, 0, 0)
        with pytest.raises(ReproError):
            plane.read(f, 0, 0)

    def test_write_spanning_stripes_hits_multiple_disks(self):
        plane = make_plane()  # stripe 64 blocks = 256 KiB
        f = plane.create_file("/a")
        starts, _ = plane.write(f, 1, 0, 1 * MiB)
        disks = {plane.array.locate(s)[0] for s in starts.tolist()}
        assert len(disks) > 1


class TestStaticPolicyIntegration:
    def test_expected_bytes_fallocates(self):
        plane = make_plane(policy="static")
        f = plane.create_file("/a", expected_bytes=1 * MiB)
        assert f.mapped_blocks == 256
        assert f.written_blocks == 0

    def test_write_into_fallocated_space_allocates_nothing(self):
        plane = make_plane(policy="static")
        f = plane.create_file("/a", expected_bytes=1 * MiB)
        used = plane.fsm.used_blocks
        plane.write(f, 1, 0, 512 * KiB)
        assert plane.fsm.used_blocks == used
        assert f.written_blocks == 128

    def test_fallocated_layout_is_contiguous_per_slot(self):
        plane = make_plane(policy="static")
        f = plane.create_file("/a", expected_bytes=1 * MiB)
        assert f.extent_count == f.width


class TestDelayedPolicyIntegration:
    def test_write_buffers_then_fsync_materializes(self):
        plane = make_plane(policy="delayed")
        f = plane.create_file("/a")
        reqs = plane.write(f, 1, 0, 64 * KiB)
        assert pairs(reqs) == []  # buffered
        assert f.written_blocks == 0
        _, flushed = plane.fsync(f)
        assert flushed.sum() == 16
        assert f.written_blocks == 16

    def test_coalesced_flush_is_contiguous(self):
        plane = make_plane(policy="delayed")
        f = plane.create_file("/a", width=1)
        for i in range(8):
            plane.write(f, 1, i * 16 * KiB, 16 * KiB)
        flushed = plane.fsync(f)
        assert len(pairs(flushed)) == 1  # eight writes, one extent


class TestAccounting:
    def test_total_extents_sums_live_files(self):
        plane = make_plane()
        a = plane.create_file("/a")
        b = plane.create_file("/b")
        plane.write(a, 1, 0, 64 * KiB)
        plane.write(b, 1, 0, 64 * KiB)
        assert plane.total_extents() == a.extent_count + b.extent_count

    def test_utilization_rises_with_data(self):
        plane = make_plane()
        f = plane.create_file("/a")
        u0 = plane.utilization
        plane.write(f, 1, 0, 4 * MiB)
        assert plane.utilization > u0

    def test_metrics_flow(self):
        plane = make_plane()
        f = plane.create_file("/a")
        plane.write(f, 1, 0, 64 * KiB)
        plane.read(f, 0, 64 * KiB)
        assert plane.metrics.count("fs.writes") == 1
        assert plane.metrics.count("fs.reads") == 1
        assert plane.metrics.count("fs.bytes_written") == 64 * KiB
