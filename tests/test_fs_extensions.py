"""Client sessions, crash recovery, defragmentation, hybrid policy.

The defragmenter is ``examples/defrag.py``: no runner of the package uses
it, and these tests keep it working against the data plane."""

import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.fs.client import ClientSession, make_clients
from repro.fs.dataplane import DataPlane
from repro.fs.redbud import RedbudFileSystem
from repro.fs.verify import check_dataplane
from repro.units import KiB, MiB
from repro.workloads.streams import SharedFileMicrobench

from tests.conftest import small_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
import defrag  # noqa: E402
from defrag import defragment  # noqa: E402


class TestClientSession:
    @pytest.fixture
    def fs(self) -> RedbudFileSystem:
        return RedbudFileSystem(small_config())

    def test_stream_identity(self, fs):
        a = ClientSession(fs, 3)
        b = ClientSession(fs, 4)
        assert a.stream(0) != b.stream(0)
        assert a.stream(0) != a.stream(1)

    def test_open_caches_layout(self, fs):
        c = ClientSession(fs, 0)
        c.create("/f")
        c.write("/f", 0, 64 * KiB)
        c.open("/f")
        before = c.stats.mds_requests
        c.open("/f")
        c.open("/f")
        assert c.stats.mds_requests == before
        assert c.stats.layout_cache_hits == 2

    def test_extending_write_invalidates_layout(self, fs):
        c = ClientSession(fs, 0)
        c.create("/f")
        c.write("/f", 0, 64 * KiB)
        c.open("/f")
        before = c.stats.mds_requests
        c.write("/f", 64 * KiB, 64 * KiB)  # new extents -> generation bump
        c.open("/f")
        assert c.stats.mds_requests == before + 1

    def test_overwrite_keeps_cached_layout(self, fs):
        c = ClientSession(fs, 0)
        c.create("/f")
        c.write("/f", 0, 64 * KiB)
        c.open("/f")
        before = c.stats.mds_requests
        c.write("/f", 0, 64 * KiB)  # in-place: no new extents
        c.open("/f")
        assert c.stats.mds_requests == before

    def test_ls_l_fills_attr_cache(self, fs):
        fs.mkdir("/d")
        c = ClientSession(fs, 0)
        for i in range(10):
            c.create(f"/d/f{i}")
        c.ls_l("/d")
        before = c.stats.mds_requests
        for i in range(10):
            c.stat(f"/d/f{i}")
        assert c.stats.mds_requests == before
        assert c.stats.attr_cache_hits == 10

    def test_invalidate(self, fs):
        c = ClientSession(fs, 0)
        c.create("/f")
        c.open("/f")
        c.invalidate("/f")
        before = c.stats.mds_requests
        c.open("/f")
        assert c.stats.mds_requests == before + 1

    def test_unlink_drops_cached_state(self, fs):
        c = ClientSession(fs, 0)
        c.create("/f")
        c.open("/f")
        c.unlink("/f")
        assert "/f" not in c._layouts

    def test_make_clients(self, fs):
        clients = make_clients(fs, 4)
        assert [c.client_id for c in clients] == [0, 1, 2, 3]
        with pytest.raises(ReproError):
            make_clients(fs, 0)


class TestCrashRecovery:
    def test_reclaims_volatile_reservations(self):
        """§III.A: sequential windows are temporary; current-window blocks
        handed to files persist across reboots."""
        plane = DataPlane(small_config(policy="ondemand"))
        free0 = plane.fsm.free_blocks
        f = plane.create_file("/f")
        for i in range(8):
            plane.write(f, 1, i * 16 * KiB, 16 * KiB)
        mapped = f.mapped_blocks
        held_before = free0 - plane.fsm.free_blocks
        assert held_before > mapped  # windows hold extra blocks
        reclaimed = plane.crash_recover()
        assert reclaimed == held_before - mapped
        assert plane.fsm.free_blocks == free0 - mapped
        check_dataplane(plane).raise_if_dirty()

    def test_data_survives_and_fs_remains_usable(self):
        plane = DataPlane(small_config(policy="ondemand"))
        f = plane.create_file("/f")
        plane.write(f, 1, 0, 256 * KiB)
        extents = [(e.logical, e.physical, e.length) for e in f.maps[0]]
        plane.crash_recover()
        assert [(e.logical, e.physical, e.length) for e in f.maps[0]] == extents
        # New writes keep working and never collide with recovered data.
        plane.write(f, 1, 256 * KiB, 256 * KiB)
        check_dataplane(plane).raise_if_dirty()

    def test_reservation_pools_die_with_the_crash(self):
        plane = DataPlane(small_config(policy="reservation"))
        free0 = plane.fsm.free_blocks
        f = plane.create_file("/f")
        plane.write(f, 1, 0, 16 * KiB)  # reserves a pool far larger
        assert free0 - plane.fsm.free_blocks > f.mapped_blocks
        plane.crash_recover()
        assert free0 - plane.fsm.free_blocks == f.mapped_blocks

    def test_delayed_buffers_are_lost(self):
        """Unsynced delayed-allocation data does not survive a crash —
        the classic delayed-allocation durability caveat."""
        plane = DataPlane(small_config(policy="delayed"))
        f = plane.create_file("/f")
        plane.write(f, 1, 0, 64 * KiB)  # buffered, not allocated
        plane.crash_recover()
        assert f.written_blocks == 0
        assert plane.fsync(f) == []  # buffer gone


class TestDefrag:
    def make_fragmented(self):
        plane = DataPlane(small_config(policy="reservation"))
        bench = SharedFileMicrobench(
            nstreams=8, file_bytes=8 * MiB, write_request_bytes=16 * KiB
        )
        f = bench.create_shared_file(plane)
        bench.phase1_write(plane, f)
        plane.close_file(f)
        return plane, f

    def test_reduces_extents(self):
        plane, f = self.make_fragmented()
        result = defragment(plane, f)
        assert result.extents_after < result.extents_before / 4
        assert result.improvement > 4
        assert f.extent_count == result.extents_after

    def test_preserves_data_mapping_coverage(self):
        plane, f = self.make_fragmented()
        written = f.written_blocks
        defragment(plane, f)
        assert f.written_blocks == written
        check_dataplane(plane).raise_if_dirty()

    def test_copy_cost_charged(self):
        plane, f = self.make_fragmented()
        result = defragment(plane, f)
        assert result.blocks_moved == f.written_blocks
        assert result.elapsed_s > 0

    def test_no_space_leak(self):
        plane, f = self.make_fragmented()
        used_before = plane.fsm.used_blocks
        defragment(plane, f)
        assert plane.fsm.used_blocks == used_before
        plane.delete_file(f)
        assert plane.fsm.used_blocks == 0

    def test_empty_file(self):
        plane = DataPlane(small_config())
        f = plane.create_file("/e")
        result = defragment(plane, f)
        assert result.blocks_moved == 0
        assert result.extents_after == 0


    def test_script_fragments_then_defragments(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["defrag.py", "8"])
        defrag.main()
        out = capsys.readouterr().out
        assert "before:" in out and "after:" in out
        assert "defrag: moved" in out


class TestHybridPolicy:
    def test_declared_file_gets_fallocate(self):
        plane = DataPlane(small_config(policy="hybrid"))
        f = plane.create_file("/known", expected_bytes=1 * MiB)
        assert f.mapped_blocks == 256
        assert f.extent_count == f.width  # contiguous per slot

    def test_undeclared_file_gets_windows(self):
        plane = DataPlane(small_config(policy="hybrid"))
        f = plane.create_file("/unknown")
        plane.write(f, 7, 0, 16 * KiB)
        slot = f.slot_of(0)
        st = plane.policy.stream_state(f.file_id, 7, f.layout[slot])
        assert st is not None
        assert st.sequential is not None

    def test_mixed_population(self):
        plane = DataPlane(small_config(policy="hybrid"))
        known = plane.create_file("/k", expected_bytes=512 * KiB)
        unknown = plane.create_file("/u")
        for i in range(8):
            plane.write(known, 1, i * 64 * KiB, 64 * KiB)
            plane.write(unknown, 2, i * 64 * KiB, 64 * KiB)
        plane.close_file(known)
        plane.close_file(unknown)
        # Declared file perfectly contiguous; undeclared nearly so.
        assert known.extent_count <= known.width
        assert unknown.extent_count <= 4 * unknown.width
        check_dataplane(plane).raise_if_dirty()

    def test_delete_cleans_both_paths(self):
        plane = DataPlane(small_config(policy="hybrid"))
        free0 = plane.fsm.free_blocks
        k = plane.create_file("/k", expected_bytes=512 * KiB)
        u = plane.create_file("/u")
        plane.write(u, 1, 0, 64 * KiB)
        plane.close_file(u)
        plane.delete_file(k)
        plane.delete_file(u)
        assert plane.fsm.free_blocks == free0
