"""Replication manager (§II.B InterferenceRemoval baseline).

The manager is ``examples/replication.py``: nothing in the package uses
it, and these tests keep it working against the data plane."""

import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.fs.dataplane import DataPlane
from repro.units import KiB, MiB
from repro.workloads.streams import SharedFileMicrobench

from tests.conftest import small_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
from replication import ReplicationManager  # noqa: E402


def fragmented_file(plane: DataPlane):
    """Create a shared file fragmented by 8 interleaved streams."""
    bench = SharedFileMicrobench(
        nstreams=8, file_bytes=8 * MiB, write_request_bytes=16 * KiB
    )
    f = bench.create_shared_file(plane)
    bench.phase1_write(plane, f)
    plane.close_file(f)
    return f


class TestReplication:
    def test_validation(self):
        plane = DataPlane(small_config(policy="reservation"))
        with pytest.raises(ReproError):
            ReplicationManager(plane, trigger_ratio=1.0)
        with pytest.raises(ReproError):
            ReplicationManager(plane, min_reads=0)

    def test_triggers_after_fragmented_reads(self):
        plane = DataPlane(small_config(policy="reservation"))
        f = fragmented_file(plane)
        mgr = ReplicationManager(plane, trigger_ratio=2.0, min_reads=4)
        for i in range(8):
            mgr.read(f, i * 256 * KiB, 256 * KiB)
        assert mgr.is_replicated(f)
        assert plane.metrics.count("replica.built") == 1

    def test_replica_reads_are_less_fragmented(self):
        plane = DataPlane(small_config(policy="reservation"))
        f = fragmented_file(plane)
        mgr = ReplicationManager(plane, trigger_ratio=2.0, min_reads=1)
        original = plane.read(f, 0, 1 * MiB)
        mgr.replicate(f)
        replica = mgr.read(f, 0, 1 * MiB)
        assert sum(r.nblocks for r in replica) == sum(r.nblocks for r in original)
        assert len(replica) < len(original)

    def test_replication_is_not_free(self):
        """The paper's §II.B point: the copy itself costs a full read of
        the fragmented original plus a full write."""
        plane = DataPlane(small_config(policy="reservation"))
        f = fragmented_file(plane)
        mgr = ReplicationManager(plane)
        requests = mgr.replicate(f)
        copied = sum(r.nblocks for r in requests if r.is_write)
        read_back = sum(r.nblocks for r in requests if not r.is_write)
        assert copied == f.written_blocks
        assert read_back == f.written_blocks

    def test_write_invalidates_replica(self):
        plane = DataPlane(small_config(policy="reservation"))
        f = fragmented_file(plane)
        mgr = ReplicationManager(plane)
        mgr.replicate(f)
        free_with_replica = plane.fsm.free_blocks
        mgr.write(f, 1, 0, 16 * KiB)
        assert not mgr.is_replicated(f)
        assert plane.fsm.free_blocks > free_with_replica  # replica freed
        assert plane.metrics.count("replica.invalidations") == 1

    def test_drop_replica_returns_all_blocks(self):
        plane = DataPlane(small_config(policy="reservation"))
        f = fragmented_file(plane)
        before = plane.fsm.free_blocks
        mgr = ReplicationManager(plane)
        mgr.replicate(f)
        assert plane.fsm.free_blocks == before - f.written_blocks
        mgr.drop_replica(f)
        assert plane.fsm.free_blocks == before

    def test_replica_covers_every_logical_block(self):
        plane = DataPlane(small_config(policy="reservation"))
        f = fragmented_file(plane)
        mgr = ReplicationManager(plane)
        mgr.replicate(f)
        requests = mgr.read(f, 0, 8 * MiB)
        assert sum(r.nblocks for r in requests) == f.written_blocks

    def test_mispredicted_replication_reclaims_nothing(self):
        """Trigger fires on the *last* read: pure overhead (the paper's
        'false predication of last IO timing')."""
        plane = DataPlane(small_config(policy="reservation"))
        f = fragmented_file(plane)
        mgr = ReplicationManager(plane, trigger_ratio=2.0, min_reads=8)
        total_blocks = 0
        for i in range(8):  # the 8th read triggers the copy, then we stop
            for r in mgr.read(f, i * 256 * KiB, 256 * KiB):
                total_blocks += r.nblocks
        useful = 8 * 64  # 8 reads of 64 blocks
        assert total_blocks >= useful + 2 * f.written_blocks  # copy overhead paid
        assert mgr.is_replicated(f)  # ...for nothing further
