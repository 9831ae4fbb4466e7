"""Copy-on-write / log-structured allocation (§II.B Ceph baseline)."""

import pytest

from repro.alloc.base import AllocTarget
from repro.alloc.cow import CowPolicy
from repro.block.freespace import FreeSpaceManager
from repro.config import AllocPolicyParams
from repro.fs.dataplane import DataPlane
from repro.units import KiB, MiB
from repro.workloads.streams import SharedFileMicrobench

from tests.conftest import small_config


def make_policy() -> CowPolicy:
    fsm = FreeSpaceManager(ndisks=1, blocks_per_disk=8192, pags_per_disk=1)
    return CowPolicy(AllocPolicyParams(policy="cow"), fsm)


TARGET = AllocTarget(group_index=0, slot=0)


class TestPolicy:
    def test_appends_in_arrival_order(self):
        p = make_policy()
        a = p.allocate(1, 100, TARGET, dlocal=0, count=4)
        b = p.allocate(1, 200, TARGET, dlocal=1000, count=4)
        c = p.allocate(2, 100, TARGET, dlocal=0, count=4)  # other file too
        assert b[0].physical == a[0].physical + 4
        assert c[0].physical == b[0].physical + 4

    def test_wraps_into_reclaimed_space(self):
        p = make_policy()
        fsm = p.fsm
        runs = p.allocate(1, 1, TARGET, dlocal=0, count=4096)
        # Free the first half (deleted segments) and exhaust the tail.
        fsm.free(runs[0].physical, 2048)
        p.allocate(1, 1, TARGET, dlocal=5000, count=4096)
        tail = p.allocate(1, 1, TARGET, dlocal=10000, count=1024)
        got = sum(r.length for r in tail)
        assert got == 1024  # found the reclaimed space


class TestCowDataPlane:
    def test_overwrite_relocates(self):
        plane = DataPlane(small_config(policy="cow"))
        f = plane.create_file("/f", width=1)
        plane.write(f, 1, 0, 64 * KiB)
        first = f.maps[0].extents()[0].physical
        plane.write(f, 1, 0, 64 * KiB)  # overwrite in place? no: relocated
        second = f.maps[0].extents()[0].physical
        assert second != first
        assert plane.metrics.count("fs.cow_relocated_blocks") == 16

    def test_overwrite_does_not_leak(self):
        plane = DataPlane(small_config(policy="cow"))
        free0 = plane.fsm.free_blocks
        f = plane.create_file("/f", width=1)
        for _ in range(8):
            plane.write(f, 1, 0, 64 * KiB)
        assert plane.fsm.free_blocks == free0 - 16  # only the live copy held
        plane.delete_file(f)
        assert plane.fsm.free_blocks == free0

    def test_in_place_policies_do_not_relocate(self):
        plane = DataPlane(small_config(policy="ondemand"))
        f = plane.create_file("/f", width=1)
        plane.write(f, 1, 0, 64 * KiB)
        first = f.maps[0].extents()[0].physical
        plane.write(f, 1, 0, 64 * KiB)
        assert f.maps[0].extents()[0].physical == first


class TestCowTradeOff:
    def test_writes_fast_reads_compromised(self):
        """§II.B: CoW 'works extremely well for write activity' but 'the
        performance of read traffic can be compromised' — on the shared
        concurrent-stream workload its reads fragment like reservation's,
        while on-demand keeps streams contiguous."""
        results = {}
        for policy in ("cow", "ondemand"):
            plane = DataPlane(small_config(policy=policy, ndisks=2))
            bench = SharedFileMicrobench(
                nstreams=16, file_bytes=16 * MiB, write_request_bytes=16 * KiB
            )
            f = bench.create_shared_file(plane)
            w = bench.phase1_write(plane, f)
            plane.close_file(f)
            r = bench.phase2_read(plane, f)
            results[policy] = (w.mib_per_s, r.mib_per_s, f.extent_count)
        # Arrival-order appends fragment the logical mapping far more.
        assert results["cow"][2] > 4 * results["ondemand"][2]
        # And its writes are at least as fast as on-demand's.
        assert results["cow"][0] >= results["ondemand"][0] * 0.9
