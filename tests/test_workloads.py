"""Workload generators: traces, micro-benchmark, IOR, BTIO, sizes."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.units import KiB, MiB
from repro.workloads.base import ReadOp, StreamProgram, WriteOp, run_data_phase
from repro.workloads.btio import BTIOBenchmark
from repro.workloads.filesizes import kernel_tree_sizes, tarball_bytes
from repro.workloads.ior import IORBenchmark
from repro.workloads.streams import SharedFileMicrobench
from repro.workloads.traces import synth_checkpoint_trace, trace_streams

from tests.conftest import small_config


def make_plane(policy="ondemand") -> DataPlane:
    return DataPlane(small_config(policy=policy))


class TestTraces:
    def test_covers_every_region_exactly(self):
        recs = synth_checkpoint_trace(4, region_bytes=64 * KiB, request_bytes=16 * KiB)
        per_proc = trace_streams(recs)
        assert set(per_proc) == {0, 1, 2, 3}
        for p, rs in per_proc.items():
            assert sum(r.nbytes for r in rs) == 64 * KiB
            assert min(r.offset for r in rs) == p * 64 * KiB

    def test_round_robin_interleave(self):
        recs = synth_checkpoint_trace(3, region_bytes=32 * KiB, request_bytes=16 * KiB)
        assert [r.proc for r in recs[:3]] == [0, 1, 2]

    def test_per_proc_order_is_sequential(self):
        recs = synth_checkpoint_trace(2, region_bytes=64 * KiB, request_bytes=16 * KiB)
        for p, rs in trace_streams(recs).items():
            offsets = [r.offset for r in rs]
            assert offsets == sorted(offsets)

    def test_jitter_preserves_volume(self):
        recs = synth_checkpoint_trace(
            4, region_bytes=64 * KiB, request_bytes=16 * KiB, jitter=0.5, seed=7
        )
        assert sum(r.nbytes for r in recs) == 4 * 64 * KiB

    def test_uneven_tail_request(self):
        recs = synth_checkpoint_trace(1, region_bytes=20 * KiB, request_bytes=16 * KiB)
        assert [r.nbytes for r in recs] == [16 * KiB, 4 * KiB]

    def test_validation(self):
        with pytest.raises(ConfigError):
            synth_checkpoint_trace(0, 1, 1)
        with pytest.raises(ConfigError):
            synth_checkpoint_trace(1, 1, 1, jitter=2.0)


class TestRunDataPhase:
    def test_counts_bytes_and_ops(self):
        plane = make_plane()
        f = plane.create_file("/f")
        prog = StreamProgram(1, [WriteOp(f, 0, 64 * KiB), ReadOp(f, 0, 64 * KiB)])
        res = run_data_phase(plane, [prog], skip_probability=0.0)
        assert res.bytes_moved == 128 * KiB
        assert res.ops == 2
        assert res.elapsed > 0.0

    def test_empty_programs(self):
        plane = make_plane()
        res = run_data_phase(plane, [], skip_probability=0.0)
        assert res.bytes_moved == 0

    def test_concurrent_streams_all_complete(self):
        plane = make_plane()
        f = plane.create_file("/f")
        progs = [
            StreamProgram(s, [WriteOp(f, s * 256 * KiB + i * 16 * KiB, 16 * KiB) for i in range(16)])
            for s in range(4)
        ]
        res = run_data_phase(plane, progs, skip_probability=0.0)
        assert res.ops == 64
        assert f.written_blocks == 256

    def test_jitter_does_not_lose_ops(self):
        plane = make_plane()
        f = plane.create_file("/f")
        progs = [
            StreamProgram(s, [WriteOp(f, (s * 16 + i) * 16 * KiB, 16 * KiB) for i in range(16)])
            for s in range(4)
        ]
        res = run_data_phase(plane, progs, skip_probability=0.3, seed=3)
        assert res.ops == 64

    def test_bad_args(self):
        plane = make_plane()
        with pytest.raises(ValueError):
            run_data_phase(plane, [], skip_probability=1.5)
        with pytest.raises(ValueError):
            run_data_phase(plane, [], read_buffer_blocks=0)


class TestSharedFileMicrobench:
    def test_phase1_writes_whole_file(self):
        plane = make_plane()
        mb = SharedFileMicrobench(nstreams=4, file_bytes=8 * MiB, write_request_bytes=16 * KiB)
        f = mb.create_shared_file(plane)
        res = mb.phase1_write(plane, f)
        assert res.bytes_moved == 8 * MiB
        assert f.written_blocks == 2048

    def test_phase2_reads_whole_file(self):
        plane = make_plane()
        mb = SharedFileMicrobench(
            nstreams=4, file_bytes=8 * MiB, write_request_bytes=16 * KiB, segments=64
        )
        f = mb.create_shared_file(plane)
        mb.phase1_write(plane, f)
        plane.close_file(f)
        res = mb.phase2_read(plane, f)
        assert res.bytes_moved == 8 * MiB

    def test_file_must_divide_among_streams(self):
        with pytest.raises(ConfigError):
            SharedFileMicrobench(nstreams=3, file_bytes=8 * MiB)

    def test_run_returns_both_phases(self):
        plane = make_plane()
        mb = SharedFileMicrobench(nstreams=4, file_bytes=4 * MiB, segments=64)
        f = mb.create_shared_file(plane)
        w = mb.phase1_write(plane, f)
        plane.close_file(f)
        r = mb.phase2_read(plane, f)
        assert w.bytes_moved == r.bytes_moved == 4 * MiB


class TestIOR:
    def test_each_proc_covers_its_share(self):
        bench = IORBenchmark(nprocs=4, file_bytes=8 * MiB, request_bytes=64 * KiB)
        plane = make_plane()
        f = bench.create_file(plane)
        res = bench.write_phase(plane, f)
        assert res.bytes_moved == 8 * MiB
        assert f.written_blocks == 2048

    def test_collective_uses_fewer_streams(self):
        nc = IORBenchmark(nprocs=8, file_bytes=8 * MiB, collective=False)
        co = IORBenchmark(nprocs=8, file_bytes=8 * MiB, collective=True, aggregators=2)
        f_nc = nc._programs(make_plane().create_file("/x"), write=True)
        f_co = co._programs(make_plane().create_file("/y"), write=True)
        assert len(f_nc) == 8
        assert len(f_co) == 2

    def test_run_combines_phases(self):
        bench = IORBenchmark(nprocs=4, file_bytes=4 * MiB)
        plane = make_plane()
        f = bench.create_file(plane)
        w = bench.write_phase(plane, f)
        plane.close_file(f)
        r = bench.read_phase(plane, f)
        assert w.bytes_moved + r.bytes_moved == 8 * MiB  # write + read back

    def test_validation(self):
        with pytest.raises(ConfigError):
            IORBenchmark(nprocs=3, file_bytes=1 * MiB + 1)


class TestBTIO:
    def test_write_pattern_covers_file(self):
        bench = BTIOBenchmark(
            nprocs=4, step_bytes_per_proc=256 * KiB, steps=2,
            chunk_bytes=8 * KiB, subrun_bytes=64 * KiB,
        )
        plane = make_plane()
        f = bench.create_file(plane)
        res = bench.write_phase(plane, f)
        assert res.bytes_moved == bench.file_bytes
        assert f.written_blocks * 4096 == bench.file_bytes

    def test_subruns_are_strided_across_procs(self):
        bench = BTIOBenchmark(
            nprocs=4, step_bytes_per_proc=256 * KiB, steps=1,
            chunk_bytes=8 * KiB, subrun_bytes=64 * KiB,
        )
        plane = make_plane()
        f = bench.create_file(plane)
        progs = bench._write_programs(f)
        # Proc 0's consecutive sub-runs are not logically adjacent.
        ops = list(progs[0])
        row_starts = sorted({op.offset // (64 * KiB) for op in ops})
        gaps = [b - a for a, b in zip(row_starts, row_starts[1:])]
        # Diagonal rotation: consecutive rows of one proc are nprocs+1
        # row-slots apart — strided, never adjacent.
        assert all(g == 5 for g in gaps)

    def test_requires_square_proc_count(self):
        with pytest.raises(ConfigError):
            BTIOBenchmark(nprocs=6)

    def test_alignment_validation(self):
        with pytest.raises(ConfigError):
            BTIOBenchmark(nprocs=4, subrun_bytes=10 * KiB, chunk_bytes=8 * KiB)

    def test_read_mirrors_write_decomposition(self):
        bench = BTIOBenchmark(
            nprocs=4, step_bytes_per_proc=256 * KiB, steps=1,
            chunk_bytes=8 * KiB, subrun_bytes=64 * KiB,
        )
        plane = make_plane()
        f = bench.create_file(plane)
        bench.write_phase(plane, f)
        plane.close_file(f)
        res = bench.read_phase(plane, f)
        assert res.bytes_moved == bench.file_bytes


class TestFileSizes:
    def test_deterministic_per_seed(self):
        a = kernel_tree_sizes(100, seed=1)
        b = kernel_tree_sizes(100, seed=1)
        c = kernel_tree_sizes(100, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bounded(self):
        sizes = kernel_tree_sizes(5000, seed=0)
        assert sizes.min() >= 64
        assert sizes.max() <= 2 * 1024 * 1024

    def test_right_skewed_small_median(self):
        sizes = kernel_tree_sizes(5000, seed=0)
        assert np.median(sizes) < 16 * KiB
        assert sizes.mean() > np.median(sizes)

    def test_tarball_compresses(self):
        sizes = kernel_tree_sizes(100, seed=0)
        assert tarball_bytes(sizes) < int(sizes.sum())

    def test_validation(self):
        with pytest.raises(ConfigError):
            kernel_tree_sizes(0)
