"""File-per-process workload and the §II.A.1 gap experiment."""

import pytest

from repro.core.runners import file_per_process_gap
from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.units import KiB, MiB
from repro.workloads.fpp import FilePerProcessBench

from tests.conftest import small_config


class TestFilePerProcessBench:
    def test_creates_one_file_per_stream(self):
        plane = DataPlane(small_config())
        bench = FilePerProcessBench(nstreams=4, total_bytes=4 * MiB)
        files = bench.create_files(plane)
        assert len(files) == 4
        assert len({f.name for f in files}) == 4

    def test_write_covers_every_file(self):
        plane = DataPlane(small_config())
        bench = FilePerProcessBench(
            nstreams=4, total_bytes=4 * MiB, write_request_bytes=16 * KiB
        )
        files = bench.create_files(plane)
        res = bench.phase1_write(plane, files)
        assert res.bytes_moved == 4 * MiB
        for f in files:
            assert f.written_blocks == 256

    def test_read_back_volume(self):
        plane = DataPlane(small_config())
        bench = FilePerProcessBench(nstreams=4, total_bytes=4 * MiB)
        files = bench.create_files(plane)
        w = bench.phase1_write(plane, files)
        for f in files:
            plane.close_file(f)
        r = bench.phase2_read(plane, files)
        assert w.bytes_moved == r.bytes_moved == 4 * MiB

    def test_validation(self):
        with pytest.raises(ConfigError):
            FilePerProcessBench(nstreams=3, total_bytes=4 * MiB + 1)
        with pytest.raises(ConfigError):
            FilePerProcessBench(nstreams=0)


@pytest.mark.slow
class TestGapExperiment:
    def test_gap_shape(self):
        gap = file_per_process_gap(nstreams=32, scale=1.0)
        # Traditional placement: clear multi-x gap (paper: ~5x).
        assert gap.gap("reservation") > 2.0
        # On-demand pulls the shared file toward per-process performance.
        assert gap.gap("ondemand") < gap.gap("reservation")
        assert gap.shared["ondemand"] > gap.shared["reservation"]
