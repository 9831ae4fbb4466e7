"""Trace replay, layout visualization, and the command-line interface.

Trace replay is ``examples/trace_replay.py``: no runner of the package
uses it, and these tests keep it working against the data plane."""

import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.cli import main
from repro.fs.dataplane import DataPlane
from repro.sim.visual import extent_histogram, layout_map
from repro.units import KiB, MiB
from repro.workloads.traces import TraceRecord, synth_checkpoint_trace

from tests.conftest import small_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
import trace_replay  # noqa: E402
from trace_replay import (  # noqa: E402
    dump_trace,
    load_trace,
    read_trace,
    replay,
    save_trace,
)


class TestTraceFormat:
    def test_roundtrip(self):
        records = synth_checkpoint_trace(4, 64 * KiB, 16 * KiB, jitter=0.2, seed=3)
        parsed = load_trace(dump_trace(records))
        assert parsed == records

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n0,1,write,0,4096\n"
        records = load_trace(text)
        assert len(records) == 1
        assert records[0].proc == 1

    def test_bad_field_count_rejected(self):
        with pytest.raises(ConfigError):
            load_trace("1,2,3\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError):
            load_trace("x,1,write,0,4096\n")

    def test_file_roundtrip(self, tmp_path):
        records = [TraceRecord(0, 0, "write", 0, 4096)]
        path = tmp_path / "t.trace"
        save_trace(records, str(path))
        assert read_trace(str(path)) == records


class TestReplay:
    def test_replay_writes_everything(self):
        plane = DataPlane(small_config())
        records = synth_checkpoint_trace(4, 256 * KiB, 16 * KiB)
        f = plane.create_file("/t", expected_bytes=1 * MiB)
        result = replay(plane, f, records, skip_probability=0.0)
        assert result.bytes_moved == 1 * MiB
        assert f.written_blocks == 256

    def test_script_replays_a_trace_file(self, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "x.trace")
        save_trace(synth_checkpoint_trace(4, 256 * KiB, 16 * KiB), path)
        monkeypatch.setattr(sys, "argv", ["trace_replay.py", path])
        trace_replay.main()
        out = capsys.readouterr().out
        assert "replaying 64 records (1 MiB)" in out
        assert "ondemand" in out and "extents" in out

    def test_replay_validates_threads(self):
        plane = DataPlane(small_config())
        f = plane.create_file("/t")
        with pytest.raises(ConfigError):
            replay(plane, f, [], threads_per_client=0)


class TestVisual:
    @pytest.fixture
    def plane_file(self):
        plane = DataPlane(small_config(policy="ondemand"))
        f = plane.create_file("/v")
        for i in range(16):
            plane.write(f, 1, i * 64 * KiB, 64 * KiB)
        return plane, f

    def test_layout_map_width_and_glyphs(self, plane_file):
        plane, f = plane_file
        art = layout_map(plane, f, slot=0, width=32)
        assert len(art) == 32
        assert any(c != "." for c in art)

    def test_layout_map_empty_file(self):
        plane = DataPlane(small_config())
        f = plane.create_file("/e")
        assert layout_map(plane, f, width=10) == "." * 10

    def test_layout_map_validation(self, plane_file):
        plane, f = plane_file
        with pytest.raises(ValueError):
            layout_map(plane, f, slot=99)
        with pytest.raises(ValueError):
            layout_map(plane, f, width=0)

    def test_extent_histogram_counts(self, plane_file):
        _, f = plane_file
        out = extent_histogram(f)
        assert f"extents: {f.extent_count}" in out

    def test_extent_histogram_empty(self):
        plane = DataPlane(small_config())
        f = plane.create_file("/e")
        assert extent_histogram(f) == "(no extents)"


class TestCli:
    def test_no_command_shows_help_on_stderr(self, capsys):
        assert main([]) == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err
        assert captured.out == ""

    def test_list_runners(self, capsys):
        assert main(["--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert "fig6a" in listed and "table1" in listed

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "redbud-mif" in out
        assert "embedded" in out

    @pytest.mark.parametrize("argv", [
        ["microbench"], ["trace-synth", "x"], ["trace-replay", "x"], ["defrag"],
        ["bench", "compare"],
    ], ids=["microbench", "trace-synth", "trace-replay", "defrag", "bench-compare"])
    def test_removed_subcommands_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_claims(self, capsys):
        # Tiny scale just exercises the command path.
        assert main(["claims", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "interference" in out
        assert "prealloc waste" in out

    def test_fsck_finds_and_repairs_corruption(self, capsys):
        assert main(["fsck", "--scale", "0.3", "--seed", "3"]) == 1
        out = capsys.readouterr().out
        assert "crashed image:" in out
        assert "finding(s)" in out
        assert main(["fsck", "--scale", "0.3", "--seed", "3", "--repair"]) == 0
        out = capsys.readouterr().out
        assert "clean after" in out
