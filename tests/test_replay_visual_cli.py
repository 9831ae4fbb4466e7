"""Trace replay, layout visualization, and the command-line interface.

Trace replay is ``examples/trace_replay.py`` and the layout map lives in
``examples/defrag.py``: no runner of the package uses them, and these
tests keep them working against the data plane."""

import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.cli import main
from repro.fs.dataplane import DataPlane
from repro.units import KiB, MiB
from repro.workloads.traces import TraceRecord, synth_checkpoint_trace

from tests.conftest import small_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
import trace_replay  # noqa: E402
from defrag import layout_map  # noqa: E402
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

    @pytest.mark.parametrize("argv", [
        ["fig6a", "--scale", "nan"], ["fig6a", "--scale", "inf"],
        ["service", "--rates", "0"], ["service", "--rates", "nope"],
        ["service", "--rates", "small,0.5"], ["service", "--rates", "1.0000001,1.0000002"],
        ["service", "--rate", "inf"], ["service", "--duration", "0"],
        ["service", "--duration", "inf"], ["service", "--telemetry", "-1"],
        ["service", "--telemetry", "nan"], ["service", "--scrub-corrupt", "-1"],
        ["service", "--sample", "1/0"], ["service", "--slo", "junk"],
    ], ids=lambda argv: " ".join(argv))
    def test_rejected_inputs_are_usage_errors(self, argv, capsys):
        """Each value is refused while parsing, before anything runs."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}:" in err and "Traceback" not in err

    def test_fsck_finds_and_repairs_corruption(self, capsys):
        assert main(["fsck", "--scale", "0.3", "--seed", "3"]) == 1
        out = capsys.readouterr().out
        assert "crashed image:" in out
        assert "finding(s)" in out
        assert main(["fsck", "--scale", "0.3", "--seed", "3", "--repair"]) == 0
        out = capsys.readouterr().out
        assert "clean after" in out
