"""Unified runner API: RunResult shape, unified invocation, trace CLI, and
structural behaviour of the experiment result types."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.run import RunResult, fingerprint, run, runner_names
from repro.core.runners import Fig6aResult, Fig7Result, MacroRun, prealloc_waste
from repro.errors import ConfigError
from repro.obs import Tracer
from repro.sim.metrics import ThroughputResult

SCALE = 0.05


class TestRegistry:
    def test_all_figures_registered(self):
        names = runner_names()
        for expected in ("fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "table1"):
            assert expected in names

    def test_unknown_runner_rejected(self):
        with pytest.raises(ConfigError, match="unknown runner"):
            run("fig99")

    def test_fingerprint_deterministic_and_order_free(self):
        a = fingerprint("fig6a", scale=0.5, seed=1)
        b = fingerprint("fig6a", seed=1, scale=0.5)
        assert a == b and len(a) == 12
        assert fingerprint("fig6a", scale=0.5, seed=2) != a


class TestRunResultShape:
    """RunResult contract across (at least) three different runners."""

    @pytest.fixture(scope="class")
    def fig6a(self):
        return run("fig6a", scale=SCALE, stream_counts=(4,),
                   policies=("reservation", "ondemand"), ndisks=2)

    @pytest.fixture(scope="class")
    def fig8(self):
        return run("fig8", scale=0.02, dir_sizes=(200,))

    @pytest.fixture(scope="class")
    def fig9(self):
        return run("fig9", scale=0.1, utilizations=(0.0,))

    def test_uniform_shape(self, fig6a, fig8, fig9):
        for result in (fig6a, fig8, fig9):
            assert isinstance(result, RunResult)
            assert len(result.fingerprint) == 12
            assert result.phases, f"{result.name} recorded no phases"
            for label, phase in result.phases.items():
                assert isinstance(phase, ThroughputResult), label
            assert result.payload is not None
            assert result.trace is None  # tracing off by default

    def test_fig6a_phases_and_metrics(self, fig6a):
        assert "read:ondemand:n4" in fig6a.phases
        read = fig6a.phase("read:ondemand:n4")
        assert read.mib_per_s == pytest.approx(
            fig6a.payload.throughput["ondemand"][4]
        )
        assert fig6a.metrics.count("fs.writes") > 0
        assert fig6a.metrics.histogram("disk.request_latency_s").count > 0

    def test_phase_lookup_error_names_known_phases(self, fig6a):
        with pytest.raises(KeyError, match="read:ondemand:n4"):
            fig6a.phase("nope")

    def test_fig8_phases_per_profile(self, fig8):
        assert "create:redbud-mif" in fig8.phases
        assert fig8.metrics.histogram("mds.op_latency_s").count > 0

    def test_fig9_payload_type(self, fig9):
        assert fig9.payload.get("redbud-mif", 0.0).create_ops_s > 0

    def test_trace_requested(self):
        result = run("fig6a", scale=SCALE, trace=True, stream_counts=(4,),
                     policies=("ondemand",), ndisks=2)
        assert isinstance(result.trace, Tracer)
        assert result.trace.rows()
        layers = {e.layer for e in result.trace.events()}
        assert "disk" in layers and "run" in layers


class TestUnifiedInvocation:
    """``run(name, scale=..., jobs=..., seed=...)`` works for every runner
    and the worker count never changes the result."""

    def test_jobs_kwarg_accepted_everywhere(self):
        # Every registered runner must accept the unified surface, even
        # single-cell ones like "faults".
        import inspect

        from repro.core.run import RUNNERS

        for name, fn in RUNNERS.items():
            params = inspect.signature(fn).parameters
            for expected in ("scale", "seed", "trace", "jobs"):
                assert expected in params, (name, expected)

    def test_jobs_does_not_change_result_or_fingerprint(self):
        serial = run("fig6a", scale=SCALE, stream_counts=(4,),
                     policies=("ondemand",), ndisks=2)
        fanned = run("fig6a", scale=SCALE, jobs=2, stream_counts=(4,),
                     policies=("ondemand",), ndisks=2)
        assert serial.fingerprint == fanned.fingerprint
        assert serial.payload == fanned.payload
        assert serial.phases == fanned.phases


class TestTraceCLI:
    def test_trace_chrome_output(self, tmp_path, capsys):
        out = tmp_path / "fig6a.json"
        rc = main([
            "trace", "fig6a", "--scale", "0.05", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"], "chrome trace must contain events"
        for e in doc["traceEvents"][:50]:
            assert e["ph"] == "X"
            assert isinstance(e["ts"], (int, float))
        printed = capsys.readouterr().out
        assert "layer breakdown" in printed
        assert "disk" in printed
        assert "phases" in printed

    def test_trace_jsonl_output(self, tmp_path, capsys):
        out = tmp_path / "fig6a.jsonl"
        rc = main([
            "trace", "fig6a", "--scale", "0.05", "--format", "jsonl",
            "--out", str(out),
        ])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
        assert lines
        rec = json.loads(lines[0])
        assert {"t", "layer", "op", "dur"} <= set(rec)


class TestImportOrder:
    @pytest.mark.parametrize(
        "module", ["repro.fs.verify", "repro.core.sweep", "repro.core.runners"]
    )
    def test_fresh_interpreter_imports_module_first(self, module):
        """``repro.core`` loads ``repro.fs`` before the runners, which
        closes the fs.verify -> core.sweep -> repro.fs cycle whichever
        module a program imports first."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestResultTypes:
    def test_fig6a_improvement(self):
        r = Fig6aResult(
            stream_counts=[32],
            throughput={"reservation": {32: 100.0}, "ondemand": {32: 120.0}},
            extents={"reservation": {32: 10}, "ondemand": {32: 2}},
        )
        assert r.improvement_over("reservation", "ondemand", 32) == pytest.approx(0.2)

    def test_fig7_get_raises_on_missing(self):
        r = Fig7Result(
            runs=[MacroRun("IOR", "ondemand", False, 1.0, 10, 0.5)]
        )
        assert r.get("IOR", "ondemand", False).extents == 10
        with pytest.raises(KeyError):
            r.get("IOR", "ondemand", True)

    def test_prealloc_waste_properties(self):
        w = prealloc_waste(nfiles=100, seed=0)
        assert w.occupied_large > w.occupied_small
        assert w.waste_ratio > 1.0
