"""Benchmark baseline harness: determinism, tolerances, regression gating."""

from __future__ import annotations

import json

import pytest

from repro.bench import baseline as bb
from repro.cli import main


def _collect_small():
    # The full pinned configuration is CI-sized; tests shrink fig6a further.
    from repro.core.run import run

    result = run(
        "fig6a", scale=0.05, seed=0, stream_counts=(8,),
        policies=("reservation", "ondemand"),
    )
    return bb.render(result, scale=0.05, seed=0)


@pytest.fixture(scope="module")
def doc():
    return _collect_small()


class TestRender:
    def test_schema_and_sections(self, doc):
        assert doc["schema_version"] == bb.BENCH_SCHEMA_VERSION
        assert doc["runner"] == "fig6a"
        assert doc["phases"] and doc["layouts"]
        some_phase = next(iter(doc["phases"].values()))
        assert {"elapsed_s", "mib_per_s", "ops_per_s", "bytes", "ops"} <= set(
            some_phase
        )
        some_layout = next(iter(doc["layouts"].values()))
        assert {"extents", "interleave_factor", "seek_cost_s", "contiguity"} <= set(
            some_layout
        )

    def test_same_seed_is_byte_identical(self, doc):
        again = _collect_small()
        assert bb.dumps(doc) == bb.dumps(again)

    def test_dumps_is_canonical(self, doc):
        text = bb.dumps(doc)
        assert text.endswith("\n")
        assert json.loads(text) == doc
        # Keys sorted at every level.
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestCompare:
    def test_identical_documents_pass(self, doc):
        assert bb.compare(doc, doc) == []

    def test_throughput_drop_is_a_regression(self, doc):
        bad = json.loads(bb.dumps(doc))
        label = next(iter(bad["phases"]))
        bad["phases"][label]["mib_per_s"] *= 0.5
        regs = bb.compare(doc, bad)
        assert any(r.path.endswith("mib_per_s") for r in regs)

    def test_throughput_gain_is_not_a_regression(self, doc):
        better = json.loads(bb.dumps(doc))
        for label in better["phases"]:
            better["phases"][label]["mib_per_s"] *= 2.0
        assert bb.compare(doc, better) == []

    def test_layout_degradation_is_a_regression(self, doc):
        bad = json.loads(bb.dumps(doc))
        tag = next(iter(bad["layouts"]))
        bad["layouts"][tag]["interleave_factor"] *= 2.0
        bad["layouts"][tag]["extents"] *= 3
        regs = bb.compare(doc, bad)
        leaves = {r.path.rsplit("/", 1)[-1] for r in regs}
        assert {"interleave_factor", "extents"} <= leaves

    def test_within_tolerance_passes(self, doc):
        near = json.loads(bb.dumps(doc))
        for label in near["phases"]:
            near["phases"][label]["mib_per_s"] *= 0.95  # inside 10%
        assert bb.compare(doc, near) == []

    def test_tolerance_override(self, doc):
        near = json.loads(bb.dumps(doc))
        for label in near["phases"]:
            near["phases"][label]["mib_per_s"] *= 0.95
        assert bb.compare(doc, near, tolerances={"mib_per_s": 0.01})

    def test_fingerprint_drift_is_a_regression(self, doc):
        other = json.loads(bb.dumps(doc))
        other["fingerprint"] = "deadbeef0000"
        assert any(r.path == "fingerprint" for r in bb.compare(doc, other))

    def test_missing_metric_is_a_regression(self, doc):
        partial = json.loads(bb.dumps(doc))
        tag = next(iter(partial["layouts"]))
        del partial["layouts"][tag]["interleave_factor"]
        regs = bb.compare(doc, partial)
        assert any(r.current is None for r in regs)

    def test_describe_is_readable(self, doc):
        bad = json.loads(bb.dumps(doc))
        label = next(iter(bad["phases"]))
        bad["phases"][label]["mib_per_s"] *= 0.5
        (reg,) = [r for r in bb.compare(doc, bad) if r.path.endswith("mib_per_s")]
        assert "tolerance" in reg.describe()
        assert "-50.0%" in reg.describe()


class TestForcedAllocatorRegression:
    def test_vanilla_swap_fails_the_gate(self, doc, monkeypatch):
        """The acceptance scenario: silently swapping the allocator to the
        vanilla policy must trip the committed-baseline comparison."""
        from repro.core.runners import fig6

        real = fig6.with_alloc_policy
        monkeypatch.setattr(
            fig6, "with_alloc_policy", lambda cfg, policy: real(cfg, "vanilla")
        )
        regressed = _collect_small()
        regs = bb.compare(doc, regressed)
        assert regs, "vanilla allocator swap must register as a regression"


class TestBenchCli:
    def test_run_then_compare_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "bench"
        args = ["--names", "fig6a", "--scale", "smoke", "--seed", "0"]
        assert main(["bench", "run", "--out-dir", str(out), *args]) == 0
        assert (out / "BENCH_fig6a.json").is_file()
        assert (
            main(
                [
                    "bench", "compare", "--baseline-dir", str(out),
                    "--current-dir", str(out), *args,
                ]
            )
            == 0
        )
        assert "fig6a: ok" in capsys.readouterr().out

    def test_compare_exits_nonzero_on_regression(self, tmp_path, capsys):
        out = tmp_path / "bench"
        cur = tmp_path / "cur"
        cur.mkdir()
        args = ["--names", "fig6a", "--scale", "smoke", "--seed", "0"]
        assert main(["bench", "run", "--out-dir", str(out), *args]) == 0
        doc = json.loads((out / "BENCH_fig6a.json").read_text())
        for label in doc["phases"]:
            doc["phases"][label]["mib_per_s"] *= 0.1
        (cur / "BENCH_fig6a.json").write_text(bb.dumps(doc))
        rc = main(
            [
                "bench", "compare", "--baseline-dir", str(out),
                "--current-dir", str(cur), *args,
            ]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_missing_baseline_fails(self, tmp_path, capsys):
        rc = main(
            [
                "bench", "compare", "--baseline-dir", str(tmp_path),
                "--current-dir", str(tmp_path), "--names", "fig6a",
            ]
        )
        assert rc == 1
        assert "no committed baseline" in capsys.readouterr().out

    def test_layout_artifacts_written(self, tmp_path):
        out = tmp_path / "bench"
        assert (
            main(
                [
                    "bench", "run", "--out-dir", str(out), "--layouts",
                    "--names", "fig6a", "--scale", "smoke",
                ]
            )
            == 0
        )
        art = (out / "LAYOUT_fig6a.txt").read_text()
        assert "interleave-factor" in art and "block map" in art


class TestCommittedBaselines:
    """The repo-root BENCH files must stay in sync with the code."""

    def test_committed_files_parse_and_match_schema(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        for name in bb.PINNED_RUNNERS:
            path = root / bb.baseline_filename(name)
            assert path.is_file(), f"missing committed baseline {path.name}"
            doc = bb.load(str(path))
            assert doc["schema_version"] == bb.BENCH_SCHEMA_VERSION
            assert doc["runner"] == name
            assert doc["scale"] == bb.PINNED_SCALE
            assert doc["seed"] == bb.PINNED_SEED

    def test_committed_fig6a_matches_current_code(self):
        """Byte-for-byte regeneration: if this fails, rerun
        ``python -m repro bench run --out-dir .`` and commit the diff."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        committed = (root / bb.baseline_filename("fig6a")).read_text()
        assert committed == bb.dumps(bb.collect("fig6a"))

    def test_committed_fig6b_unchanged_by_sampled_tracing(self):
        """A SamplingTracer is observe-only: a pinned runner regenerated
        with sampling armed must stay byte-identical to the committed
        baseline (the telemetry acceptance pin)."""
        import pathlib

        from repro.core.run import run
        from repro.obs import SamplingTracer

        root = pathlib.Path(__file__).resolve().parent.parent
        committed = (root / bb.baseline_filename("fig6b")).read_text()
        result = run(
            "fig6b", scale=bb.PINNED_SCALE, seed=bb.PINNED_SEED,
            trace=SamplingTracer(every=3),
        )
        doc = bb.render(result, scale=bb.PINNED_SCALE, seed=bb.PINNED_SEED)
        assert committed == bb.dumps(doc)
