"""Benchmark baseline harness: determinism, canonical bytes, the CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import baseline as bb
from repro.cli import main

from tests import golden


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


class TestForcedAllocatorRegression:
    def test_vanilla_swap_fails_the_gate(self, doc, monkeypatch):
        """The acceptance scenario: silently swapping the allocator to the
        vanilla policy must change the baseline's bytes (the CI gate)."""
        from repro.core.runners import fig6

        real = fig6.with_alloc_policy
        monkeypatch.setattr(
            fig6, "with_alloc_policy", lambda cfg, policy: real(cfg, "vanilla")
        )
        regressed = _collect_small()
        assert bb.dumps(regressed) != bb.dumps(doc), (
            "vanilla allocator swap must change the baseline document"
        )


class TestBenchCli:
    def test_unknown_name_is_a_usage_error(self, tmp_path, capsys):
        """The runner list is checked while parsing: nothing runs and no
        BENCH file is written before the bad name is rejected."""
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "run", "--out-dir", str(out), "--names", "fig6a,nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "nope" in err
        assert not out.exists()


class TestCommittedBaselines:
    """The repo-root BENCH files must stay in sync with the code."""

    def test_committed_files_parse_and_match_schema(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        for name in bb.PINNED_RUNNERS:
            path = root / bb.baseline_filename(name)
            assert path.is_file(), f"missing committed baseline {path.name}"
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            assert doc["schema_version"] == bb.BENCH_SCHEMA_VERSION
            assert doc["runner"] == name
            assert doc["scale"] == bb.PINNED_SCALE
            assert doc["seed"] == bb.PINNED_SEED

    def test_committed_fig6a_matches_current_code(self):
        """Byte-for-byte regeneration (the registry's ``BENCH_fig6a``
        document): if this fails, rerun ``python -m repro bench run
        --out-dir .`` and commit the diff."""
        committed = golden.bench_file("BENCH_fig6a").read_text(encoding="utf-8")
        assert committed == bb.dumps(golden.document("BENCH_fig6a")["bench"])
