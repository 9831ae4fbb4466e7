"""The claims table and its runner (ISSUE 24): table shape, the evaluator's
edges, the gate, worker-count invariance and the EXPERIMENTS.md drift check.

Nothing here runs at full scale — the bands hold only there, and CI's
``claims`` job is what gates them."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.run import RunResult, run
from repro.core.runners import claims
from repro.core.runners.claims import CLAIMS, FIGURES, Claim, ClaimsResult

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def _claim(lo, hi, closed="", measure=lambda p: p, figure="prealloc_waste"):
    return Claim("t.row", "§T", "a test row", figure, measure, lo, hi, closed=closed)


class TestTable:
    def test_ids_unique(self):
        ids = [c.id for c in CLAIMS]
        assert len(set(ids)) == len(ids)

    def test_rows_grouped_in_figure_order(self):
        # Verdicts come back cell by cell; sorted-by-figure rows are what
        # makes the scoreboard's order the table's order.
        order = list(FIGURES)
        assert sorted(CLAIMS, key=lambda c: order.index(c.figure)) == list(CLAIMS)

    def test_every_figure_resolves_and_is_cited(self):
        assert {c.figure for c in CLAIMS} == set(FIGURES)

    def test_bands_are_well_formed(self):
        for c in CLAIMS:
            assert c.lo < c.hi, c.id
            assert set(c.closed) <= set("[]"), c.id
            assert "|" not in c.statement + c.paper, c.id  # markdown cell


class TestEvaluator:
    def test_open_edges_exclude_the_edge(self):
        row = _claim(1.0, 2.0)
        assert row.band == "(1, 2)"
        assert not row.evaluate(1.0).ok and not row.evaluate(2.0).ok
        assert row.evaluate(1.5).ok

    def test_closed_edges_include_it(self):
        assert _claim(1.0, 2.0, "[").evaluate(1.0).ok
        assert not _claim(1.0, 2.0, "[").evaluate(2.0).ok
        assert _claim(1.0, 2.0, "]").evaluate(2.0).ok
        both = _claim(1.0, 2.0, "[]")
        assert both.band == "[1, 2]"
        assert both.evaluate(1.0).ok and both.evaluate(2.0).ok

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_never_passes(self, value):
        verdict = _claim(-math.inf, math.inf, "[]").evaluate(value)
        assert not verdict.ok
        assert verdict.note.startswith("t.row:")

    @pytest.mark.parametrize(
        "measure", [lambda p: p["missing"], lambda p: 1 / 0, lambda p: [][3]]
    )
    def test_raising_measure_fails_its_own_row(self, measure):
        verdict = _claim(-math.inf, math.inf, measure=measure).evaluate({})
        assert not verdict.ok and math.isnan(verdict.measured)
        assert verdict.note.startswith("t.row:")

    def test_out_of_band_note_names_row_and_band(self):
        verdict = _claim(1.0, 2.0).evaluate(3.0)
        assert verdict.note == "t.row: measured 3 outside (1, 2)"
        assert _claim(1.0, 2.0).evaluate(1.5).note == ""

    def test_a_failing_row_does_not_abort_its_neighbours(self, monkeypatch):
        good = _claim(8.0, math.inf, measure=lambda p: p.waste_ratio)
        bad = dataclasses.replace(good, id="t.bad", measure=lambda p: {}["x"])
        monkeypatch.setattr(claims, "CLAIMS", (bad, good))
        verdicts = run("claims").payload.verdicts
        assert [(v.id, v.ok) for v in verdicts] == [("t.bad", False), ("t.row", True)]


class TestGate:
    """``prealloc_waste`` takes no scale, so a table of its rows is cheap at
    any scale — 1.0 included."""

    @pytest.fixture
    def refuted(self, monkeypatch):
        row = next(c for c in CLAIMS if c.figure == "prealloc_waste")
        forced = dataclasses.replace(row, lo=-math.inf, hi=0.0)
        monkeypatch.setattr(claims, "CLAIMS", (forced,))
        return forced

    def test_refuted_row_exits_1_at_scale_1(self, refuted, capsys):
        assert main(["claims"]) == 1
        captured = capsys.readouterr()
        assert "**NO**" in captured.out and "(gated)" in captured.out
        assert captured.err.startswith(f"{refuted.id}: measured")

    def test_same_row_is_printed_not_gated_off_scale(self, refuted, capsys):
        assert main(["claims", "--scale", "0.5"]) == 0
        captured = capsys.readouterr()
        assert "**NO**" in captured.out and "not gated" in captured.out
        assert captured.err == ""

    def test_in_band_row_exits_0(self, monkeypatch, capsys):
        row = next(c for c in CLAIMS if c.figure == "prealloc_waste")
        monkeypatch.setattr(claims, "CLAIMS", (row,))
        assert main(["claims"]) == 0
        assert "1 of 1 rows in band at scale 1, seed 0 (gated)" in capsys.readouterr().out

    def test_gate_follows_scale_alone(self):
        assert ClaimsResult(1.0, 0).gated and ClaimsResult(1.0, 7).gated
        assert not ClaimsResult(0.5, 0).gated


class TestRunner:
    @pytest.fixture(scope="class")
    def serial(self):
        return run("claims", scale=0.1)

    def test_result_shape(self, serial):
        assert isinstance(serial, RunResult) and serial.name == "claims"
        assert [v.id for v in serial.payload.verdicts] == [c.id for c in CLAIMS]
        assert serial.payload.scale == 0.1 and not serial.payload.gated
        assert serial.metrics.count("fs.writes") > 0
        assert serial.metrics.histogram("mds.op_latency_s").count > 0

    def test_phases_are_prefixed_by_figure(self, serial):
        # fig7 and table1 share labels; unprefixed, one would shadow the other.
        label = "write:IOR:reservation:indep"
        assert f"fig7:{label}" in serial.phases and f"table1:{label}" in serial.phases
        assert {p.split(":", 1)[0] for p in serial.phases} == {
            "fig6a", "fig6b", "fig7", "table1", "fig8", "fig9", "fig10",
        }
        assert "fig7:IOR:reservation:indep" in serial.layouts

    def test_jobs_changes_nothing(self, serial):
        fanned = run("claims", scale=0.1, jobs=2)
        assert fanned.fingerprint == serial.fingerprint
        assert fanned.payload == serial.payload
        assert fanned.phases == serial.phases
        assert list(fanned.phases) == list(serial.phases)
        assert fanned.metrics.counters == serial.metrics.counters

    def test_traced_run_merges_the_figure_rings(self, monkeypatch):
        rows = tuple(c for c in CLAIMS if c.figure == "table1")
        monkeypatch.setattr(claims, "CLAIMS", rows)
        result = run("claims", scale=0.05, trace=True)
        assert result.trace.rows()
        ops = {e.op for e in result.trace.events() if e.layer == "run"}
        assert "write:IOR:ondemand:indep" in ops
        assert len(result.payload.verdicts) == len(rows)


def test_experiments_block_lists_the_table():
    """Cheap drift check: the committed scoreboard has exactly the table's
    ids, in order.  CI's ``claims`` job compares the values."""
    text = EXPERIMENTS.read_text(encoding="utf-8")
    block = text.split("<!-- claims:begin -->")[1].split("<!-- claims:end -->")[0]
    ids = re.findall(r"^\| `([^`]+)` \|", block, flags=re.MULTILINE)
    assert ids == [c.id for c in CLAIMS]
    assert f"{len(CLAIMS)} of {len(CLAIMS)} rows in band at scale 1, seed 0 (gated)" in block
