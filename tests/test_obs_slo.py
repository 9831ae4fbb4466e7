"""SLO objectives: spec grammar, burn-rate evaluation, verdicts."""

from __future__ import annotations

import math
import pickle

import pytest

from repro.cli import main
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    SLObjective,
    evaluate,
    parse_objective,
    resolve_objectives,
)
from repro.obs.timeseries import TimeSeries


def _series(values, window_s=1.0, name="data.latency_s"):
    """One sample per window, sample i in window i."""
    ts = TimeSeries(window_s=window_s)
    for i, v in enumerate(values):
        if v is not None:  # None = leave the window empty
            ts.observe(i * window_s + window_s / 2, name, v)
    return ts.snapshot()


class TestSpecGrammar:
    def test_minimal_spec(self):
        obj = parse_objective("data.latency_s:p99<=0.05")
        assert obj == SLObjective(
            series="data.latency_s", percentile=99.0, threshold=0.05
        )
        assert obj.window_s is None and obj.budget == 0.05

    def test_full_spec_with_options(self):
        obj = parse_objective("meta.latency_s:p99.9<=0.5:w2.5:b0.1")
        assert obj.series == "meta.latency_s"
        assert obj.percentile == 99.9
        assert obj.threshold == 0.5
        assert obj.window_s == 2.5
        assert obj.budget == 0.1

    def test_options_in_either_order(self):
        a = parse_objective("s:p50<=1:b0.2:w3")
        b = parse_objective("s:p50<=1:w3:b0.2")
        assert a == b

    def test_canonical_name_reparses_equal(self):
        for spec in ("data.latency_s:p99<=0.05",
                     "q:p50<=10:w0.5",
                     "x.y:p99.9<=1e-3:w2:b0.01"):
            obj = parse_objective(spec)
            assert parse_objective(obj.name) == obj

    @pytest.mark.parametrize("bad", [
        "nocolon",
        "series:99<=0.05",        # missing the p
        "series:p99<0.05",        # wrong comparator
        "series:p99<=0.05:x3",    # unknown option letter
        ":p99<=0.05",             # empty series
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError, match="SLO spec"):
            parse_objective(bad)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            SLObjective(series="s", percentile=0.0, threshold=1.0)
        with pytest.raises(ValueError, match="percentile"):
            SLObjective(series="s", percentile=101.0, threshold=1.0)
        with pytest.raises(ValueError, match="threshold"):
            SLObjective(series="s", percentile=99.0, threshold=-1.0)
        with pytest.raises(ValueError, match="window"):
            SLObjective(series="s", percentile=99.0, threshold=1.0, window_s=0.0)
        with pytest.raises(ValueError, match="budget"):
            SLObjective(series="s", percentile=99.0, threshold=1.0, budget=0.0)
        with pytest.raises(ValueError, match="invalid SLO spec"):
            parse_objective("s:p200<=1")
        # Non-finite numbers: an infinite window cannot be cut into
        # telemetry windows, and no percentile ever exceeds a NaN bound.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="threshold"):
                SLObjective(series="s", percentile=99.0, threshold=bad)
            with pytest.raises(ValueError, match="window"):
                SLObjective(series="s", percentile=99.0, threshold=1.0, window_s=bad)
        for spec in ("s:p99<=nan", "s:p99<=inf", "s:p99<=1:w1e999"):
            with pytest.raises(ValueError, match="invalid SLO spec"):
                parse_objective(spec)

    @pytest.mark.parametrize("spec", [
        "data.latency_s:p99<=0.25:w1e999", "data.latency_s:p99<=nan",
    ])
    def test_non_finite_spec_is_a_usage_error(self, spec, capsys):
        """Refused while parsing the command line, before the sweep runs."""
        with pytest.raises(SystemExit) as exc:
            main(["service", "--scale", "0.05", "--streams", "50", "--slo", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --slo:" in err and "Traceback" not in err


class TestResolve:
    def test_disabled_forms(self):
        assert resolve_objectives(None) is None
        assert resolve_objectives(False) is None

    def test_default_forms(self):
        expect = tuple(parse_objective(s) for s in DEFAULT_OBJECTIVES)
        assert resolve_objectives(True) == expect
        assert resolve_objectives("default") == expect

    def test_comma_separated_string(self):
        objs = resolve_objectives("a:p99<=1, b:p50<=2")
        assert [o.series for o in objs] == ["a", "b"]

    def test_iterable_mixes_specs_and_objectives(self):
        ready = SLObjective(series="x", percentile=50.0, threshold=3.0)
        objs = resolve_objectives(["a:p99<=1", ready])
        assert objs == (parse_objective("a:p99<=1"), ready)

    def test_single_objective_passthrough(self):
        ready = SLObjective(series="x", percentile=50.0, threshold=3.0)
        assert resolve_objectives(ready) == (ready,)

    def test_empty_specs_resolve_to_none(self):
        assert resolve_objectives("") is None
        assert resolve_objectives([]) is None


class TestEvaluate:
    def test_quiet_run_passes_with_zero_burn(self):
        ts = _series([0.01] * 10)
        report = evaluate(ts, ["data.latency_s:p99<=0.25"])
        (r,) = report.results
        assert r.windows == 10 and r.bad_windows == 0
        assert r.burn_rate == 0.0
        assert r.compliance == 1.0
        assert r.passed and r.verdict == "pass"
        assert report.passed and report.verdict == "pass"

    def test_violations_burn_the_budget(self):
        # 2 bad of 10 windows at a 10% budget: burn rate 2.0 -> fail.
        ts = _series([0.01] * 8 + [9.0, 9.0])
        report = evaluate(ts, ["data.latency_s:p99<=0.25:b0.1"])
        (r,) = report.results
        assert r.bad_windows == 2
        assert r.burn_rate == pytest.approx(2.0)
        assert not r.passed and report.verdict == "fail"
        assert r.worst >= 9.0  # log2 buckets round up, never down past max

    def test_burn_within_budget_passes(self):
        # 1 bad of 10 windows at a 10% budget: burn rate exactly 1.0.
        ts = _series([0.01] * 9 + [9.0])
        (r,) = evaluate(ts, ["data.latency_s:p99<=0.25:b0.1"]).results
        assert r.burn_rate == pytest.approx(1.0)
        assert r.passed

    def test_empty_windows_are_vacuously_compliant(self):
        ts = _series([0.01, None, None, 0.01])
        (r,) = evaluate(ts, ["data.latency_s:p99<=0.25"]).results
        assert r.windows == 2  # the two quiet windows are not counted

    def test_absent_series_yields_no_windows_and_passes(self):
        ts = _series([0.01] * 4)
        (r,) = evaluate(ts, ["ghost.latency_s:p99<=0.25"]).results
        assert r.windows == 0 and r.burn_rate == 0.0 and r.passed
        assert r.compliance == 1.0

    def test_compliance_window_merges_frames(self):
        """A w-spec wider than the telemetry window merges frames: one
        spike inside a 4-frame compliance window taints the whole group."""
        ts = _series([0.01, 0.01, 9.0, 0.01] + [0.01] * 4, window_s=1.0)
        tight = evaluate(ts, ["data.latency_s:p99<=0.25:b0.4"]).results[0]
        grouped = evaluate(ts, ["data.latency_s:p99<=0.25:w4:b0.4"]).results[0]
        assert tight.windows == 8 and tight.bad_windows == 1
        assert grouped.windows == 2 and grouped.bad_windows == 1
        assert grouped.burn_rate > tight.burn_rate

    def test_string_and_parsed_objectives_agree(self):
        ts = _series([0.01] * 5)
        a = evaluate(ts, ["data.latency_s:p99<=0.25"])
        b = evaluate(ts, [parse_objective("data.latency_s:p99<=0.25")])
        assert a == b

    def test_report_get_and_missing_series(self):
        ts = _series([0.01] * 3)
        report = evaluate(
            ts, ["data.latency_s:p99<=0.25", "ghost:p50<=1"]
        )
        data, ghost = report.results  # in objective order
        assert data.objective.series == "data.latency_s" and data.windows == 3
        assert ghost.windows == 0 and ghost.passed  # no samples: vacuous

    def test_overall_verdict_is_the_and(self):
        ts = _series([9.0] * 4)
        report = evaluate(
            ts,
            ["data.latency_s:p99<=100",   # passes
             "data.latency_s:p99<=0.01"]  # fails every window
        )
        assert report.results[0].passed
        assert not report.results[1].passed
        assert report.verdict == "fail"

    def test_to_dict_shapes(self):
        ts = _series([0.01] * 3)
        doc = evaluate(ts, ["data.latency_s:p99<=0.25:w1:b0.1"]).to_dict()
        assert doc["verdict"] == "pass"
        (obj,) = doc["objectives"]
        assert obj["series"] == "data.latency_s"
        assert obj["objective"] == "data.latency_s:p99<=0.25:w1:b0.1"
        assert {"windows", "bad_windows", "worst", "compliance",
                "burn_rate", "verdict"} <= set(obj)

    def test_report_is_picklable_and_comparable(self):
        ts = _series([0.01] * 6)
        report = evaluate(ts, ["data.latency_s:p99<=0.25"])
        assert pickle.loads(pickle.dumps(report)) == report
