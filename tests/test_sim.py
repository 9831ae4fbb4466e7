"""Simulation substrate: clock, metrics, report rendering."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.metrics import Metrics, ThroughputResult
from repro.sim.report import Table, format_pct


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_to_forward_only(self):
        c = SimClock(start=5.0)
        c.advance_to(3.0)  # no-op
        assert c.now == 5.0
        c.advance_to(7.0)
        assert c.now == 7.0

    def test_reset(self):
        c = SimClock(start=9.0)
        c.reset()
        assert c.now == 0.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(start=-1.0)


class TestMetrics:
    def test_counter_starts_at_zero(self):
        assert Metrics().count("nope") == 0

    def test_incr(self):
        m = Metrics()
        m.incr("x")
        m.incr("x", 4)
        assert m.count("x") == 5

    def test_accumulator(self):
        m = Metrics()
        m.add("t", 0.25)
        m.add("t", 0.25)
        assert m.snapshot().total("t") == 0.5

    def test_snapshot_diff(self):
        m = Metrics()
        m.incr("a", 3)
        snap = m.snapshot()
        m.incr("a", 2)
        m.incr("b")
        delta = m.since(snap)
        assert delta.count("a") == 2
        assert delta.count("b") == 1

    def test_snapshot_is_immutable_copy(self):
        m = Metrics()
        m.incr("a")
        snap = m.snapshot()
        m.incr("a")
        assert snap.count("a") == 1

    def test_reset(self):
        m = Metrics()
        m.incr("a")
        m.add("b", 1.0)
        m.reset()
        assert m.count("a") == 0
        assert m.snapshot().total("b") == 0.0


class TestThroughputResult:
    def test_throughput(self):
        r = ThroughputResult(bytes_moved=100, elapsed=2.0)
        assert r.throughput == 50.0

    def test_zero_elapsed(self):
        assert ThroughputResult(bytes_moved=100, elapsed=0.0).throughput == 0.0

    def test_mib_per_s(self):
        r = ThroughputResult(bytes_moved=10 * 1024 * 1024, elapsed=1.0)
        assert r.mib_per_s == pytest.approx(10.0)

    def test_ops_per_s(self):
        r = ThroughputResult(bytes_moved=0, elapsed=2.0, ops=10)
        assert r.ops_per_s == 5.0


class TestReport:
    def test_table_renders_rows(self):
        t = Table("T", ["a", "b"])
        t.add_row(["x", 1])
        out = t.render()
        assert "T" in out
        assert "x" in out
        assert "1" in out

    def test_row_width_mismatch_rejected(self):
        t = Table("T", ["a"])
        with pytest.raises(ValueError):
            t.add_row(["x", "y"])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("T", [])

    def test_float_formatting(self):
        t = Table("T", ["v"])
        t.add_row([1.23456])
        assert "1.23" in t.render()

    def test_format_pct(self):
        assert format_pct(0.19) == "+19.0%"
        assert format_pct(-0.43) == "-43.0%"
