"""Simulation substrate: clock, metrics, statistics and report rendering."""

from repro.sim.clock import SimClock
from repro.sim.events import EventLoop, Station
from repro.sim.metrics import Metrics, ThroughputResult
from repro.sim.report import Table

__all__ = [
    "SimClock", "EventLoop", "Station", "Metrics", "ThroughputResult",
    "Table",
]
