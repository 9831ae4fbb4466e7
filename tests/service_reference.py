"""Per-arrival reference for the service path's statistics.

The bodies below are the ones ``src/`` ran at commit 916ab44, before
telemetry and stations switched to record → reduce (docs/TELEMETRY.md):
``ServiceTelemetry.loop_probe`` / ``station_probe`` updating the window
frames once per arrival, and ``Station.offer`` observing its two
histograms once per arrival.  They are kept verbatim as the oracle the
reduced path is held to, bit for bit — float ``sums`` and histogram
``total``s included (``tests/test_service_reduce.py``).
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError
from repro.obs.histogram import Histogram
from repro.obs.timeseries import TimeSeries
from repro.workloads.base import MetaOp, WriteOp
from repro.workloads.service import ServiceWorkload


def op_kind(op) -> str:
    """Classify a protocol op into the service mix kinds."""
    if isinstance(op, MetaOp):
        return "meta"
    return "write" if isinstance(op, WriteOp) else "read"


class ReferenceTelemetry:
    """``ServiceTelemetry`` minus the cache poll: statistics per arrival."""

    def __init__(self, window_s: float) -> None:
        self.series = TimeSeries(window_s)

    def loop_probe(self, now, op) -> None:
        self.series.incr(now, "arrivals")

    def station_probe(self, name: str):
        series = self.series
        arrivals = f"{name}.arrivals"
        queue_depth = f"{name}.queue_depth"
        drops = f"{name}.drops"
        latency = f"{name}.latency_s"
        completions = f"{name}.completions"
        busy = f"{name}.busy_s"
        nbytes = f"{name}.bytes"
        kind_arrivals = {k: f"{name}.{k}.arrivals" for k in ServiceWorkload.KINDS}
        kind_drops = {k: f"{name}.{k}.drops" for k in ServiceWorkload.KINDS}
        kind_latency = {k: f"{name}.{k}.latency_s" for k in ServiceWorkload.KINDS}

        def probe(now, op, queued, done, service) -> None:
            kind = op_kind(op)
            frame = series.frame(now)
            counters = frame.counters
            counters[arrivals] = counters.get(arrivals, 0) + 1
            ka = kind_arrivals[kind]
            counters[ka] = counters.get(ka, 0) + 1
            frame.hist(queue_depth).observe(float(queued))
            if done is None:
                counters[drops] = counters.get(drops, 0) + 1
                kd = kind_drops[kind]
                counters[kd] = counters.get(kd, 0) + 1
                return
            sojourn = done - now
            frame.hist(latency).observe(sojourn)
            frame.hist(kind_latency[kind]).observe(sojourn)
            at_done = series.frame(done)
            dc = at_done.counters
            dc[completions] = dc.get(completions, 0) + 1
            sums = at_done.sums
            sums[busy] = sums.get(busy, 0.0) + service
            if not isinstance(op, MetaOp):
                sums[nbytes] = sums.get(nbytes, 0.0) + float(op.nbytes)

        return probe

    def snapshot(self):
        return self.series.snapshot()


class ReferenceStation:
    """``Station`` with the two per-arrival ``observe`` calls."""

    def __init__(self, name: str, execute, depth: int) -> None:
        self.name = name
        self.depth = depth
        self._execute = execute
        self.latency = Histogram()
        self.queue_depth = Histogram()
        self.offered = 0
        self.started = 0
        self.dropped = 0
        self.completed = 0
        self.busy_s = 0.0
        self.free_at = 0.0
        self._inflight: deque[float] = deque()
        self.probe = None

    def offer(self, now: float, op):
        inflight = self._inflight
        while inflight and inflight[0] <= now:
            inflight.popleft()
            self.completed += 1
        self.offered += 1
        q = len(inflight)
        self.queue_depth.observe(float(q))
        if q >= self.depth:
            self.dropped += 1
            if self.probe is not None:
                self.probe(now, op, q, None, 0.0)
            return None
        service = self._execute(op)
        if service < 0.0:
            raise ConfigError(f"negative service time at station {self.name}: {service}")
        start = now if now > self.free_at else self.free_at
        done = start + service
        self.free_at = done
        self.busy_s += service
        inflight.append(done)
        self.latency.observe(done - now)
        self.started += 1
        if self.probe is not None:
            self.probe(now, op, q, done, service)
        return done

    def drain(self) -> float:
        last = self._inflight[-1] if self._inflight else 0.0
        self.completed += len(self._inflight)
        self._inflight.clear()
        return last
