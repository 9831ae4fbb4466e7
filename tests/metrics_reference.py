"""Eager, per-sample reference for histograms and single-request disk
accounting.

The bodies below are the ones ``src/`` ran at commit c306524, before
``Histogram`` became record → reduce and ``SimulatedDisk.submit_one``
started appending one row to its bag's request log instead of doing its
statistics per call (docs/PERF.md, "Journal group commit"):
``Histogram.observe`` / ``observe_array`` updating the bucket state once
per call, and ``submit_one`` and the per-request object loop of
``_service`` bumping their counters, two accumulators and two histograms
once per request.  They are kept verbatim as the oracle the
reduced paths are held to, bit for bit — float accumulators, histogram
``total``s and the *types* of the extrema included
(``tests/test_metrics_reduce.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.errors import SimulationError
from repro.obs.histogram import HistogramSnapshot, fold_left
from repro.sim.metrics import Metrics


class ReferenceHistogram:
    """``Histogram`` with every sample folded in as it arrives."""

    __slots__ = ("_buckets", "_zeros", "_count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram values must be non-negative: {value}")
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value == 0:
            self._zeros += 1
            return
        e = math.frexp(value)[1]
        self._buckets[e] = self._buckets.get(e, 0) + 1

    def observe_array(self, values) -> None:
        n = int(values.shape[0])
        if n == 0:
            return
        mn = values.min().item()
        if mn < 0:
            raise ValueError(f"histogram values must be non-negative: {mn}")
        mx = values.max().item()
        self._count += n
        self._sum = fold_left(self._sum, values)
        if self._min is None or mn < self._min:
            self._min = mn
        if self._max is None or mx > self._max:
            self._max = mx
        nonzero = values[values != 0]
        self._zeros += n - int(nonzero.shape[0])
        if nonzero.shape[0]:
            exps, counts = np.unique(np.frexp(nonzero)[1], return_counts=True)
            buckets = self._buckets
            for e, c in zip(exps.tolist(), counts.tolist()):
                buckets[e] = buckets.get(e, 0) + c

    def absorb(self, snap: HistogramSnapshot) -> None:
        if snap.count == 0:
            return
        self._count += snap.count
        self._sum += snap.total
        self._zeros += snap.zeros
        for e, c in snap.buckets.items():
            self._buckets[e] = self._buckets.get(e, 0) + c
        if snap.minimum is not None and (self._min is None or snap.minimum < self._min):
            self._min = snap.minimum
        if snap.maximum is not None and (self._max is None or snap.maximum > self._max):
            self._max = snap.maximum

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            count=self._count,
            total=self._sum,
            zeros=self._zeros,
            buckets=dict(self._buckets),
            minimum=self._min,
            maximum=self._max,
        )

    def reset(self) -> None:
        self._buckets.clear()
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None


class ReferenceMetrics(Metrics):
    """A bag whose histograms are eager.  Nothing registers a deferred row
    log on it, so every update lands the moment it is made."""

    def histogram_ref(self, name: str) -> ReferenceHistogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = ReferenceHistogram()
        return h

    def observe(self, name: str, value: float) -> None:
        self.histogram_ref(name).observe(value)

    def observe_array(self, name: str, values) -> None:
        self.histogram_ref(name).observe_array(values)

    def deferred(self, reducer) -> list:
        return []  # never registered: the eager reference logs nothing


class ReferenceDisk(SimulatedDisk):
    """``SimulatedDisk`` whose ``submit_one`` and object loop account per
    request, on a :class:`ReferenceMetrics` bag."""

    def __init__(self, params, scheduler_params=None, metrics=None, **kwargs) -> None:
        assert isinstance(metrics, ReferenceMetrics)
        super().__init__(params, scheduler_params, metrics, **kwargs)
        self._h_latency = self.metrics.histogram_ref("disk.request_latency_s")
        self._h_blocks = self.metrics.histogram_ref("disk.request_blocks")

    def _service(self, arranged) -> float:
        self._partial_s = 0.0
        if self.vectorized and self.injector is None and len(arranged) > 1:
            n = len(arranged)
            return self._service_arrays(
                np.fromiter((r.start for r in arranged), dtype=np.int64, count=n),
                np.fromiter((r.nblocks for r in arranged), dtype=np.int64, count=n),
                np.fromiter((r.is_write for r in arranged), dtype=bool, count=n),
            )
        tracer = self.tracer
        total = 0.0
        for req in arranged:
            if self.injector is not None:
                req = self.injector.filter(req)
            positioning = self.model.positioning_time(self._head, req.start)
            transfer = self.model.transfer_time(req.nblocks)
            if tracer.enabled:
                tracer.emit(
                    "disk",
                    "write" if req.is_write else "read",
                    t=self._busy_s + total,
                    dur=positioning + transfer,
                    disk=self.name,
                    start=req.start,
                    nblocks=req.nblocks,
                    seek_s=positioning,
                    transfer_s=transfer,
                )
            total += positioning + transfer
            self._partial_s = total
            self._head = req.end
            self.metrics.observe("disk.request_latency_s", positioning + transfer)
            self.metrics.observe("disk.request_blocks", req.nblocks)
            self.metrics.incr("disk.requests")
            self.metrics.incr("disk.blocks", req.nblocks)
            if positioning > 0.0:
                self.metrics.incr("disk.positionings")
            self.metrics.add("disk.positioning_s", positioning)
            self.metrics.add("disk.transfer_s", transfer)
            if req.is_write:
                self.metrics.incr("disk.write_requests")
                self.metrics.incr("disk.write_blocks", req.nblocks)
            else:
                self.metrics.incr("disk.read_requests")
                self.metrics.incr("disk.read_blocks", req.nblocks)
        return total

    def submit_one(self, start: int, nblocks: int, is_write: bool) -> float:
        if self.injector is not None:
            return self.submit(BlockRequest(start, nblocks, is_write=is_write))
        end = start + nblocks
        if end > self.params.capacity_blocks:
            raise SimulationError(
                f"{self.name}: request [{start}, {end}) beyond capacity "
                f"{self.params.capacity_blocks}"
            )
        header = self._charge_header()
        counters = self._counters
        counters["scheduler.batches"] += 1
        counters["scheduler.requests_in"] += 1
        counters["scheduler.requests_out"] += 1
        positioning = self.model.positioning_time(self._head, start)
        transfer = self.model.transfer_time(nblocks)
        total = positioning + transfer
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("sched", "arrange", requests_in=1, requests_out=1)
            tracer.emit(
                "disk",
                "write" if is_write else "read",
                t=self._busy_s,
                dur=total,
                disk=self.name,
                start=start,
                nblocks=nblocks,
                seek_s=positioning,
                transfer_s=transfer,
            )
        self._head = end
        self._busy_s += total
        self._h_latency.observe(total)
        self._h_blocks.observe(nblocks)
        counters["disk.requests"] += 1
        counters["disk.blocks"] += nblocks
        if positioning > 0.0:
            counters["disk.positionings"] += 1
        self.metrics.add("disk.positioning_s", positioning)
        self.metrics.add("disk.transfer_s", transfer)
        if is_write:
            counters["disk.write_requests"] += 1
            counters["disk.write_blocks"] += nblocks
        else:
            counters["disk.read_requests"] += 1
            counters["disk.read_blocks"] += nblocks
        return total + header
