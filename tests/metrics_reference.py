"""Eager, per-sample reference for histograms and disk accounting, and the
per-request object loop of the disk.

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

Since commit f3214f3 ``src/`` has no object loop at all: a batch is columns
from the submit call down and a fault injector filters those columns
(docs/FAULTS.md).  What the loop leaned on in ``src/`` came here with it —
``submit_batch``'s arrange-then-service body and the per-request
``FaultInjector.filter`` (:func:`reference_filter`) — so ``ReferenceDisk``
with ``vectorized=False`` is the self-contained oracle of the column path,
armed or not (``tests/test_phase_columns.py``, ``tests/test_meta_batched.py``,
``tests/test_trace_identity.py``, ``tests/test_perf_pipeline.py``).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.disk.array import DiskArray
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest, request_columns
from repro.errors import CrashError, LatentSectorError, SimulationError
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

    def observe_each(self, values) -> None:
        """``Histogram.observe_each`` by its definition: a loop of observe."""
        for value in values:
            self.observe(value)

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


def reference_filter(disk: SimulatedDisk, req: BlockRequest) -> BlockRequest:
    """``FaultInjector.filter(req)`` as it stood at f3214f3 (with
    ``disk.injector`` for ``self`` and the trace rows going to the disk's
    tracer): inspect one arranged request; returns the (possibly torn)
    request to service, or raises the injected fault."""
    inj = disk.injector
    tracer = disk.tracer
    if not inj.armed:
        return req
    crash_after = inj.plan.crash_after_requests
    if crash_after is not None and inj.requests_seen >= crash_after:
        inj.crashes += 1
        inj.disarm()
        inj._incr("fault.crashes")
        if tracer.enabled:
            tracer.emit("fault", "crash", disk=inj.disk_name, after=inj.requests_seen)
        raise CrashError(
            f"{inj.disk_name}: injected crash after {inj.requests_seen} requests"
        )
    inj.requests_seen += 1
    inj._incr("fault.requests")

    if not req.is_write:
        bad = [b for b in range(req.start, req.end) if b in inj._bad_blocks]
        if bad:
            inj.lse_errors += 1
            inj._incr("fault.lse_errors")
            if tracer.enabled:
                tracer.emit("fault", "lse", disk=inj.disk_name, block=bad[0])
            raise LatentSectorError(
                f"{inj.disk_name}: latent sector error at block {bad[0]}"
            )
        return req

    # Writes heal any bad sectors they overwrite (drive remap).
    healed = inj._bad_blocks.intersection(range(req.start, req.end))
    if healed:
        inj._bad_blocks -= healed
        inj._incr("fault.lse_healed", len(healed))
    if inj.plan.torn_every > 0 and req.nblocks >= 2:
        inj._writes_seen += 1
        if inj._writes_seen % inj.plan.torn_every == 0:
            keep = max(1, req.nblocks // 2)
            inj.torn_writes += 1
            inj._incr("fault.torn_writes")
            if tracer.enabled:
                tracer.emit(
                    "fault",
                    "torn_write",
                    disk=inj.disk_name,
                    start=req.start,
                    nblocks=req.nblocks,
                    kept=keep,
                )
            inj.written.update(range(req.start, req.start + keep))
            return BlockRequest(req.start, keep, is_write=True)
    inj.written.update(range(req.start, req.end))
    return req


class ReferenceDisk(SimulatedDisk):
    """``SimulatedDisk`` whose ``submit_one`` and object loop account per
    request, on a :class:`ReferenceMetrics` bag.

    ``vectorized=True`` (what ``SimulatedDisk`` defaulted to) services a
    batch of several requests with the array core it inherits, so only the
    single-request statistics differ from ``src/`` — the oracle for the
    deferred request log.  ``vectorized=False`` (what
    ``FSConfig.execution="legacy"`` selected) services *every* batch,
    however it was submitted, with the per-request object loop and the
    per-request fault filter — the oracle for the column path.
    """

    def __init__(
        self, params, scheduler_params=None, metrics=None, vectorized=True, **kwargs
    ) -> None:
        assert isinstance(metrics, ReferenceMetrics)
        super().__init__(params, scheduler_params, metrics, **kwargs)
        self.vectorized = vectorized
        self._h_latency = self.metrics.histogram_ref("disk.request_latency_s")
        self._h_blocks = self.metrics.histogram_ref("disk.request_blocks")

    def submit_batch(self, requests) -> float:
        if not requests:
            return 0.0
        for req in requests:
            if req.end > self.params.capacity_blocks:
                raise SimulationError(
                    f"{self.name}: request [{req.start}, {req.end}) beyond capacity "
                    f"{self.params.capacity_blocks}"
                )
        total = 0.0
        header = self._charge_header()
        try:
            total = self._service(self.scheduler.arrange(requests))
        finally:
            # A mid-batch fault still pays for the requests serviced before
            # it fired; _service returns via its partial-total attribute.
            self._busy_s += self._partial_s
            self._partial_s = 0.0
        return total + header

    def submit(self, request: BlockRequest) -> float:
        return self.submit_batch([request])

    def submit_arrays(self, starts, nblocks, is_write) -> float:
        if self.vectorized:
            return super().submit_arrays(starts, nblocks, is_write)
        n = starts.shape[0]
        if isinstance(is_write, bool):
            is_write = np.full(n, is_write)
        return self.submit_batch([
            BlockRequest(*row)
            for row in zip(starts.tolist(), nblocks.tolist(), is_write.tolist())
        ])

    def _service(self, arranged) -> float:
        self._partial_s = 0.0
        if self.vectorized and len(arranged) > 1:
            return self._service_arrays(*request_columns(arranged))
        tracer = self.tracer
        total = 0.0
        for req in arranged:
            if self.injector is not None:
                req = reference_filter(self, req)
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


def rounded(snap) -> tuple[dict, dict, dict]:
    """A ``MetricsSnapshot`` up to the one tolerance the array core documents
    (``SimulatedDisk._service_arrays``): the unrendered float sums whose
    array fold carries last-ulp drift against a per-request fold — the
    ``disk.positioning_s`` / ``disk.transfer_s`` accumulators and each
    histogram's ``total`` — are rounded to 12 places; counters, every other
    accumulator, buckets and extrema stay exact."""
    return (
        snap.counters,
        {
            k: round(v, 12) if k in ("disk.positioning_s", "disk.transfer_s") else v
            for k, v in snap.accumulators.items()
        },
        {k: replace(h, total=round(h.total, 12)) for k, h in snap.histograms.items()},
    )


def object_loop_disks(array: DiskArray) -> DiskArray:
    """Swap ``array``'s disks for :class:`ReferenceDisk`s that service every
    batch with the per-request object loop."""
    array.disks = [
        ReferenceDisk(
            array.disk_params, d.scheduler.params, array.metrics, vectorized=False,
            name=d.name, tracer=array.tracer,
        )
        for d in array.disks
    ]
    return array
