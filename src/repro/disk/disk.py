"""Simulated single-spindle disk.

A :class:`SimulatedDisk` owns its own timeline (busy time), a head position,
a scheduler, and metrics.  Callers submit *batches* of concurrently
outstanding requests; the scheduler arranges them and the disk accounts
positioning + transfer time per dispatched request.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import DiskParams, SchedulerParams
from repro.disk.model import BlockRequest, ServiceTimeModel, request_columns
from repro.disk.scheduler import make_scheduler
from repro.errors import SimulationError
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics

#: ``submit_one`` has the bag reduce its request log at this many rows.
REQUEST_CHUNK = 1024


def reduce_request_rows(metrics: Metrics, rows: list) -> None:
    """Reducer of the request log ``SimulatedDisk.submit_one`` appends to.

    ``rows`` are ``(nblocks, is_write, positioning, transfer)`` in
    submission order, from every disk sharing the bag, and each stands for
    one scheduler batch of one request in and out.  Books what per-request
    updates in row order produce — histogram samples and the two float
    accumulators are taken strictly in that order, the counters are
    order-free.  A plain loop rather than numpy columns: the logs this sees
    hold a few to a few dozen rows, where a handful of array calls costs
    several times the loop."""
    n = len(rows)
    for name in ("scheduler.batches", "scheduler.requests_in", "scheduler.requests_out"):
        metrics.incr(name, n)
    latency = metrics.histogram_ref("disk.request_latency_s").observe
    size = metrics.histogram_ref("disk.request_blocks").observe
    blocks = positionings = writes = write_blocks = 0
    for nblocks, is_write, positioning, transfer in rows:
        latency(positioning + transfer)
        size(nblocks)
        blocks += nblocks
        if positioning > 0.0:
            positionings += 1
        if is_write:
            writes += 1
            write_blocks += nblocks
    _, _, positioning_s, transfer_s = zip(*rows)
    metrics.add_each("disk.positioning_s", positioning_s)
    metrics.add_each("disk.transfer_s", transfer_s)
    metrics.incr("disk.requests", n)
    metrics.incr("disk.blocks", blocks)
    if positionings:
        metrics.incr("disk.positionings", positionings)
    if writes:
        metrics.incr("disk.write_requests", writes)
        metrics.incr("disk.write_blocks", write_blocks)
    if writes < n:
        metrics.incr("disk.read_requests", n - writes)
        metrics.incr("disk.read_blocks", blocks - write_blocks)


class SimulatedDisk:
    """One disk: head position, busy-time accounting, attached scheduler.

    One request path.  A batch is columns from the submit call down
    (:meth:`submit_arrays`; :meth:`submit_batch` turns request objects into
    columns) and a batch of one takes :meth:`submit_one`'s scalar body.  An
    attached fault injector sees every arranged batch as columns on that
    same path (docs/FAULTS.md).
    """

    def __init__(
        self,
        params: DiskParams,
        scheduler_params: SchedulerParams | None = None,
        metrics: Metrics | None = None,
        name: str = "disk",
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.params = params
        self.name = name
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.model = ServiceTimeModel(params)
        self._transfer_s_per_block = params.transfer_s_per_block
        self.scheduler = make_scheduler(
            scheduler_params if scheduler_params is not None else SchedulerParams(),
            self.metrics,
            self.tracer,
        )
        self._head = 0
        self._busy_s = 0.0
        self._partial_s = 0.0
        self._counters = self.metrics.raw_counters()
        # The bag's request log, shared with every disk on the same bag:
        # submit_one appends one row per request instead of doing statistics.
        self._rows = self.metrics.deferred(reduce_request_rows)
        #: Optional fault injector (see :mod:`repro.fault`); None when the
        #: disk runs clean.
        self.injector = None

    # -- properties ---------------------------------------------------------
    @property
    def head(self) -> int:
        """Current head position (block number)."""
        return self._head

    @property
    def busy_s(self) -> float:
        """Total seconds this disk has spent servicing requests."""
        return self._busy_s

    @property
    def capacity_blocks(self) -> int:
        return self.params.capacity_blocks

    @property
    def torn_writes(self) -> int:
        """Torn writes injected so far (0 without an injector)."""
        return 0 if self.injector is None else self.injector.torn_writes

    def _charge_header(self) -> float:
        """Bill one per-submission request header (0 when unconfigured).

        Charged once per submit call on this disk, regardless of how many
        runs the submission carries — which is exactly what makes one
        scatter-gather list request cheaper than the equivalent loop of
        scalar submissions when ``DiskParams.request_header_s`` is nonzero.
        """
        header = self.model.header_s
        if header > 0.0:
            self._busy_s += header
            self._counters["disk.request_headers"] += 1
            self.metrics.add("disk.header_s", header)
        return header

    def attach_injector(self, injector) -> None:
        """Install a :class:`~repro.fault.injector.FaultInjector` beneath
        the request path, counting into this disk's metrics."""
        injector.bind(self.metrics, self.name)
        self.injector = injector

    def detach_injector(self) -> None:
        self.injector = None

    # -- operation ----------------------------------------------------------
    def submit_batch(self, requests: Sequence[BlockRequest]) -> float:
        """Service a batch of concurrently outstanding requests.

        Returns the seconds spent on the whole batch.  Requests are arranged
        by the scheduler first, so a batch of adjacent runs costs a single
        positioning operation.  The object form of :meth:`submit_arrays`.
        """
        return self.submit_arrays(*request_columns(requests))

    def submit_arrays(
        self, starts: np.ndarray, nblocks: np.ndarray, is_write: np.ndarray | bool
    ) -> float:
        """Service a batch held as columns: int64 ``starts`` and ``nblocks``
        in arrival order, ``is_write`` a bool column or one bool for the
        whole batch.  No :class:`BlockRequest` exists at any point.

        A batch of one is :meth:`submit_one`; anything longer is checked
        against capacity, arranged by the scheduler and serviced by the
        array core.  Caller contract, as for :meth:`submit_one`:
        ``nblocks > 0`` and ``starts >= 0``.
        """
        n = starts.shape[0]
        if n == 0:
            return 0.0
        one_kind = isinstance(is_write, bool)
        if n == 1:
            return self.submit_one(
                int(starts[0]), int(nblocks[0]),
                is_write if one_kind else bool(is_write[0]),
            )
        if one_kind:
            is_write = np.full(n, is_write)
        over = starts + nblocks > self.params.capacity_blocks
        if over.any():
            i = int(np.argmax(over))
            self._reject(int(starts[i]), int(starts[i] + nblocks[i]))
        return self._submit_checked(starts, nblocks, is_write)

    def _reject(self, start: int, end: int) -> None:
        raise SimulationError(
            f"{self.name}: request [{start}, {end}) beyond capacity "
            f"{self.params.capacity_blocks}"
        )

    def _submit_checked(
        self, starts: np.ndarray, nblocks: np.ndarray, is_write: np.ndarray
    ) -> float:
        """Header, scheduler, array core — for a batch already checked
        against capacity."""
        total = 0.0
        header = self._charge_header()
        self._partial_s = 0.0
        try:
            total = self._service_arrays(
                *self.scheduler.arrange_arrays(starts, nblocks, is_write)
            )
        finally:
            # A mid-batch fault still pays for the requests serviced before
            # it fired; _service_arrays leaves their time in _partial_s.
            self._busy_s += self._partial_s
            self._partial_s = 0.0
        return total + header

    def _service_arrays(
        self, starts: np.ndarray, nblocks: np.ndarray, is_write: np.ndarray
    ) -> float:
        """Service an *arranged* batch given as parallel arrays.

        Per-request times come from the numpy model and the pure counters
        are committed once per batch.  ``busy_s`` is folded in request
        order (``np.add.accumulate`` is the same left-to-right IEEE fold as
        a scalar loop), so phase timings match bit for bit, and the
        histograms take the whole batch through the exact ``observe_array``;
        only the unrendered positioning/transfer accumulators pick up
        last-ulp pairwise-summation drift.  Sets ``_partial_s`` and the
        head; the caller folds ``_partial_s`` into ``busy_s``.  A tracer
        gets one bulk append: request ``i`` starts where the fold stood
        before it.

        An attached injector filters the columns first: the prefix it lets
        through (possibly empty, torn writes shortened) is serviced, booked
        and traced exactly like a whole batch, its ``fault`` rows go in
        front of the requests they belong to, and its fault is raised last.
        """
        fault, marks = None, ()
        if self.injector is not None:
            serviced, nblocks, fault, marks = self.injector.filter_arrays(
                starts, nblocks, is_write
            )
            if fault is not None:
                starts, nblocks, is_write = (
                    starts[:serviced], nblocks[:serviced], is_write[:serviced]
                )
        n = starts.shape[0]
        positioning, transfer = self.model.time_batch_arrays(self._head, starts, nblocks)
        dur = positioning + transfer
        ends = np.add.accumulate(dur)
        tracer = self.tracer
        if tracer.enabled:
            ops = ["write" if w else "read" for w in is_write.tolist()]
            t = self._busy_s + np.concatenate(([0.0], ends[:-1]))
            lo = 0
            for hi, op, attrs in [*marks, (n, None, None)]:
                if hi > lo:
                    tracer.emit_batch(
                        "disk",
                        ops[lo:hi],
                        t[lo:hi],
                        dur[lo:hi],
                        disk=self.name,
                        start=starts[lo:hi],
                        nblocks=nblocks[lo:hi],
                        seek_s=positioning[lo:hi],
                        transfer_s=transfer[lo:hi],
                    )
                    lo = hi
                if op is not None:
                    tracer.emit("fault", op, **attrs)
        total = 0.0
        if n:  # an empty prefix books nothing, not zeros
            total = float(ends[-1])
            self._partial_s = total
            self._head = int(starts[-1] + nblocks[-1])
            metrics = self.metrics
            metrics.flush()  # logged submit_one rows come first
            metrics.observe_array("disk.request_latency_s", dur)
            metrics.observe_array("disk.request_blocks", nblocks)
            metrics.add("disk.positioning_s", float(positioning.sum()))
            metrics.add("disk.transfer_s", float(transfer.sum()))
            blocks_total = int(nblocks.sum())
            metrics.incr("disk.requests", n)
            metrics.incr("disk.blocks", blocks_total)
            positionings = int(np.count_nonzero(positioning))
            if positionings:
                metrics.incr("disk.positionings", positionings)
            writes = int(np.count_nonzero(is_write))
            if writes:
                write_blocks = int(nblocks[is_write].sum())
                metrics.incr("disk.write_requests", writes)
                metrics.incr("disk.write_blocks", write_blocks)
            if writes < n:
                read_blocks = blocks_total - (write_blocks if writes else 0)
                metrics.incr("disk.read_requests", n - writes)
                metrics.incr("disk.read_blocks", read_blocks)
        if fault is not None:
            raise fault
        return total

    def submit(self, request: BlockRequest) -> float:
        """Service a single request (degenerate batch)."""
        return self.submit_one(request.start, request.nblocks, request.is_write)

    def submit_one(self, start: int, nblocks: int, is_write: bool) -> float:
        """A batch of one: the scheduler's batch counters, the disk metrics,
        head movement and busy-time accounting of a one-request
        :meth:`submit_arrays`, without arranging a one-element batch (a
        fixed point of every scheduler: nothing to sort, nothing to merge)
        or building arrays.  Only the state the next request depends on
        (head, busy time) and the trace events are produced here; the
        statistics are one row in the bag's request log, reduced by
        :func:`reduce_request_rows` before anything reads them.  Caller
        contract: ``nblocks > 0`` and ``start >= 0``, as
        :class:`BlockRequest` validation would enforce.  Under an armed
        fault injector the request goes down as a one-row batch, so the
        injector sees it as columns like every other.
        """
        end = start + nblocks
        if end > self.params.capacity_blocks:
            self._reject(start, end)
        if self.injector is not None and self.injector.armed:
            return self._submit_checked(
                np.array([start]), np.array([nblocks]), np.array([is_write])
            )
        header = self.model.header_s
        if header > 0.0:
            self._charge_header()
        head = self._head
        positioning = 0.0 if start == head else self.model.positioning_time(head, start)
        transfer = nblocks * self._transfer_s_per_block
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
        rows = self._rows
        rows.append((nblocks, is_write, positioning, transfer))
        if len(rows) >= REQUEST_CHUNK:
            self.metrics.flush()
        return total + header

    def reset_timeline(self) -> None:
        """Zero the busy-time accumulator (head position is retained)."""
        self._busy_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedDisk(name={self.name!r}, head={self._head}, busy={self._busy_s:.4f}s)"
