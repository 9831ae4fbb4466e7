"""I/O schedulers.

The elevator scheduler is load-bearing for the reproduction: §V.C.1 notes
that "the scheduler underlying file systems can not merge the fragmentary
requests on disk", which is exactly why fragmented placement hurts.  Our
elevator sorts each dispatch batch by physical block number and merges runs
whose inter-request gap is within ``merge_gap_blocks`` — contiguous
placement therefore collapses a concurrent batch into a few large transfers,
while fragmented placement leaves many positioning operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.config import SchedulerParams
from repro.disk.model import BlockRequest
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics

#: Trace schema of one arranged batch, ``(layer, op, *attr names)``.
ARRANGE = ("sched", "arrange", "requests_in", "requests_out")


class _Scheduler:
    """Parameters, books and the sorted-writes arrangement both share."""

    #: Whether a batch is split into ``batch_limit`` windows in arrival order.
    windowed = False

    def __init__(
        self,
        params: SchedulerParams,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.params = params
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _book(self, n_in: int, n_out: int) -> None:
        """Count one arranged batch and record its ``sched arrange`` row."""
        metrics = self.metrics
        metrics.incr("scheduler.batches")
        metrics.incr("scheduler.requests_in", n_in)
        metrics.incr("scheduler.requests_out", n_out)
        if self.tracer.enabled:
            self.tracer.record(ARRANGE, None, 0.0, None, n_in, n_out)

    def arrange_sorted_writes(self, blocks: list[int]) -> list[list[int]]:
        """:meth:`arrange_arrays` of one-block writes to the ascending,
        distinct ``blocks``, as ``[start, end)`` runs: a window of them is
        already sorted, so arranging it is merging it."""
        gap = self.params.merge_gap_blocks
        limit = self.params.batch_limit if self.windowed else len(blocks)
        runs = []
        for i, block in enumerate(blocks):
            if i % limit and block - runs[-1][1] <= gap:
                runs[-1][1] = block + 1
            else:
                runs.append([block, block + 1])
        self._book(len(blocks), len(runs))
        return runs


class FifoScheduler(_Scheduler):
    """Dispatch requests in arrival order; merge only back-to-back runs."""

    def arrange(self, requests: Sequence[BlockRequest]) -> list[BlockRequest]:
        """Return the dispatch order for one batch of concurrent requests."""
        merged = _merge_sorted(requests, self.params.merge_gap_blocks)
        self._book(len(requests), len(merged))
        return merged

    def arrange_arrays(
        self, starts: np.ndarray, nblocks: np.ndarray, writes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array form of :meth:`arrange` for the batched I/O pipeline.

        Arrival order is preserved (no sort); only back-to-back runs within
        ``merge_gap_blocks`` merge, exactly as :meth:`arrange` does.  Same
        caller contract as the elevator's ``arrange_arrays``.
        """
        s, b, w = _merge_arrays(
            starts, nblocks, writes, self.params.merge_gap_blocks
        )
        self._book(starts.shape[0], s.shape[0])
        return s, b, w


class ElevatorScheduler(_Scheduler):
    """Sort each batch by start block, then merge near-contiguous runs.

    Batches larger than ``batch_limit`` are split in arrival order first
    (the drive's queue is finite, like the kernel's nr_requests), so a huge
    concurrent burst cannot be globally sorted into one perfect sweep.
    """

    windowed = True

    def arrange(self, requests: Sequence[BlockRequest]) -> list[BlockRequest]:
        """Return the dispatch order for one batch of concurrent requests."""
        out: list[BlockRequest] = []
        limit = self.params.batch_limit
        for i in range(0, len(requests), limit):
            window = sorted(
                requests[i : i + limit], key=lambda r: (r.start, r.nblocks)
            )
            out.extend(_merge_sorted(window, self.params.merge_gap_blocks))
        self._book(len(requests), len(out))
        return out

    def arrange_arrays(
        self, starts: np.ndarray, nblocks: np.ndarray, writes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array form of :meth:`arrange` for the batched I/O pipeline.

        Takes the batch as parallel ``(starts, nblocks, is_write)`` arrays in
        arrival order and returns the arranged batch the same way, so no
        :class:`BlockRequest` objects are built.  The permutation and merge
        decisions are identical to :meth:`arrange`: windows split in arrival
        order, each stable-sorted by ``(start, nblocks)``, runs merged when
        the inter-request gap is within ``merge_gap_blocks`` and the kind
        matches.
        """
        n = starts.shape[0]
        gap = self.params.merge_gap_blocks
        limit = self.params.batch_limit
        windows = []
        for i in range(0, n, limit):
            s = starts[i : i + limit]
            b = nblocks[i : i + limit]
            w = writes[i : i + limit]
            # lexsort is stable, so full (start, nblocks) ties keep arrival
            # order — the same permutation sorted() produces in arrange().
            order = np.lexsort((b, s))
            windows.append(_merge_arrays(s[order], b[order], w[order], gap))
        m_s, m_n, m_w = (
            windows[0] if len(windows) == 1 else map(np.concatenate, zip(*windows))
        )
        self._book(n, m_s.shape[0])
        return m_s, m_n, m_w


def make_scheduler(
    params: SchedulerParams,
    metrics: Metrics | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> FifoScheduler | ElevatorScheduler:
    """Factory keyed on ``params.kind``."""
    if params.kind == "fifo":
        return FifoScheduler(params, metrics, tracer)
    return ElevatorScheduler(params, metrics, tracer)


def _merge_arrays(
    s: np.ndarray, b: np.ndarray, w: np.ndarray, gap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`_merge_sorted` over parallel dispatch-order arrays.

    A run merges into its predecessor exactly when the gap is in
    ``[0, gap]`` and the kind matches; a merged run always ends at its last
    request's end, so the pairwise test over the arrays reproduces
    ``_merge_sorted``'s chains in any dispatch order (sorted or arrival).
    """
    if s.shape[0] <= 1:
        return s, b, w
    e = s + b
    d = s[1:] - e[:-1]
    heads = np.empty(s.shape[0], dtype=bool)
    heads[0] = True
    np.logical_not((w[1:] == w[:-1]) & (d >= 0) & (d <= gap), out=heads[1:])
    idx = np.flatnonzero(heads)
    if idx.shape[0] == s.shape[0]:
        return s, b, w
    last = np.empty_like(idx)
    last[:-1] = idx[1:] - 1
    last[-1] = s.shape[0] - 1
    s = s[idx]
    return s, e[last] - s, w[idx]


def _merge_sorted(requests: Iterable[BlockRequest], gap: int) -> list[BlockRequest]:
    """Merge consecutive requests whose gap is <= ``gap`` blocks.

    Requests of different kinds (read vs write) are never merged; the gap
    blocks between merged reads are transferred too (skip-read), which is
    still cheaper than a positioning operation.
    """
    merged: list[BlockRequest] = []
    for req in requests:
        if merged:
            prev = merged[-1]
            distance = req.start - prev.end
            if prev.is_write == req.is_write and 0 <= distance <= gap:
                merged[-1] = BlockRequest(
                    start=prev.start,
                    nblocks=req.end - prev.start,
                    is_write=prev.is_write,
                )
                continue
        merged.append(req)
    return merged
