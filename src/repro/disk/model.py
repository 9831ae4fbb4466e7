"""Disk service-time model.

This is the physical mechanism the whole paper is about: when a file's
logical blocks are scattered over the platter, "the disk head has to move
back and forth constantly among the different regions" (§I).  We charge each
request a positioning time that depends on the distance from the previous
request's last block, plus a per-block transfer time at the sequential rate.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.config import DiskParams
from repro.errors import SimulationError


class BlockRequest:
    """A contiguous physical request on one disk.

    ``start`` is the first physical block, ``nblocks`` the run length.
    ``is_write`` only matters for cache behaviour; the drive model charges
    reads and writes identically (the paper's disks are near-symmetric:
    170.2 vs 171.3 MB/s).

    A plain slots class rather than a frozen dataclass: the batched I/O
    pipeline constructs hundreds of thousands per run, and the frozen
    ``object.__setattr__`` init path costs ~3x a plain one.  Value
    semantics (eq/hash/repr) are kept dataclass-compatible.
    """

    __slots__ = ("start", "nblocks", "is_write")

    def __init__(self, start: int, nblocks: int, is_write: bool = False) -> None:
        if start < 0:
            raise SimulationError(f"negative start block: {start}")
        if nblocks <= 0:
            raise SimulationError(f"request must cover at least one block: {nblocks}")
        self.start = start
        self.nblocks = nblocks
        self.is_write = is_write

    @property
    def end(self) -> int:
        """One past the last block of the request."""
        return self.start + self.nblocks

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not BlockRequest:
            return NotImplemented
        return (
            self.start == other.start
            and self.nblocks == other.nblocks
            and self.is_write == other.is_write
        )

    def __hash__(self) -> int:
        return hash((self.start, self.nblocks, self.is_write))

    def __repr__(self) -> str:
        return (
            f"BlockRequest(start={self.start}, nblocks={self.nblocks}, "
            f"is_write={self.is_write})"
        )


def request_columns(
    requests: Sequence[BlockRequest],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``requests`` as ``(starts, nblocks, is_write)`` columns: the one
    place request objects turn into what the disks service."""
    n = len(requests)
    return (
        np.fromiter((r.start for r in requests), dtype=np.int64, count=n),
        np.fromiter((r.nblocks for r in requests), dtype=np.int64, count=n),
        np.fromiter((r.is_write for r in requests), dtype=bool, count=n),
    )


class ServiceTimeModel:
    """Computes positioning + transfer time for block requests.

    Positioning cost for a head movement of ``d`` blocks:

    - ``d == 0``: free (sequential continuation).
    - ``0 < d <= near_gap_blocks``: near-seek settle time only (the head
      stays in the same track neighbourhood; models skip-reads).
    - otherwise: ``min_seek + (max_seek - min_seek) * sqrt(d / capacity)``
      plus the average rotational latency.  The square root approximates the
      classic seek curve (acceleration-limited short seeks, coast-limited
      long seeks).
    """

    def __init__(self, params: DiskParams) -> None:
        self.params = params
        self._transfer = params.transfer_s_per_block
        self._span = float(params.capacity_blocks)
        #: Per-submission request-header charge (0 by default).  A
        #: scatter-gather list submission pays this once for its whole
        #: region list; a loop of scalar submissions pays it per call.
        self.header_s = params.request_header_s

    def positioning_time(self, head: int, start: int) -> float:
        """Seconds to move the head from block ``head`` to block ``start``."""
        distance = abs(start - head)
        if distance == 0:
            return 0.0
        p = self.params
        if distance <= p.near_gap_blocks:
            return p.min_seek_s
        seek = p.min_seek_s + (p.max_seek_s - p.min_seek_s) * math.sqrt(
            min(distance, self._span) / self._span
        )
        return seek + p.rotational_s

    def transfer_time(self, nblocks: int) -> float:
        """Seconds to transfer ``nblocks`` at the sequential rate."""
        if nblocks < 0:
            raise SimulationError(f"negative block count: {nblocks}")
        return nblocks * self._transfer

    def time_for(self, head: int, request: BlockRequest) -> float:
        """Total service time for ``request`` with the head at ``head``: the
        scalar oracle for :meth:`time_batch`."""
        return self.positioning_time(head, request.start) + self.transfer_time(request.nblocks)

    def time_batch(
        self, head: int, requests: Sequence[BlockRequest]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-request ``(positioning, transfer)`` seconds for a whole batch.

        The head starts at ``head`` and follows request order (each request
        leaves it at its ``end``), exactly as a serial loop over
        :meth:`time_for` would.  Every element is bit-identical to the scalar
        path: the same IEEE-754 operations are applied in the same order,
        just across the whole batch at once.
        """
        starts, nblocks, _ = request_columns(requests)
        return self.time_batch_arrays(head, starts, nblocks)

    def time_batch_arrays(
        self, head: int, starts: np.ndarray, nblocks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array core of :meth:`time_batch` for callers that already hold
        ``starts``/``nblocks`` as int64 arrays."""
        n = starts.shape[0]
        if n == 0:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty
        heads = np.empty(n, dtype=np.int64)
        heads[0] = head
        np.add(starts[:-1], nblocks[:-1], out=heads[1:])
        dist = np.abs(starts - heads)
        p = self.params
        seek = p.min_seek_s + (p.max_seek_s - p.min_seek_s) * np.sqrt(
            np.minimum(dist, self._span) / self._span
        )
        positioning = np.where(
            dist == 0,
            0.0,
            np.where(dist <= p.near_gap_blocks, p.min_seek_s, seek + p.rotational_s),
        )
        transfer = nblocks * self._transfer
        return positioning, transfer

    def sweep_cost(self, runs: Iterable[tuple[int, int]]) -> tuple[float, int]:
        """Positioning cost of visiting ``(start, nblocks)`` runs in order.

        Returns ``(total positioning seconds, nonzero repositions)`` for a
        head sweep that reads each run back to back — the layout
        inspector's model of one sequential scan over a (possibly
        fragmented) file.  Transfer time is excluded on purpose: it is
        identical for any layout of the same data, so the sweep cost
        isolates what fragmentation alone costs.
        """
        total = 0.0
        seeks = 0
        head: int | None = None
        for start, nblocks in runs:
            if head is not None:
                cost = self.positioning_time(head, start)
                if cost > 0.0:
                    total += cost
                    seeks += 1
            head = start + nblocks
        return (total, seeks)
