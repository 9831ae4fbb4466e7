"""Striped disk array (the shared-disk JBOD behind Redbud's PAGs).

Global block address space is disk-major: disk ``d`` owns global blocks
``[d * blocks_per_disk, (d+1) * blocks_per_disk)``.  Parallel allocation
groups (PAGs) are carved out of this space so that each PAG lies entirely on
one spindle — a physically contiguous global run is then contiguous on its
disk, which is what makes contiguity matter.

Each disk keeps its own busy-time timeline; a phase's elapsed time is the
maximum over disks, modelling spindles that work in parallel.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import DiskParams, SchedulerParams
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.errors import SimulationError
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics


class DiskArray:
    """N identical simulated disks behind one global block address space."""

    def __init__(
        self,
        ndisks: int,
        disk_params: DiskParams,
        scheduler_params: SchedulerParams | None = None,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
        vectorized: bool = True,
    ) -> None:
        if ndisks <= 0:
            raise SimulationError(f"ndisks must be positive: {ndisks}")
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.disk_params = disk_params
        self.disks = [
            SimulatedDisk(
                disk_params,
                scheduler_params,
                self.metrics,
                name=f"disk{d}",
                tracer=self.tracer,
                vectorized=vectorized,
            )
            for d in range(ndisks)
        ]
        self.blocks_per_disk = disk_params.capacity_blocks
        # The array-path submit needs the vectorized disk model, fixed at
        # construction (every scheduler can arrange parallel arrays).
        # Fault injection is re-checked per batch (it can toggle mid-run).
        self._arrays_capable = vectorized
        # Execution-profile introspection: which submit path serviced each
        # batch.  Kept off the Metrics bag on purpose — the scalar and
        # vectorized paths must report *identical* metrics (the
        # legacy-vs-batched identity tests pin that), while these counters
        # exist to tell the paths apart (e.g. to assert a traced run took
        # the same path as an untraced one).
        self.io_profile: dict[str, int] = {
            "batches_vectorized": 0,
            "batches_scalar": 0,
        }

    @property
    def ndisks(self) -> int:
        return len(self.disks)

    @property
    def total_blocks(self) -> int:
        """Capacity of the whole array in global blocks."""
        return self.ndisks * self.blocks_per_disk

    def locate(self, global_block: int) -> tuple[int, int]:
        """Translate a global block number to ``(disk index, local block)``."""
        if not (0 <= global_block < self.total_blocks):
            raise SimulationError(f"global block out of range: {global_block}")
        return divmod(global_block, self.blocks_per_disk)

    def submit_batch(self, requests: Sequence[BlockRequest]) -> float:
        """Service a batch of concurrently outstanding global requests.

        Requests are split per disk and each disk services its share on its
        own timeline.  Returns the batch's wall time: the maximum per-disk
        batch time (disks run in parallel).  A batch for the array path is
        converted to columns once and handed to :meth:`submit_columns`.
        """
        if not self._takes_arrays(len(requests)):
            return self._submit_objects(requests)
        n = len(requests)
        return self.submit_columns(
            np.fromiter((r.start for r in requests), dtype=np.int64, count=n),
            np.fromiter((r.nblocks for r in requests), dtype=np.int64, count=n),
            np.fromiter((r.is_write for r in requests), dtype=bool, count=n),
        )

    def _takes_arrays(self, n: int) -> bool:
        """Whether a batch of ``n`` requests is serviced by the array core:
        one-request batches, scalar disks and armed fault injectors keep
        the per-request object path."""
        return (
            n > 1
            and self._arrays_capable
            and all(d.injector is None for d in self.disks)
        )

    def _submit_objects(self, requests: Sequence[BlockRequest]) -> float:
        """Object path of a submit: one local request object per request."""
        if not requests:
            return 0.0
        self.io_profile["batches_scalar"] += 1
        per_disk: dict[int, list[BlockRequest]] = {}
        for req in requests:
            disk_idx, local = self.locate(req.start)
            if local + req.nblocks > self.blocks_per_disk:
                raise SimulationError(
                    f"request [{req.start}, {req.start + req.nblocks}) spans disks"
                )
            per_disk.setdefault(disk_idx, []).append(
                BlockRequest(local, req.nblocks, req.is_write)
            )
        return max(
            self.disks[idx].submit_batch(batch) for idx, batch in per_disk.items()
        )

    def submit_columns(
        self, starts: np.ndarray, nblocks: np.ndarray, is_write: np.ndarray | bool
    ) -> float:
        """:meth:`submit_batch` for a batch held as columns: int64 global
        ``starts`` and ``nblocks`` in arrival order, ``is_write`` a bool
        column or one bool for the whole batch.

        The one submit core.  The batch is split per disk with integer
        arithmetic and handed to each disk's
        :meth:`~repro.disk.disk.SimulatedDisk.submit_arrays` — no per-request
        ``locate`` calls and no :class:`BlockRequest` objects.  Bounds, span
        and length checks match the object path and fire before any disk
        services work, and disks are visited in the order the batch first
        touches them, as the object path's per-disk split does, so both
        paths emit trace events in the same order.  Batches the array core
        does not take (see :meth:`submit_batch`) become request objects.
        """
        n = starts.shape[0]
        if isinstance(is_write, bool):
            is_write = np.full(n, is_write)
        if not self._takes_arrays(n):
            return self._submit_objects(
                [
                    BlockRequest(*row)
                    for row in zip(starts.tolist(), nblocks.tolist(), is_write.tolist())
                ]
            )
        self.io_profile["batches_vectorized"] += 1
        bpd = self.blocks_per_disk
        disk_idx = starts // bpd
        local = starts - disk_idx * bpd
        out_of_range = (starts < 0) | (disk_idx >= len(self.disks))
        spans = local + nblocks > bpd
        bad = out_of_range | spans | (nblocks <= 0)
        if bad.any():
            i = int(np.argmax(bad))
            # BlockRequest's own construction checks, then the array's.
            BlockRequest(int(starts[i]), int(nblocks[i]))
            if out_of_range[i]:
                raise SimulationError(f"global block out of range: {int(starts[i])}")
            raise SimulationError(
                f"request [{int(starts[i])}, {int(starts[i] + nblocks[i])}) spans disks"
            )
        total = 0.0
        disks = self.disks
        for d in dict.fromkeys(disk_idx.tolist()):
            mask = disk_idx == d
            t = disks[d].submit_arrays(local[mask], nblocks[mask], is_write[mask])
            if t > total:
                total = t
        return total

    @property
    def elapsed_s(self) -> float:
        """Wall time of all work so far: the busiest disk's timeline."""
        return max(d.busy_s for d in self.disks)

    @property
    def total_busy_s(self) -> float:
        """Sum of per-disk busy seconds (utilization accounting)."""
        return sum(d.busy_s for d in self.disks)

    def reset_timelines(self) -> None:
        """Zero all disk timelines (between experiment phases)."""
        for d in self.disks:
            d.reset_timeline()
