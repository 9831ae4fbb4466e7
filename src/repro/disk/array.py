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

import numpy as np

from repro.config import DiskParams, SchedulerParams
from repro.disk.disk import SimulatedDisk
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
            )
            for d in range(ndisks)
        ]
        self.blocks_per_disk = disk_params.capacity_blocks
        # Batch-shape introspection: how many submitted batches held one
        # request (each disk services those through its scalar submit_one
        # body) and how many held more (the array core).  Kept off the
        # Metrics bag on purpose — it describes the batches' shape, not the
        # run's outcome, and lets a test assert that a traced run saw the
        # same batches as an untraced one.
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

    def _checked(self, start: int, nblocks: int) -> tuple[int, int]:
        """``(disk index, local block)`` of one request, after the request
        checks (a non-negative start, at least one block), then the
        array's range and span checks."""
        if start < 0:
            raise SimulationError(f"negative start block: {start}")
        if nblocks <= 0:
            raise SimulationError(f"request must cover at least one block: {nblocks}")
        disk_idx, local = self.locate(start)
        if local + nblocks > self.blocks_per_disk:
            raise SimulationError(f"request [{start}, {start + nblocks}) spans disks")
        return disk_idx, local

    def submit_batch(
        self, starts: np.ndarray, nblocks: np.ndarray, is_write: np.ndarray | bool
    ) -> float:
        """Service a batch of concurrently outstanding global requests held
        as columns: int64 global ``starts`` and ``nblocks`` in arrival
        order, ``is_write`` a bool column or one bool for the whole batch.

        The array's one submit.  The batch is split per disk with integer
        arithmetic and each disk services its share on its own timeline
        (:meth:`~repro.disk.disk.SimulatedDisk.submit_arrays`); a batch of
        one has nothing to split and goes to its disk's ``submit_one``.
        Returns the batch's wall time: the maximum per-disk batch time
        (disks run in parallel).  Bounds, span and length checks fire
        before any disk services work, and disks are visited in the order
        the batch first touches them, so trace events come out in arrival
        order of the disks.
        """
        n = starts.shape[0]
        if n == 0:
            return 0.0
        one_kind = isinstance(is_write, bool)
        if n == 1:  # nothing to split: straight to the owning disk
            self.io_profile["batches_scalar"] += 1
            d, local = self._checked(int(starts[0]), int(nblocks[0]))
            return self.disks[d].submit_one(
                local, int(nblocks[0]), is_write if one_kind else bool(is_write[0])
            )
        self.io_profile["batches_vectorized"] += 1
        if one_kind:
            is_write = np.full(n, is_write)
        bpd = self.blocks_per_disk
        disk_idx = starts // bpd
        local = starts - disk_idx * bpd
        bad = (
            (starts < 0) | (disk_idx >= len(self.disks))
            | (local + nblocks > bpd) | (nblocks <= 0)
        )
        if bad.any():
            i = int(np.argmax(bad))
            self._checked(int(starts[i]), int(nblocks[i]))
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
