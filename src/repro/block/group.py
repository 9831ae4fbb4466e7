"""Parallel allocation groups (PAGs).

Redbud divides the shared disks "into parallel allocation groups (PAG) for
parallel management of free space" (§V.A).  Each group manages a contiguous
global block range lying entirely on one disk; concurrent allocations in
different groups never contend for the same free-space structures.
"""

from __future__ import annotations

from repro.block.freelist import FreeExtentSet
from repro.errors import AllocationError
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics

#: Trace schema, ``(layer, op, *attr names)``, of a shortened allocation.
_DEGRADED_ALLOC = ("fsm", "degraded_alloc", "group", "want", "got", "goal")


class AllocationGroup:
    """One PAG: a contiguous global block range plus its free-space set."""

    def __init__(
        self,
        index: int,
        base: int,
        size: int,
        disk_index: int,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if index < 0 or disk_index < 0:
            raise AllocationError(f"invalid group ids: index={index} disk={disk_index}")
        self.index = index
        self.base = base
        self.size = size
        self.disk_index = disk_index
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.free = FreeExtentSet(base, size)
        #: Rotating cursor: the next goal block for unhinted allocations,
        #: so fresh files spread out instead of piling at the group start.
        self.cursor = base

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def free_blocks(self) -> int:
        return self.free.free_blocks

    @property
    def used_blocks(self) -> int:
        return self.free.used_blocks

    @property
    def utilization(self) -> float:
        """Used fraction of the group (0..1)."""
        return self.free.used_blocks / self.size

    def contains(self, block: int) -> bool:
        return self.base <= block < self.end

    def used_runs(self) -> list[tuple[int, int]]:
        """Used ``(start, length)`` runs: the complement of the free runs.

        Global block coordinates, sorted ascending; the layout inspector's
        occupancy heatmap is drawn from these.
        """
        runs: list[tuple[int, int]] = []
        cursor = self.base
        for start, length in self.free.runs():
            if start > cursor:
                runs.append((cursor, start - cursor))
            cursor = start + length
        if cursor < self.end:
            runs.append((cursor, self.end - cursor))
        return runs

    def allocate(
        self, count: int, hint: int | None = None, minimum: int | None = None
    ) -> tuple[int, int]:
        """Allocate up to ``count`` contiguous blocks, preferring ``hint``.

        Without a hint the rotating cursor is used.  Returns (start, got).
        """
        goal = self.cursor if hint is None else hint
        if not self.contains(goal):
            goal = self.base
        start, got = self.free.allocate_near(goal, count, minimum=minimum)
        if got < count:
            # allocate-near degraded: the group could not satisfy the full
            # contiguous run and fell back to a shorter one.
            if self.metrics is not None:
                self.metrics.incr("pag.degraded_allocations")
                self.metrics.incr("pag.degraded_shortfall_blocks", count - got)
            if self.tracer.enabled:
                self.tracer.record(
                    _DEGRADED_ALLOC, None, 0.0, None, self.index, count, got, goal
                )
        if hint is None:
            # Only unhinted allocations advance the rotating cursor; hinted
            # ones (window growth, reservations) must not drag the cursor
            # behind them, or unrelated allocations would land right after a
            # stream's window and block its contiguous expansion.
            self.cursor = start + got
            if self.cursor >= self.end:
                self.cursor = self.base
        return (start, got)

    def allocate_exact(self, start: int, count: int) -> None:
        """Allocate exactly [start, start+count) (used to commit reserved
        windows); raises if not free."""
        self.free.allocate_exact(start, count)

    def release(self, start: int, count: int) -> None:
        """Free [start, start+count)."""
        self.free.free(start, count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AllocationGroup(index={self.index}, base={self.base}, size={self.size}, "
            f"disk={self.disk_index}, free={self.free_blocks})"
        )
