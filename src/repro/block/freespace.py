"""Free-space manager: the PAG directory for a whole disk array.

Carves each disk's block range into ``pags_per_disk`` allocation groups and
routes allocations.  File placement policy (which PAG a file's next stripe
lands in) lives here; *how much* is allocated and reserved per write is the
preallocation policy's job (:mod:`repro.alloc`).
"""

from __future__ import annotations

from repro.block.group import AllocationGroup
from repro.errors import AllocationError
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics

#: Trace schema, ``(layer, op, *attr names)``.
_FREE = ("fsm", "free", "start", "count", "groups")


class FreeSpaceManager:
    """All allocation groups over a disk array's global block space."""

    def __init__(
        self,
        ndisks: int,
        blocks_per_disk: int,
        pags_per_disk: int,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if ndisks <= 0 or blocks_per_disk <= 0 or pags_per_disk <= 0:
            raise AllocationError("geometry parameters must be positive")
        if blocks_per_disk % pags_per_disk != 0:
            raise AllocationError(
                f"blocks_per_disk ({blocks_per_disk}) must be divisible by "
                f"pags_per_disk ({pags_per_disk})"
            )
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.ndisks = ndisks
        self.blocks_per_disk = blocks_per_disk
        self.pags_per_disk = pags_per_disk
        group_size = blocks_per_disk // pags_per_disk
        self._group_size = group_size
        self.groups: list[AllocationGroup] = []
        index = 0
        for disk in range(ndisks):
            disk_base = disk * blocks_per_disk
            for g in range(pags_per_disk):
                self.groups.append(AllocationGroup(
                    index=index,
                    base=disk_base + g * group_size,
                    size=group_size,
                    disk_index=disk,
                    metrics=self.metrics,
                    tracer=self.tracer,
                ))
                index += 1
        # Incremental free total, delta-updated on every allocate/free so the
        # hot utilization checks never walk all groups.
        self._free_total = ndisks * blocks_per_disk
        # Per-allocation bumps go inline on the live counter mapping and a
        # lazily bound histogram (an idle manager leaves none behind).
        self._counters = self.metrics.raw_counters()
        self._run_hist = None

    # -- queries ------------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        return self.ndisks * self.blocks_per_disk

    @property
    def free_blocks(self) -> int:
        return self._free_total

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self._free_total

    @property
    def utilization(self) -> float:
        """Used fraction of the whole array (0..1)."""
        return self.used_blocks / self.total_blocks

    def group_of(self, block: int) -> AllocationGroup:
        """The group containing global block ``block``."""
        if not (0 <= block < self.total_blocks):
            raise AllocationError(f"block out of range: {block}")
        # Groups tile the global space contiguously (disk-major), so the
        # group index is a single division.
        return self.groups[block // self._group_size]

    # -- allocation ---------------------------------------------------------
    def allocate_in_group(
        self,
        group_index: int,
        count: int,
        hint: int | None = None,
        minimum: int | None = None,
    ) -> tuple[int, int]:
        """Contiguous allocation of up to ``count`` blocks in one PAG.

        Never outside it: a PAG that cannot give even ``minimum`` blocks
        raises :class:`~repro.errors.NoSpaceError`, whatever its siblings
        hold, because a file's layout names one PAG per stripe slot.
        """
        if not (0 <= group_index < len(self.groups)):
            raise AllocationError(f"group index out of range: {group_index}")
        start, got = self.groups[group_index].allocate(count, hint=hint, minimum=minimum)
        self._free_total -= got
        counters = self._counters
        counters["fsm.allocations"] += 1
        counters["fsm.blocks_allocated"] += got
        hist = self._run_hist
        if hist is None:
            hist = self._run_hist = self.metrics.histogram_ref("fsm.alloc_run_blocks")
        hist.observe(got)
        return (start, got)

    def allocate_near(
        self, hint: int, count: int, minimum: int | None = None
    ) -> tuple[int, int]:
        """Allocate near a global block hint (group derived from the hint)."""
        group = self.group_of(hint)
        return self.allocate_in_group(group.index, count, hint=hint, minimum=minimum)

    def allocate_exact(self, start: int, count: int) -> None:
        """Allocate exactly [start, start+count); must lie in one group."""
        group = self.group_of(start)
        if start + count > group.end:
            raise AllocationError(
                f"exact allocation [{start}, {start + count}) crosses group boundary"
            )
        group.allocate_exact(start, count)
        self._free_total -= count
        self.metrics.incr("fsm.allocations")
        self.metrics.incr("fsm.blocks_allocated", count)

    def free(self, start: int, count: int) -> None:
        """Free [start, start+count); may span group boundaries."""
        if count <= 0:
            return
        if start < 0 or start + count > self.total_blocks:
            raise AllocationError(
                f"free [{start}, {start + count}) outside array of "
                f"{self.total_blocks} blocks"
            )
        # Pre-split the range on group boundaries arithmetically: groups tile
        # the global space, so the covered groups are a contiguous index run.
        gs = self._group_size
        first = start // gs
        last = (start + count - 1) // gs
        cursor = start
        for gi in range(first, last + 1):
            group = self.groups[gi]
            chunk = min(start + count, group.end) - cursor
            group.release(cursor, chunk)
            cursor += chunk
        self._free_total += count
        self.metrics.incr("fsm.blocks_freed", count)
        if self.tracer.enabled:
            self.tracer.record(_FREE, None, 0.0, None, start, count, last - first + 1)
