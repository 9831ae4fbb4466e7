"""Traditional per-inode reservation (ext4/GPFS/CXFS style, §I and §II.B).

"For every file that is being extended, allocator reserves a range of
on-disk blocks near the last non-hole block of the file for it.  Blocks
needed by subsequent write (extend) operations for that inode are allocated
from that range, instead of from the whole file system."

The crucial property reproduced here is Figure 1(a)'s failure mode: the
reservation is **per inode, not per stream**, and hands out blocks in
*arrival order*.  When 64 processes extend disjoint regions of a shared
file, their blocks land physically adjacent in arrival order, so the
logical→physical indirection is scrambled even though the file occupies one
contiguous range on disk.
"""

from __future__ import annotations

from repro.alloc.base import AllocationPolicy, AllocTarget, PhysicalRun, _backs_exactly
from repro.alloc.window import Window
from repro.errors import NoSpaceError


class ReservationPolicy(AllocationPolicy):
    """Per-(file, PAG) reservation pool consumed in arrival order."""

    name = "reservation"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # (file_id, group_index) -> pool window.  ``logical`` is unused for
        # a pool (blocks are not bound to logical positions until consumed),
        # so it is fixed at 0.
        self._pools: dict[tuple[int, int], Window] = {}

    def allocate(
        self,
        file_id: int,
        stream_id: int,
        target: AllocTarget,
        dlocal: int,
        count: int,
    ) -> list[PhysicalRun]:
        self._counters["alloc.requests"] += 1
        key = (file_id, target.group_index)
        pool = self._pools.get(key)
        if pool is not None and pool.length - pool.consumed >= count:
            # Fast path: the live pool covers the whole request — one run,
            # no loop, no property indirection.
            run = PhysicalRun(
                dlocal=dlocal, physical=pool.physical + pool.consumed, length=count
            )
            pool.consumed += count
            return [run]
        runs: list[PhysicalRun] = []
        cursor = dlocal
        remaining = count
        try:
            while remaining > 0:
                pool = self._pools.get(key)
                if pool is None or pool.exhausted:
                    pool = self._refill(key, target, pool)
                    if pool is None:
                        # Reservation impossible (space too fragmented/full):
                        # degrade to plain allocation for the tail.
                        for start, got in self._plain_allocate(target, None, remaining):
                            runs.append(PhysicalRun(dlocal=cursor, physical=start, length=got))
                            cursor += got
                        return runs
                take = min(remaining, pool.remaining)
                runs.append(
                    PhysicalRun(dlocal=cursor, physical=pool.next_physical, length=take)
                )
                pool.consumed += take
                cursor += take
                remaining -= take
        except NoSpaceError:
            # Pool blocks this call consumed belong to no pool any more and
            # the caller maps nothing on failure: free them, as OnDemandPolicy
            # does, so the books stay balanced.
            for run in runs:
                self.fsm.free(run.physical, run.length)
            raise
        return runs

    def allocate_many(self, file_ids, streams, targets, dstarts, dcounts, out_physical):
        """:meth:`allocate`'s fast path in place: a row its file's live pool
        covers takes the pool's next blocks."""
        pools = self._pools
        served = 0
        try:
            for fid, sid, target, ds, dc in zip(file_ids, streams, targets, dstarts, dcounts):
                pool = pools.get((fid, target.group_index))
                if pool is not None:
                    used = pool.consumed
                    if used + dc <= pool.length:
                        pool.consumed = used + dc
                        out_physical.append(pool.physical + used)
                        served += 1
                        continue
                new = self.allocate(fid, sid, target, ds, dc)
                if not _backs_exactly(new, ds, dc):
                    return new
                out_physical.append(new[0].physical)
            return None
        finally:
            if served:
                self._counters["alloc.requests"] += served

    def release(self, file_id: int) -> int:
        """Return every unconsumed reserved block of ``file_id`` to free
        space (reservations are in-memory only and die with the file)."""
        released = 0
        for key in [k for k in self._pools if k[0] == file_id]:
            pool = self._pools.pop(key)
            if pool.remaining > 0:
                self.fsm.free(pool.next_physical, pool.remaining)
                released += pool.remaining
        if released:
            self.metrics.incr("alloc.reservation_released", released)
        return released

    def _refill(
        self, key: tuple[int, int], target: AllocTarget, old: Window | None
    ) -> Window | None:
        """Reserve a fresh pool, preferably right after the previous one."""
        hint = old.physical_end if old is not None else None
        try:
            start, got = self.fsm.allocate_in_group(
                target.group_index,
                self.params.reservation_blocks,
                hint=hint,
                minimum=1,
            )
        except NoSpaceError:
            self._pools.pop(key, None)
            return None
        self.metrics.incr("alloc.reservations")
        self.metrics.incr("alloc.reserved_blocks", got)
        pool = Window(logical=0, physical=start, length=got)
        self._pools[key] = pool
        return pool
