"""Log-structured / copy-on-write allocation (§II.B related work).

"The object storage servers in Ceph file system aggressively perform
copy-on-write: with the exception of superblock updates, data is always
written to unallocated regions of disk.  Assuming that free extents of
disk blocks are always available, this approach works extremely well for
write activity.  Unfortunately, previous study have all indicated that the
performance of read traffic can be compromised in many cases."

The policy appends every allocation at a per-PAG log head — concurrent
streams' data interleaves in arrival order *by design* (great for writes,
exactly the intra-file fragmentation MiF avoids on reads).  Overwrites are
never in place: the file system reallocates (``cow`` attribute) so old
blocks are freed and new ones appended.
"""

from __future__ import annotations

from repro.alloc.base import AllocationPolicy, AllocTarget, PhysicalRun


class CowPolicy(AllocationPolicy):
    """Append-only allocation at a per-PAG log head."""

    name = "cow"

    #: The file system reallocates overwritten ranges instead of writing
    #: in place.
    cow = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # group index -> log head (next append position), lazily initialised
        # to the group base.
        self._heads: dict[int, int] = {}

    def allocate(
        self,
        file_id: int,
        stream_id: int,
        target: AllocTarget,
        dlocal: int,
        count: int,
    ) -> list[PhysicalRun]:
        """Append at the PAG's log head, wrapping to reclaimed space when the
        tail is exhausted (a trivial cleaner: segments freed by deletes and
        overwrites become appendable again); all of ``count`` or, on
        :class:`~repro.errors.NoSpaceError`, nothing."""
        self.metrics.incr("alloc.requests")
        group = target.group_index
        head = self._heads.get(group, self.fsm.groups[group].base)
        runs: list[PhysicalRun] = []
        cursor = dlocal
        for start, got in self._plain_allocate(target, head, count):
            runs.append(PhysicalRun(dlocal=cursor, physical=start, length=got))
            cursor += got
            self._heads[group] = start + got
        self.metrics.incr("alloc.log_appends", len(runs))
        return runs
