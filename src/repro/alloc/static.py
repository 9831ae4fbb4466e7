"""Static preallocation: the fallocate(2) baseline (§I, §V.C.1).

"Recent efforts in file systems provide the fallocate syscall which
persistently allocates all blocks for the file.  Nevertheless, it requires
an application to have sufficient foreknowledge of how much space the file
will need."

The file system calls :meth:`prepare` once per (file, PAG target) with the
*declared* file share, and the whole range is allocated contiguously up
front as unwritten extents.  Writes then land in already-mapped blocks and
never reach :meth:`allocate` — except writes beyond the declared size, which
degrade to plain allocation (the foreknowledge was wrong).
"""

from __future__ import annotations

from repro.alloc.base import AllocationPolicy, AllocTarget, PhysicalRun


class StaticPolicy(AllocationPolicy):
    """Whole-file persistent preallocation at declared size."""

    name = "static"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # (file_id, group_index) -> blocks preallocated via prepare()
        self._prepared: dict[tuple[int, int], int] = {}

    def prepare(
        self, file_id: int, target: AllocTarget, dlocal_blocks: int
    ) -> list[PhysicalRun]:
        """fallocate ``dlocal_blocks`` for this target, contiguously; all of
        them or, on :class:`~repro.errors.NoSpaceError`, none."""
        if dlocal_blocks <= 0:
            return []
        runs: list[PhysicalRun] = []
        cursor = 0
        for start, got in self._plain_allocate(target, None, dlocal_blocks):
            runs.append(
                PhysicalRun(dlocal=cursor, physical=start, length=got, unwritten=True)
            )
            cursor += got
        key = (file_id, target.group_index)
        self._prepared[key] = self._prepared.get(key, 0) + dlocal_blocks
        self.metrics.incr("alloc.fallocate_calls")
        self.metrics.incr("alloc.fallocate_blocks", dlocal_blocks)
        return runs

    def allocate(
        self,
        file_id: int,
        stream_id: int,
        target: AllocTarget,
        dlocal: int,
        count: int,
    ) -> list[PhysicalRun]:
        # Reached only for writes beyond the declared size.
        self.metrics.incr("alloc.requests")
        self.metrics.incr("alloc.beyond_declared", count)
        runs: list[PhysicalRun] = []
        cursor = dlocal
        for start, got in self._plain_allocate(target, None, count):
            runs.append(PhysicalRun(dlocal=cursor, physical=start, length=got))
            cursor += got
        return runs

    def on_delete(self, file_id: int) -> None:
        for key in [k for k in self._prepared if k[0] == file_id]:
            del self._prepared[key]
        super().on_delete(file_id)

    def prepared_blocks(self, file_id: int) -> int:
        """Total blocks fallocated for ``file_id`` (space-waste accounting
        for the §III.C small-file claim)."""
        return sum(v for (fid, _), v in self._prepared.items() if fid == file_id)
