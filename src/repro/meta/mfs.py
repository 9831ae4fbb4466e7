"""The MDS's metadata file system (MFS).

Redbud's "metadata server (MDS) collectively manages the storage of
metadata, assisted by a dedicated metadata file system (MFS)" (§V.A); the
paper's experiments "build the MFS using ext3 and then incorporate embedded
directory into it".  This module models the ext3-style on-disk geometry —
superblock, journal region, block groups with block/inode bitmaps, inode
tables and data blocks — and its space allocation.  Which structures a
given operation touches is the directory layout's business
(:mod:`repro.meta.normal_layout` / :mod:`repro.meta.embedded_layout`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.block.bitmap import BlockBitmap
from repro.config import DiskParams, MetaParams
from repro.errors import MetadataError, NoSpaceError


class ItableGeometry(NamedTuple):
    """The scalars that place a table inode, detached from the MFS (and its
    bitmaps) so a checker shard can place a whole column of inodes."""

    inodes_per_group: int
    inodes_per_block: int
    first_group_block: int
    blocks_per_group: int
    block_groups: int

    def blocks_of(
        self, inos: np.ndarray, live: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`MetadataFS.itable_block_of` over a column of inode numbers.

        Rows outside ``live`` are placed too but never range-checked; a live
        row past the last inode table raises as the scalar form does.
        """
        group, local = np.divmod(inos, self.inodes_per_group)
        stray = live & ((group < 0) | (group >= self.block_groups))
        if stray.any():
            raise MetadataError(f"group out of range: {int(group[stray.argmax()])}")
        block, slot = np.divmod(local, self.inodes_per_block)
        # Each group opens with its block bitmap and inode bitmap.
        return (
            self.first_group_block + group * self.blocks_per_group + 2 + block,
            slot,
        )


class MetadataFS:
    """Block-group geometry and space allocation on the MDS disk."""

    def __init__(self, params: MetaParams, disk_params: DiskParams) -> None:
        self.params = params
        self.block_size = disk_params.block_size
        self.inodes_per_block = self.block_size // params.inode_size
        if self.inodes_per_block <= 0:
            raise MetadataError("inode_size larger than a block")
        self.itable_blocks = -(-params.inodes_per_group // self.inodes_per_block)
        self.data_blocks_per_group = params.blocks_per_group - 2 - self.itable_blocks
        if self.data_blocks_per_group <= 0:
            raise MetadataError("block group too small for its inode table")

        self.journal_base = 1  # block 0 is the superblock
        self.first_group_block = self.journal_base + params.journal_blocks
        needed = self.first_group_block + params.block_groups * params.blocks_per_group
        if needed > disk_params.capacity_blocks:
            raise MetadataError(
                f"MFS needs {needed} blocks, MDS disk has {disk_params.capacity_blocks}"
            )

        self._block_bitmaps = [
            BlockBitmap(self.data_blocks_per_group, bits_per_block=self.block_size * 8)
            for _ in range(params.block_groups)
        ]
        self._inode_bitmaps = [
            BlockBitmap(params.inodes_per_group, bits_per_block=self.block_size * 8)
            for _ in range(params.block_groups)
        ]
        #: rlov rotor: round-robin group for new directories (§V.A keeps
        #: "the original directory distribution algorithm, named 'rlov'").
        self._dir_rotor = 0

    # -- geometry -----------------------------------------------------------
    @property
    def group_count(self) -> int:
        return self.params.block_groups

    def group_base(self, group: int) -> int:
        self._check_group(group)
        return self.first_group_block + group * self.params.blocks_per_group

    def block_bitmap_block(self, group: int) -> int:
        """Absolute block of the group's block bitmap."""
        return self.group_base(group)

    def inode_bitmap_block(self, group: int) -> int:
        """Absolute block of the group's inode bitmap."""
        return self.group_base(group) + 1

    def itable_base(self, group: int) -> int:
        """Absolute block of the group's inode table."""
        return self.group_base(group) + 2

    def data_base(self, group: int) -> int:
        """Absolute block of the group's first data block."""
        return self.itable_base(group) + self.itable_blocks

    def group_of_block(self, block: int) -> int:
        """Group containing absolute block ``block`` (groups region only)."""
        if block < self.first_group_block:
            raise MetadataError(f"block {block} below the group region")
        group = (block - self.first_group_block) // self.params.blocks_per_group
        self._check_group(group)
        return group

    def itable_block_of(self, ino_index: int) -> tuple[int, int]:
        """(absolute itable block, slot) of table inode ``ino_index``."""
        group, local = divmod(ino_index, self.params.inodes_per_group)
        self._check_group(group)
        return (
            self.itable_base(group) + local // self.inodes_per_block,
            local % self.inodes_per_block,
        )

    def itable_geometry(self) -> ItableGeometry:
        return ItableGeometry(
            inodes_per_group=self.params.inodes_per_group,
            inodes_per_block=self.inodes_per_block,
            first_group_block=self.first_group_block,
            blocks_per_group=self.params.blocks_per_group,
            block_groups=self.params.block_groups,
        )

    # -- inode-table allocation (normal layout) -------------------------------
    def alloc_inode(self, group_hint: int) -> tuple[int, list[int]]:
        """Allocate an inode slot, preferring ``group_hint`` (ext3 puts file
        inodes in the parent directory's group).

        Returns ``(global inode index, dirtied absolute bitmap blocks)``.
        """
        self._check_group(group_hint)
        for offset in range(self.group_count):
            group = (group_hint + offset) % self.group_count
            bitmap = self._inode_bitmaps[group]
            if bitmap.free_count == 0:
                continue
            idx = bitmap.find_free_run(1)
            bitmap.set_range(idx, 1)
            dirty = [self.inode_bitmap_block(group)]
            return (group * self.params.inodes_per_group + idx, dirty)
        raise NoSpaceError("MFS inode tables full")

    def free_inode(self, ino_index: int) -> list[int]:
        """Free a table inode; returns dirtied absolute bitmap blocks."""
        group, local = divmod(ino_index, self.params.inodes_per_group)
        self._check_group(group)
        self._inode_bitmaps[group].clear_range(local, 1)
        return [self.inode_bitmap_block(group)]

    # -- data-block allocation --------------------------------------------------
    def alloc_data(
        self, group_hint: int, count: int, minimum: int = 1
    ) -> tuple[int, int, list[int]]:
        """Allocate up to ``count`` contiguous data blocks near ``group_hint``.

        Returns ``(absolute start block, got, dirtied bitmap blocks)``.
        Degrades to smaller contiguous runs (>= ``minimum``) before falling
        over to other groups.
        """
        self._check_group(group_hint)
        if count <= 0 or minimum <= 0 or minimum > count:
            raise MetadataError(f"bad allocation size: count={count} minimum={minimum}")
        for offset in range(self.group_count):
            group = (group_hint + offset) % self.group_count
            bitmap = self._block_bitmaps[group]
            if bitmap.free_count < minimum:
                continue
            want = min(count, bitmap.free_count)
            while want >= minimum:
                try:
                    local = bitmap.find_free_run(want)
                except NoSpaceError:
                    want //= 2
                    continue
                bitmap.set_range(local, want)
                return (
                    self.data_base(group) + local,
                    want,
                    [self.block_bitmap_block(group)],
                )
        raise NoSpaceError("MFS data blocks exhausted")

    def free_data(self, block: int, count: int) -> list[int]:
        """Free data blocks [block, block+count); returns dirtied bitmaps."""
        group = self.group_of_block(block)
        local = block - self.data_base(group)
        if local < 0 or local + count > self.data_blocks_per_group:
            raise MetadataError(f"free [{block}, {block + count}) not in group data area")
        self._block_bitmaps[group].clear_range(local, count)
        return [self.block_bitmap_block(group)]

    # -- policy helpers -----------------------------------------------------
    def next_dir_group(self) -> int:
        """rlov: rotate new directories across groups."""
        group = self._dir_rotor
        self._dir_rotor = (self._dir_rotor + 1) % self.group_count
        return group

    @property
    def data_utilization(self) -> float:
        """Used fraction of all data blocks (the aging experiment's x-axis)."""
        used = sum(b.used_count for b in self._block_bitmaps)
        total = self.group_count * self.data_blocks_per_group
        return used / total

    @property
    def free_data_blocks(self) -> int:
        return sum(b.free_count for b in self._block_bitmaps)

    def _check_group(self, group: int) -> None:
        if not (0 <= group < self.params.block_groups):
            raise MetadataError(f"group out of range: {group}")
