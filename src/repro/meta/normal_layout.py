"""Traditional directory placement (ext3-style; Redbud's original MFS and
Lustre's MDS both use it — §V.D notes their performance is "quite close"
because the organizations are similar).

On-disk shape per Figure 1(b):

- a directory's *entry blocks* live in its group's data area;
- file *inodes* live in the fixed inode table of the parent directory's
  group (classic ext3 placement), separate from the entry blocks;
- overflowing layout mappings go to *mapping blocks* in the data area.

A readdir-stat therefore alternates between the entry-block region and the
inode-table region, and a create dirties entry block + inode-table block +
inode bitmap — the footprints the embedded layout shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    FileExists, FileNotFound, IsADirectory, MetadataError, NoSpaceError,
)
from repro.meta.inode import Inode
from repro.meta.layout import AccessPlan, DirectoryLayout


@dataclass
class NormalDir:
    """Per-directory state for the traditional layout."""

    ino: int
    group: int
    dentry_blocks: list[int] = field(default_factory=list)
    fill: list[int] = field(default_factory=list)  # entries per dentry block
    entries: dict[str, int] = field(default_factory=dict)  # name -> ino
    entry_block: dict[str, int] = field(default_factory=dict)  # name -> abs block


class NormalLayout(DirectoryLayout):
    """Separate dentry blocks + fixed inode tables."""

    name = "normal"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dirs: dict[int, NormalDir] = {}
        self.dentries_per_block = self.mfs.block_size // self.params.dentry_size
        self.root = self.make_root()

    # -- construction -----------------------------------------------------------
    def make_root(self) -> NormalDir:
        ino_index, _ = self.mfs.alloc_inode(0)
        home_block, home_slot = self.mfs.itable_block_of(ino_index)
        self._inodes.add(ino_index, True, "/", 0, home_block, home_slot)
        d = NormalDir(ino=ino_index, group=0)
        self._dirs[ino_index] = d
        self._add_dentry_block(d)
        return d

    def create_dir(self, parent: NormalDir, name: str, now: float) -> tuple[NormalDir, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=None)
        mfs = self.mfs
        group = mfs.next_dir_group()  # rlov spreads directories
        ino_index, bitmap_dirty = mfs.alloc_inode(group)
        home_block, home_slot = mfs.itable_block_of(ino_index)
        d = NormalDir(ino=ino_index, group=group)
        dirties = plan.dirties
        dirties += bitmap_dirty
        dirties.append(home_block)
        nblocks = len(parent.dentry_blocks)
        try:
            self._append_entry(parent, name, ino_index, dirties)
            dirties += self._add_dentry_block(d)
        except NoSpaceError:
            # Out of dentry blocks part-way: take back the entry, the block
            # the parent grew by for it, the inode and rlov's turn.
            if name in parent.entries:
                self._drop_entry(parent, name)
                if len(parent.dentry_blocks) > nblocks:
                    parent.fill.pop()
                    mfs.free_data(parent.dentry_blocks.pop(), 1)
            mfs.free_inode(ino_index)
            mfs._dir_rotor = group
            raise
        table = self._inodes
        table.add(ino_index, True, name, parent.ino, home_block, home_slot, now)
        self._dirs[ino_index] = d
        dirties.append(table.touch(parent.ino, now))
        return (d, plan)

    def create_file(self, parent: NormalDir, name: str, now: float) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=None)
        mfs = self.mfs
        # ext3 places file inodes in the parent directory's group.
        ino_index, bitmap_dirty = mfs.alloc_inode(parent.group)
        home_block, home_slot = mfs.itable_block_of(ino_index)
        dirties = plan.dirties
        dirties += bitmap_dirty
        dirties.append(home_block)
        try:
            self._append_entry(parent, name, ino_index, dirties)
        except NoSpaceError:
            mfs.free_inode(ino_index)  # no dentry block to be had: no inode either
            raise
        table = self._inodes
        row = table.add(ino_index, False, name, parent.ino, home_block, home_slot, now)
        dirties.append(table.touch(parent.ino, now))
        plan.stamped = (row, table.rows[parent.ino])
        return (Inode(table, row), plan)

    # -- mutation ---------------------------------------------------------------
    def delete_file(self, parent: NormalDir, name: str) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = parent.entries[name]
        table = self._inodes
        row = table.rows[ino]
        if table.is_dir[row]:
            raise IsADirectory(name)
        # Entry block, inode table block and inode bitmap all get dirtied;
        # mapping blocks (if any) are freed, dirtying the block bitmap too.
        dirties = plan.dirties
        dirties.append(self._drop_entry(parent, name))
        dirties.append(table.home_block[row])
        dirties += self.mfs.free_inode(ino)
        for blk in table.spill_blocks[row]:
            dirties += self.mfs.free_data(blk, 1)
        del table[ino]
        dirties.append(table.home_block[table.rows[parent.ino]])
        return plan

    def utime(self, parent: NormalDir, name: str, now: float) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        table, ino = self._inodes, parent.entries[name]
        home_block = table.touch(ino, now)
        plan.reads.append((home_block, 1))
        plan.dirties.append(home_block)
        plan.stamped = (table.rows[ino],)
        return plan

    def set_extent_records(self, parent: NormalDir, name: str, count: int) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        table = self._inodes
        row = table.rows[parent.entries[name]]
        if count < 0:
            raise MetadataError(f"negative extent record count: {count}")
        home_block = table.home_block[row]
        plan.reads.append((home_block, 1))
        plan.dirties.append(home_block)
        self._fit_mapping(plan, row, parent.group, count)
        table.extent_records[row] = count
        return plan

    def rename(
        self, src_dir: NormalDir, src_name: str, dst_dir: NormalDir, dst_name: str, now: float
    ) -> AccessPlan:
        plan = self._lookup_plan(src_dir, src_name, expect=True)
        plan = plan.merge(self._lookup_plan(dst_dir, dst_name, expect=None))
        ino = src_dir.entries[src_name]
        inode = self._inodes[ino]
        # Inode number is stable in the traditional layout: only the two
        # entry blocks and the inode's backpointer change.
        plan.dirties.append(self._drop_entry(src_dir, src_name))
        self._append_entry(dst_dir, dst_name, ino, plan.dirties)
        inode.name = dst_name
        inode.parent_dir_id = dst_dir.ino
        table = self._inodes
        plan.dirties.append(table.touch(ino, now))
        for d in (src_dir, dst_dir):
            plan.dirties.append(table.touch(d.ino, now))
        return plan

    # -- queries ----------------------------------------------------------------
    def stat(self, parent: NormalDir, name: str) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=True)
        table = self._inodes
        row = table.rows[parent.entries[name]]
        plan.reads.append((table.home_block[row], 1))
        plan.journal_records = 0
        return (Inode(table, row), plan)

    def readdir(self, parent: NormalDir) -> tuple[list[str], AccessPlan]:
        plan = AccessPlan(
            reads=[(b, 1) for b in parent.dentry_blocks],
            cpu_s=self._lookup_cpu(len(parent.entries)),
            journal_records=0,
        )
        return (list(parent.entries), plan)

    def readdir_stat(self, parent: NormalDir) -> tuple[list[Inode], AccessPlan]:
        """readdirplus: the access pattern alternates between the entry-block
        region and the inode-table region — the intra-directory interference
        embedded directories remove."""
        reads: list[tuple[int, int]] = []
        inodes: list[Inode] = []
        per_block: dict[int, list[str]] = {b: [] for b in parent.dentry_blocks}
        for name, block in parent.entry_block.items():
            per_block[block].append(name)
        table = self._inodes
        rows, home_block = table.rows, table.home_block
        for block in parent.dentry_blocks:
            reads.append((block, 1))
            for name in per_block[block]:
                row = rows[parent.entries[name]]
                inodes.append(Inode(table, row))
                reads.append((home_block[row], 1))
        plan = AccessPlan(
            reads=reads,
            cpu_s=self._lookup_cpu(len(parent.entries)),
            journal_records=0,
        )
        return (inodes, plan)

    def getlayout(self, parent: NormalDir, name: str) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=True)
        table = self._inodes
        row = table.rows[parent.entries[name]]
        plan.reads.append((table.home_block[row], 1))
        for blk in table.spill_blocks[row]:
            plan.reads.append((blk, 1))
        plan.journal_records = 0
        return (Inode(table, row), plan)

    # -- internals ----------------------------------------------------------------
    def dir_of(self, ino: int) -> NormalDir:
        try:
            return self._dirs[ino]
        except KeyError:
            raise FileNotFound(f"no directory inode {ino}") from None

    def _lookup_plan(self, d: NormalDir, name: str, expect: bool | None) -> AccessPlan:
        """Read footprint of a linear dentry scan for ``name``.

        ``expect`` asserts presence (True) or absence (None allows either);
        consistency errors raise before any state changes.
        """
        target = d.entry_block.get(name)
        if target is None:
            if expect is True:
                raise FileNotFound(name)
            reads = [(b, 1) for b in d.dentry_blocks]
            scanned_entries = len(d.entries)
        elif expect is None:
            raise FileExists(name)
        elif self.params.htree_index:
            # Htree reads only the hashed bucket's block.
            reads = [(target, 1)]
            scanned_entries = 0  # unused: the lookup is hash-constant
        else:
            upto = d.dentry_blocks.index(target) + 1
            reads = [(b, 1) for b in d.dentry_blocks[:upto]]
            scanned_entries = sum(d.fill[:upto])
        return AccessPlan(reads=reads, cpu_s=self._lookup_cpu(scanned_entries))

    def _append_entry(self, d: NormalDir, name: str, ino: int, dirties: list[int]) -> None:
        """Enter ``name`` in ``d``, appending what that dirties to ``dirties``."""
        # First block with room; holes left by deletes are reused.
        per_block = self.dentries_per_block
        for slot, fill in enumerate(d.fill):
            if fill < per_block:
                break
        else:
            dirties += self._add_dentry_block(d)
            slot = len(d.dentry_blocks) - 1
        d.fill[slot] += 1
        block = d.dentry_blocks[slot]
        d.entries[name] = ino
        d.entry_block[name] = block
        dirties.append(block)

    def _drop_entry(self, d: NormalDir, name: str) -> int:
        """Remove ``name`` from ``d``; returns the entry block it lived in."""
        block = d.entry_block.pop(name)
        d.fill[d.dentry_blocks.index(block)] -= 1
        del d.entries[name]
        return block

    def _add_dentry_block(self, d: NormalDir) -> list[int]:
        hint = d.group
        block, _, dirty = self.mfs.alloc_data(hint, 1)
        d.dentry_blocks.append(block)
        d.fill.append(0)
        return dirty + [block]
