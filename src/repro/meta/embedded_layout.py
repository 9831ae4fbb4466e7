"""Embedded directory layout (§IV).

All metadata of a file — inode *and* layout mapping — is placed in its
parent directory's content blocks:

- directory content is **preallocated** at creation and scaled up
  geometrically as the directory grows (§IV.A);
- a file's inode occupies a slot in the content; there are no separate
  dentry blocks and no inode-table/inode-bitmap updates;
- the layout mapping is stuffed into the inode tail, spilling to extra
  blocks preallocated near the content when the per-directory
  *fragmentation degree* (mapping records / files) crosses the threshold;
- deletes are *lazy-freed* in per-directory batches;
- inode numbers are ⟨directory identification, offset⟩ resolved through the
  global directory table, and renames keep an old↔new correlation (§IV.B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    FileExists, FileNotFound, IsADirectory, MetadataError, NoSpaceError,
)
from repro.meta.inode import Inode
from repro.meta.inumber import GlobalDirectoryTable, decode_ino, encode_ino
from repro.meta.layout import AccessPlan, DirectoryLayout

#: Trace schema, ``(layer, op, *attr names)``, of a mapping spill.
_INODE_SPILL = ("meta", "inode_spill", "ino", "block", "spills", "at")


@dataclass
class EmbeddedDir:
    """Per-directory state for the embedded layout."""

    dir_id: int
    ino: int
    group: int
    #: Contiguous content runs (absolute start, blocks), in slot order.
    content_runs: list[tuple[int, int]] = field(default_factory=list)
    next_offset: int = 0
    free_offsets: list[int] = field(default_factory=list)
    pending_free: list[int] = field(default_factory=list)
    entries: dict[str, int] = field(default_factory=dict)  # name -> ino
    #: Fragmentation-degree inputs (§IV.A).
    file_count: int = 0
    record_sum: int = 0
    #: Memo for ``EmbeddedLayout._content_reads``: (validation key, runs).
    #: The key — (used blocks, number of content runs) — changes on every
    #: extend and never on lazy-free (reclaimed slots stay inside the used
    #: region), so a stale memo is impossible.
    reads_memo: tuple[tuple[int, int], list[tuple[int, int]]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def content_blocks(self) -> int:
        return sum(c for _, c in self.content_runs)

    @property
    def fragmentation_degree(self) -> float:
        """Mapping records per file; 0 for an empty directory."""
        if self.file_count == 0:
            return 0.0
        return self.record_sum / self.file_count


class EmbeddedLayout(DirectoryLayout):
    """Inodes and mappings embedded in preallocated directory content."""

    name = "embedded"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gdt = GlobalDirectoryTable()
        self._dirs: dict[int, EmbeddedDir] = {}
        self.slots_per_block = self.mfs.block_size // self.params.inode_size
        self.records_per_block = self.mfs.block_size // self.params.extent_record_size
        self.root = self.make_root()

    # -- construction ------------------------------------------------------------
    def make_root(self) -> EmbeddedDir:
        root_ino = encode_ino(0, 1)  # parent identification 0 = none
        inode = Inode(
            ino=root_ino, is_dir=True, name="/", parent_dir_id=0,
            home_block=0, home_slot=0,  # lives with the superblock
        )
        self._inodes[root_ino] = inode
        dir_id = self.gdt.new_dir_id(root_ino)
        group = self.mfs.next_dir_group()
        d = EmbeddedDir(dir_id=dir_id, ino=root_ino, group=group)
        start, got, _ = self.mfs.alloc_data(group, self.params.dir_prealloc_blocks)
        d.content_runs.append((start, got))
        self._dirs[root_ino] = d
        return d

    def create_dir(self, parent: EmbeddedDir, name: str, now: float) -> tuple[EmbeddedDir, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=None)
        slot = self._take_slot(parent, plan.dirties)
        inode = self._new_inode(parent, name, now, True, slot, plan.dirties)
        dir_id = self.gdt.new_dir_id(inode.ino)
        # §V.A: the subdirectory's *inode* sits in the parent's content, but
        # its *content* is distributed between groups by rlov.
        group = self.mfs.next_dir_group()
        d = EmbeddedDir(dir_id=dir_id, ino=inode.ino, group=group)
        start, got, bitmap_dirty = self.mfs.alloc_data(group, self.params.dir_prealloc_blocks)
        d.content_runs.append((start, got))
        plan.dirties += bitmap_dirty
        self._dirs[inode.ino] = d
        return (d, plan)

    def create_file(self, parent: EmbeddedDir, name: str, now: float) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=None)
        dirties = plan.dirties
        if parent.fragmentation_degree > self.params.frag_degree_threshold:
            # §IV.A: in a fragmented directory, preallocate an extra mapping
            # block next to the inode at file-creation time.
            reused, nruns = bool(parent.free_offsets), len(parent.content_runs)
            slot = self._take_slot(parent, dirties)
            try:
                block, _, bitmap_dirty = self.mfs.alloc_data(parent.group, 1)
            except NoSpaceError:
                # No mapping block to be had: give the slot back untaken.
                if reused:
                    parent.free_offsets.append(slot[0])
                else:
                    parent.next_offset -= 1
                    if len(parent.content_runs) > nruns:
                        self.mfs.free_data(*parent.content_runs.pop())
                raise
            inode = self._new_inode(parent, name, now, False, slot, dirties)
            inode.spill_blocks.append(block)
            dirties += bitmap_dirty
            dirties.append(block)
            self._note_spill(inode, block, at="create")
        else:
            slot = self._take_slot(parent, dirties)
            inode = self._new_inode(parent, name, now, False, slot, dirties)
        parent.file_count += 1
        return (inode, plan)

    # -- mutation -----------------------------------------------------------------
    def delete_file(self, parent: EmbeddedDir, name: str) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = parent.entries[name]
        inode = self._inodes[ino]
        if inode.is_dir:
            raise IsADirectory(name)
        # Mark the slot dead in its content block; no inode-bitmap or
        # inode-table traffic — §V.D.1's explanation of the (small)
        # deletion win.
        plan.dirties.append(inode.home_block)
        for blk in inode.spill_blocks:
            plan.dirties += self.mfs.free_data(blk, 1)
        _, offset = decode_ino(ino)
        parent.pending_free.append(offset)
        parent.file_count -= 1
        parent.record_sum -= inode.extent_records
        del parent.entries[name]
        del self._inodes[ino]
        parent_inode = self._inodes[parent.ino]
        plan.dirties.append(parent_inode.home_block)
        if len(parent.pending_free) >= self.params.lazy_free_batch:
            plan = plan.merge(self._lazy_free(parent))
        return plan

    def utime(self, parent: EmbeddedDir, name: str, now: float) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        inode = self._inodes[parent.entries[name]]
        inode.touch(now)
        plan.reads.append((inode.home_block, 1))
        plan.dirties.append(inode.home_block)
        return plan

    def set_extent_records(self, parent: EmbeddedDir, name: str, count: int) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        inode = self._inodes[parent.entries[name]]
        if count < 0:
            raise MetadataError(f"negative extent record count: {count}")
        parent.record_sum += count - inode.extent_records
        inode.extent_records = count
        plan.reads.append((inode.home_block, 1))
        plan.dirties.append(inode.home_block)
        needed = self._mapping_blocks_needed(count)
        while len(inode.spill_blocks) < needed:
            block, _, dirty = self.mfs.alloc_data(parent.group, 1)
            inode.spill_blocks.append(block)
            plan.dirties += dirty + [block]
            self._note_spill(inode, block, at="set_extent_records")
        while len(inode.spill_blocks) > needed:
            block = inode.spill_blocks.pop()
            plan.dirties += self.mfs.free_data(block, 1)
        return plan

    def rename(
        self, src_dir: EmbeddedDir, src_name: str, dst_dir: EmbeddedDir,
        dst_name: str, now: float,
    ) -> AccessPlan:
        """§IV.B: moving a file moves its inode bytes, changes its inode
        number, and records the old↔new correlation."""
        plan = self._lookup_plan(src_dir, src_name, expect=True)
        plan = plan.merge(self._lookup_plan(dst_dir, dst_name, expect=None))
        old_ino = src_dir.entries[src_name]
        inode = self._inodes.pop(old_ino)
        # Free the source slot (lazily) and dirty its block.
        plan.dirties.append(inode.home_block)
        _, old_offset = decode_ino(old_ino)
        src_dir.pending_free.append(old_offset)
        del src_dir.entries[src_name]
        if not inode.is_dir:
            src_dir.file_count -= 1
            src_dir.record_sum -= inode.extent_records
        # Allocate a destination slot and re-number the inode.
        offset, home_block, home_slot = self._take_slot(dst_dir, plan.dirties)
        new_ino = encode_ino(dst_dir.dir_id, offset)
        inode.ino = new_ino
        inode.name = dst_name
        inode.parent_dir_id = dst_dir.ino
        inode.home_block = home_block
        inode.home_slot = home_slot
        inode.touch(now)
        self._inodes[new_ino] = inode
        dst_dir.entries[dst_name] = new_ino
        if inode.is_dir:
            d = self._dirs.pop(old_ino)
            d.ino = new_ino
            self._dirs[new_ino] = d
            self.gdt._dir_ino[d.dir_id] = new_ino  # re-point the table entry
        else:
            dst_dir.file_count += 1
            dst_dir.record_sum += inode.extent_records
        self.gdt.correlate_rename(old_ino, new_ino)
        plan.dirties.append(home_block)
        for d2 in (src_dir, dst_dir):
            parent_inode = self._inodes[d2.ino]
            parent_inode.touch(now)
            plan.dirties.append(parent_inode.home_block)
        if len(src_dir.pending_free) >= self.params.lazy_free_batch:
            plan = plan.merge(self._lazy_free(src_dir))
        return plan

    # -- queries -------------------------------------------------------------------
    def stat(self, parent: EmbeddedDir, name: str) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=True)
        inode = self._inodes[parent.entries[name]]
        plan.reads.append((inode.home_block, 1))
        plan.journal_records = 0
        return (inode, plan)

    def readdir(self, parent: EmbeddedDir) -> tuple[list[str], AccessPlan]:
        plan = AccessPlan(
            reads=self._content_reads(parent),
            cpu_s=self._lookup_cpu(0),
            journal_records=0,
        )
        return (list(parent.entries), plan)

    def readdir_stat(self, parent: EmbeddedDir) -> tuple[list[Inode], AccessPlan]:
        """readdirplus: one sequential sweep over the directory content
        (inodes included), plus any spilled mapping blocks — "all disk
        accesses can be combined in the same disk request" (§IV.A)."""
        reads = self.prefetch_region(parent)
        inodes = [self._inodes[ino] for ino in parent.entries.values()]
        plan = AccessPlan(reads=reads, cpu_s=self._lookup_cpu(0), journal_records=0)
        return (inodes, plan)

    def prefetch_region(self, parent: EmbeddedDir) -> list[tuple[int, int]]:
        """The directory's whole contiguous inode+extent region as block
        runs: the used content runs plus any spilled mapping blocks.  This
        is the run MiF's embedding guarantees exists (§IV.A), and the read
        list of :meth:`readdir_stat`."""
        reads = self._content_reads(parent)
        spills = sorted(
            blk
            for ino in parent.entries.values()
            for blk in self._inodes[ino].spill_blocks
        )
        reads += [(b, 1) for b in spills]
        return reads

    def getlayout(self, parent: EmbeddedDir, name: str) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=True)
        inode = self._inodes[parent.entries[name]]
        plan.reads.append((inode.home_block, 1))
        for blk in inode.spill_blocks:
            plan.reads.append((blk, 1))
        plan.journal_records = 0
        return (inode, plan)

    # -- §IV.B inode location -------------------------------------------------------
    def locate_inode(self, ino: int) -> tuple[Inode, list[int]]:
        """Find an inode from its number alone: resolve rename correlations,
        then track back through the global directory table.  Returns the
        inode and the chain of directory inodes visited."""
        current = self.gdt.resolve(ino)
        chain = self.gdt.ancestry(current)
        inode = self.inode_by_number(current)
        return (inode, chain)

    def dir_of(self, ino: int) -> EmbeddedDir:
        try:
            return self._dirs[self.gdt.resolve(ino)]
        except KeyError:
            raise FileNotFound(f"no directory inode {ino}") from None

    # -- internals -------------------------------------------------------------------
    def _new_inode(
        self, parent: EmbeddedDir, name: str, now: float, is_dir: bool,
        slot: tuple[int, int, int], dirties: list[int],
    ) -> Inode:
        """Enter ``name`` in ``parent`` with its inode in the taken ``slot``,
        appending what that dirties to ``dirties``."""
        offset, home_block, home_slot = slot
        ino = encode_ino(parent.dir_id, offset)
        inode = Inode(
            ino=ino, is_dir=is_dir, name=name, parent_dir_id=parent.ino,
            home_block=home_block, home_slot=home_slot, mtime=now, ctime=now,
        )
        self._inodes[ino] = inode
        parent.entries[name] = ino
        dirties.append(home_block)
        parent_inode = self._inodes[parent.ino]
        parent_inode.touch(now)
        dirties.append(parent_inode.home_block)
        return inode

    def _take_slot(self, d: EmbeddedDir, dirties: list[int]) -> tuple[int, int, int]:
        """Claim a content slot — (offset, home block, home slot) — extending
        the content if needed and appending what that dirties to ``dirties``."""
        if d.free_offsets:
            offset = d.free_offsets.pop()
        else:
            capacity = d.content_blocks * self.slots_per_block
            if d.next_offset >= capacity:
                # §IV.A: scale the preallocation geometrically.
                grow = max(
                    self.params.dir_prealloc_blocks,
                    d.content_blocks * (self.params.dir_prealloc_scale - 1),
                )
                start, got, bitmap_dirty = self.mfs.alloc_data(
                    d.group, grow, minimum=1
                )
                d.content_runs.append((start, got))
                dirties += bitmap_dirty
            offset = d.next_offset
            d.next_offset += 1
        block = self._block_of_offset(d, offset)
        return (offset, block, offset % self.slots_per_block)

    def _block_of_offset(self, d: EmbeddedDir, offset: int) -> int:
        idx = offset // self.slots_per_block
        for start, count in d.content_runs:
            if idx < count:
                return start + idx
            idx -= count
        raise MetadataError(f"offset {offset} beyond directory content")

    def _content_reads(self, d: EmbeddedDir) -> list[tuple[int, int]]:
        used_blocks = -(-d.next_offset // self.slots_per_block) if d.next_offset else 0
        key = (used_blocks, len(d.content_runs))
        memo = d.reads_memo
        if memo is not None and memo[0] == key:
            # Copy: callers extend the run list in place when building plans.
            return list(memo[1])
        reads: list[tuple[int, int]] = []
        remaining = used_blocks
        for start, count in d.content_runs:
            take = min(count, remaining)
            if take <= 0:
                break
            reads.append((start, take))
            remaining -= take
        d.reads_memo = (key, reads)
        return list(reads)

    def _lookup_plan(self, d: EmbeddedDir, name: str, expect: bool | None) -> AccessPlan:
        """Ceph-style whole-directory prefetch: a cold lookup reads the full
        content (one sequential sweep); warm lookups hit the cache.  The
        in-memory name index (§IV.C) makes the CPU cost hash-constant."""
        if name in d.entries:
            if expect is None:
                raise FileExists(name)
        elif expect is True:
            raise FileNotFound(name)
        return AccessPlan(
            reads=self._content_reads(d),
            cpu_s=self.params.htree_lookup_cpu_s,
        )

    def _lazy_free(self, d: EmbeddedDir) -> AccessPlan:
        """§IV.A: batched reclamation of dead slots in one directory."""
        plan = AccessPlan(journal_records=1)
        blocks = sorted({self._block_of_offset(d, off) for off in d.pending_free})
        plan.dirties += blocks
        d.free_offsets.extend(d.pending_free)
        d.pending_free.clear()
        return plan

    def _note_spill(self, inode: Inode, block: int, at: str) -> None:
        """Observability hook for mapping spills out of the inode tail."""
        if self.metrics is not None:
            self.metrics.incr("meta.inode_spill_blocks")
        if self.tracer.enabled:
            self.tracer.record(
                _INODE_SPILL, None, 0.0, None, inode.ino, block, len(inode.spill_blocks), at
            )

    def _mapping_blocks_needed(self, records: int) -> int:
        overflow = records - self.params.inode_tail_extents
        if overflow <= 0:
            return 0
        return -(-overflow // self.records_per_block)
