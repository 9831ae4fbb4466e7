"""Per-op reference for the closed-loop metadata path.

The bodies below are the ones ``src/`` ran at commit b45a510, before a
bulk metadata phase was described once (``MetaOpRun``), the layouts built
each ``AccessPlan`` in place, the commit became one ``Journal.log_one``
record under one hot ``MetadataServer._execute`` body (``_run`` since), and
``BufferCache.read_batch`` started refreshing resident hits on the spot
(docs/PERF.md section 4): the generator forms of
``MetaratesWorkload.per_file_program`` and ``MdtestWorkload.item_program``
(one ``MetaOp`` per call; ``self`` is the workload), both directory
layouts whole — ``_lookup_plan`` / ``_append_entry`` / ``_take_slot`` /
``_new_inode`` returning sub-plans that ``create_file`` / ``create_dir`` /
``rename`` combine with ``merge`` — ``_execute`` with ``_execute_batched``,
``log_batch`` with its own one-entry body, and ``read_batch`` deferring
every resident hit.  They are kept verbatim as the oracle the one-pass
path is held to (``tests/test_meta_onepass.py``): same plans field for
field (dirties order included), same layout state, same MDS clock, redo
records, metrics, cache order and trace.

The parent's failed creates leave partial state behind (the bug this
commit's satellite fixes), so the oracle is only asked about sequences
that do not run out of space.

``ScalarMetadataServer`` is older still: the scalar body that
``_execute_batched`` replays, which ``src/`` kept as
``MetadataServer._execute_scalar`` (``FSConfig.execution="legacy"``, or any
attached fault injector) until commit f3214f3.  It is the oracle of the
one-body server for whole-state and trace identity
(``tests/test_meta_batched.py``, ``tests/test_trace_identity.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict

from repro.disk.cache import BufferCache
from repro.disk.model import BlockRequest
from repro.errors import FileExists, FileNotFound, IsADirectory, MetadataError
from repro.meta.embedded_layout import EmbeddedDir
from repro.meta.inode import Inode
from repro.meta.inumber import GlobalDirectoryTable, decode_ino, encode_ino
from repro.meta.journal import Journal, JournalRecord
from repro.meta.layout import AccessPlan, DirectoryLayout
from repro.meta.mds import MetadataServer
from repro.meta.mfs import MetadataFS
from repro.meta.normal_layout import NormalDir
from repro.workloads.base import MetaOp

from tests.metrics_reference import ReferenceDisk, ReferenceMetrics

def reference_per_file_program(self, dirs: list, method: str):
    """Round-robin ``method`` over every (file, client) pair: clients
    take turns one op at a time, exactly the MDS-side interleaving of
    Metarates' MPI coordination.  Yields ``(arrival_dt, MetaOp)``
    events; returns the op count."""
    count = 0
    for i in range(self.files_per_dir):
        for c, d in enumerate(dirs):
            yield (0.0, MetaOp(method, (d, self._filename(c, i))))
            count += 1
    return count



def reference_item_program(self, trees: list[list], method: str):
    """Per-item event stream (phases 2-4): ``method`` on every item of
    every directory, tasks interleaved one op at a time."""
    cfg = self.config
    for i in range(cfg.items_per_dir):
        for t in range(cfg.ntasks):
            for di, d in enumerate(trees[t]):
                yield (0.0, MetaOp(method, (d, f"file.{di}.{i}")))



class _ParentChecks:
    """The presence helpers ``DirectoryLayout`` carried at b45a510."""

    def _require_absent(self, entries: dict[str, int], name: str) -> None:
        if name in entries:
            raise FileExists(name)

    def _require_present(self, entries: dict[str, int], name: str) -> int:
        try:
            return entries[name]
        except KeyError:
            raise FileNotFound(name) from None


class ReferenceNormalLayout(_ParentChecks, DirectoryLayout):
    """``NormalLayout`` as of b45a510: sub-plans combined with ``merge``."""

    name = "normal"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dirs: dict[int, NormalDir] = {}
        self.dentries_per_block = self.mfs.block_size // self.params.dentry_size
        self.records_per_block = self.mfs.block_size // self.params.extent_record_size
        self.root = self.make_root()

    # -- construction -----------------------------------------------------------
    def make_root(self) -> NormalDir:
        ino_index, _ = self.mfs.alloc_inode(0)
        home_block, home_slot = self.mfs.itable_block_of(ino_index)
        inode = Inode(
            ino=ino_index, is_dir=True, name="/", parent_dir_id=0,
            home_block=home_block, home_slot=home_slot,
        )
        self._inodes[ino_index] = inode
        d = NormalDir(ino=ino_index, group=0)
        self._dirs[ino_index] = d
        self._add_dentry_block(d)
        return d

    def create_dir(self, parent: NormalDir, name: str, now: float) -> tuple[NormalDir, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=None)
        self._require_absent(parent.entries, name)
        group = self.mfs.next_dir_group()  # rlov spreads directories
        ino_index, bitmap_dirty = self.mfs.alloc_inode(group)
        home_block, home_slot = self.mfs.itable_block_of(ino_index)
        inode = Inode(
            ino=ino_index, is_dir=True, name=name, parent_dir_id=parent.ino,
            home_block=home_block, home_slot=home_slot, mtime=now, ctime=now,
        )
        self._inodes[ino_index] = inode
        d = NormalDir(ino=ino_index, group=group)
        self._dirs[ino_index] = d
        plan.dirties += bitmap_dirty + [home_block]
        plan = plan.merge(self._append_entry(parent, name, ino_index))
        plan.dirties += self._add_dentry_block(d)
        parent_inode = self._inodes[parent.ino]
        parent_inode.touch(now)
        plan.dirties.append(parent_inode.home_block)
        return (d, plan)

    def create_file(self, parent: NormalDir, name: str, now: float) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=None)
        self._require_absent(parent.entries, name)
        # ext3 places file inodes in the parent directory's group.
        ino_index, bitmap_dirty = self.mfs.alloc_inode(parent.group)
        home_block, home_slot = self.mfs.itable_block_of(ino_index)
        inode = Inode(
            ino=ino_index, is_dir=False, name=name, parent_dir_id=parent.ino,
            home_block=home_block, home_slot=home_slot, mtime=now, ctime=now,
        )
        self._inodes[ino_index] = inode
        plan.dirties += bitmap_dirty + [home_block]
        plan = plan.merge(self._append_entry(parent, name, ino_index))
        parent_inode = self._inodes[parent.ino]
        parent_inode.touch(now)
        plan.dirties.append(parent_inode.home_block)
        return (inode, plan)

    # -- mutation ---------------------------------------------------------------
    def delete_file(self, parent: NormalDir, name: str) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        if inode.is_dir:
            raise IsADirectory(name)
        # Entry block, inode table block and inode bitmap all get dirtied;
        # mapping blocks (if any) are freed, dirtying the block bitmap too.
        plan.dirties.append(parent.entry_block[name])
        plan.dirties.append(inode.home_block)
        plan.dirties += self.mfs.free_inode(ino)
        for blk in inode.spill_blocks:
            plan.dirties += self.mfs.free_data(blk, 1)
        block = parent.entry_block.pop(name)
        idx = parent.dentry_blocks.index(block)
        parent.fill[idx] -= 1
        del parent.entries[name]
        del self._inodes[ino]
        parent_inode = self._inodes[parent.ino]
        plan.dirties.append(parent_inode.home_block)
        return plan

    def utime(self, parent: NormalDir, name: str, now: float) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        inode.touch(now)
        plan.reads.append((inode.home_block, 1))
        plan.dirties.append(inode.home_block)
        return plan

    def set_extent_records(self, parent: NormalDir, name: str, count: int) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        if count < 0:
            raise MetadataError(f"negative extent record count: {count}")
        inode.extent_records = count
        plan.reads.append((inode.home_block, 1))
        plan.dirties.append(inode.home_block)
        needed = self._mapping_blocks_needed(count)
        while len(inode.spill_blocks) < needed:
            block, _, dirty = self.mfs.alloc_data(parent.group, 1)
            inode.spill_blocks.append(block)
            plan.dirties += dirty + [block]
        while len(inode.spill_blocks) > needed:
            block = inode.spill_blocks.pop()
            plan.dirties += self.mfs.free_data(block, 1)
        return plan

    def rename(
        self, src_dir: NormalDir, src_name: str, dst_dir: NormalDir, dst_name: str, now: float
    ) -> AccessPlan:
        plan = self._lookup_plan(src_dir, src_name, expect=True)
        plan = plan.merge(self._lookup_plan(dst_dir, dst_name, expect=None))
        ino = self._require_present(src_dir.entries, src_name)
        self._require_absent(dst_dir.entries, dst_name)
        inode = self._inodes[ino]
        # Inode number is stable in the traditional layout: only the two
        # entry blocks and the inode's backpointer change.
        plan.dirties.append(src_dir.entry_block[src_name])
        block = src_dir.entry_block.pop(src_name)
        idx = src_dir.dentry_blocks.index(block)
        src_dir.fill[idx] -= 1
        del src_dir.entries[src_name]
        plan = plan.merge(self._append_entry(dst_dir, dst_name, ino))
        inode.name = dst_name
        inode.parent_dir_id = dst_dir.ino
        inode.touch(now)
        plan.dirties.append(inode.home_block)
        for d in (src_dir, dst_dir):
            parent_inode = self._inodes[d.ino]
            parent_inode.touch(now)
            plan.dirties.append(parent_inode.home_block)
        return plan

    # -- queries ----------------------------------------------------------------
    def stat(self, parent: NormalDir, name: str) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        plan.reads.append((inode.home_block, 1))
        plan.journal_records = 0
        return (inode, plan)

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
        for block in parent.dentry_blocks:
            reads.append((block, 1))
            for name in per_block[block]:
                inode = self._inodes[parent.entries[name]]
                inodes.append(inode)
                reads.append((inode.home_block, 1))
        plan = AccessPlan(
            reads=reads,
            cpu_s=self._lookup_cpu(len(parent.entries)),
            journal_records=0,
        )
        return (inodes, plan)

    def getlayout(self, parent: NormalDir, name: str) -> tuple[Inode, AccessPlan]:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        plan.reads.append((inode.home_block, 1))
        for blk in inode.spill_blocks:
            plan.reads.append((blk, 1))
        plan.journal_records = 0
        return (inode, plan)

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
        if expect is True and name not in d.entries:
            raise FileNotFound(name)
        if expect is None and name in d.entries:
            raise FileExists(name)
        if name in d.entries:
            target = d.entry_block[name]
            idx = d.dentry_blocks.index(target)
            scanned_blocks = d.dentry_blocks[: idx + 1]
            scanned_entries = sum(d.fill[: idx + 1])
        else:
            scanned_blocks = list(d.dentry_blocks)
            scanned_entries = len(d.entries)
        if self.params.htree_index and name in d.entries:
            # Htree reads only the hashed bucket's block.
            scanned_blocks = [d.entry_block[name]]
        return AccessPlan(
            reads=[(b, 1) for b in scanned_blocks],
            cpu_s=self._lookup_cpu(scanned_entries),
        )

    def _append_entry(self, d: NormalDir, name: str, ino: int) -> AccessPlan:
        plan = AccessPlan(journal_records=0)
        # First block with room; holes left by deletes are reused.
        slot = next(
            (i for i, f in enumerate(d.fill) if f < self.dentries_per_block), None
        )
        if slot is None:
            plan.dirties += self._add_dentry_block(d)
            slot = len(d.dentry_blocks) - 1
        d.fill[slot] += 1
        block = d.dentry_blocks[slot]
        d.entries[name] = ino
        d.entry_block[name] = block
        plan.dirties.append(block)
        return plan

    def _add_dentry_block(self, d: NormalDir) -> list[int]:
        hint = d.group
        block, _, dirty = self.mfs.alloc_data(hint, 1)
        d.dentry_blocks.append(block)
        d.fill.append(0)
        return dirty + [block]

    def _mapping_blocks_needed(self, records: int) -> int:
        overflow = records - self.params.inode_tail_extents
        if overflow <= 0:
            return 0
        return -(-overflow // self.records_per_block)


class ReferenceEmbeddedLayout(_ParentChecks, DirectoryLayout):
    """``EmbeddedLayout`` as of b45a510: sub-plans combined with ``merge``."""

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
        inode, sub = self._new_inode(parent, name, now, is_dir=True, plan=plan)
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
        inode, _ = self._new_inode(parent, name, now, is_dir=False, plan=plan)
        # §IV.A: in a fragmented directory, preallocate an extra mapping
        # block next to the inode at file-creation time.
        if parent.fragmentation_degree > self.params.frag_degree_threshold:
            block, _, bitmap_dirty = self.mfs.alloc_data(parent.group, 1)
            inode.spill_blocks.append(block)
            plan.dirties += bitmap_dirty + [block]
            self._note_spill(inode, block, at="create")
        parent.file_count += 1
        return (inode, plan)

    # -- mutation -----------------------------------------------------------------
    def delete_file(self, parent: EmbeddedDir, name: str) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
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
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
        inode.touch(now)
        plan.reads.append((inode.home_block, 1))
        plan.dirties.append(inode.home_block)
        return plan

    def set_extent_records(self, parent: EmbeddedDir, name: str, count: int) -> AccessPlan:
        plan = self._lookup_plan(parent, name, expect=True)
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
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
        old_ino = self._require_present(src_dir.entries, src_name)
        self._require_absent(dst_dir.entries, dst_name)
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
        offset, home_block, home_slot, extend_plan = self._take_slot(dst_dir)
        plan = plan.merge(extend_plan)
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
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
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
        is the run MiF's embedding guarantees exists (§IV.A) — the MDS
        hands it to :meth:`BufferCache.prefetch_runs` on readdir so the
        adaptive cache pulls the region in one batched request instead of
        the doubling window discovering it block by block (docs/CACHE.md)."""
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
        ino = self._require_present(parent.entries, name)
        inode = self._inodes[ino]
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
        self, parent: EmbeddedDir, name: str, now: float, is_dir: bool, plan: AccessPlan
    ) -> tuple[Inode, None]:
        self._require_absent(parent.entries, name)
        offset, home_block, home_slot, extend_plan = self._take_slot(parent)
        for r in extend_plan.reads:
            plan.reads.append(r)
        plan.dirties += extend_plan.dirties
        ino = encode_ino(parent.dir_id, offset)
        inode = Inode(
            ino=ino, is_dir=is_dir, name=name, parent_dir_id=parent.ino,
            home_block=home_block, home_slot=home_slot, mtime=now, ctime=now,
        )
        self._inodes[ino] = inode
        parent.entries[name] = ino
        plan.dirties.append(home_block)
        parent_inode = self._inodes[parent.ino]
        parent_inode.touch(now)
        plan.dirties.append(parent_inode.home_block)
        return (inode, None)

    def _take_slot(self, d: EmbeddedDir) -> tuple[int, int, int, AccessPlan]:
        """Claim a content slot, extending the content if needed."""
        plan = AccessPlan(journal_records=0)
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
                plan.dirties += bitmap_dirty
            offset = d.next_offset
            d.next_offset += 1
        block = self._block_of_offset(d, offset)
        return (offset, block, offset % self.slots_per_block, plan)

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
        if expect is True and name not in d.entries:
            raise FileNotFound(name)
        if expect is None and name in d.entries:
            raise FileExists(name)
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
            self.tracer.emit(
                "meta",
                "inode_spill",
                ino=inode.ino,
                block=block,
                spills=len(inode.spill_blocks),
                at=at,
            )

    def _mapping_blocks_needed(self, records: int) -> int:
        overflow = records - self.params.inode_tail_extents
        if overflow <= 0:
            return 0
        return -(-overflow // self.records_per_block)


class ReferenceJournal(Journal):
    """``Journal`` with the parent's ``log_batch`` (own one-entry body)."""

    def log_batch(
        self, entries
    ) -> tuple[list[JournalRecord], list[BlockRequest], list[tuple[int, int]]]:
        """Group commit: write-ahead records for a batch of operations.

        ``entries`` is a sequence of ``(dirties, nblocks)`` pairs, one per
        operation.  Returns ``(records, requests, spans)``: the records in
        entry order, the flat commit-write request list for the whole
        group, and ``spans[i] = (lo, hi)`` slicing the requests belonging
        to ``records[i]``.

        Each operation's commit blocks pack into the shared circular
        region exactly as per-record :meth:`log` calls would — group
        commit batches the bookkeeping, it never merges or reorders commit
        writes *across* records.  That keeps torn-commit semantics
        per-record: the caller submits each record's request span and
        acknowledges :meth:`commit` only for records whose span reached
        the platter intact, so replay/truncate behavior is identical to
        the per-record path at every crash point.
        """
        if len(entries) == 1:
            dirties, nblocks = entries[0]
            head = self._head
            if 0 < nblocks <= self.nblocks - head:
                # One record that does not wrap — every synchronous commit
                # but one per lap of the region: :meth:`log` and
                # :meth:`append` in one straight line.
                block = self.base_block + head
                record = JournalRecord(self._seq, block, tuple(dirties))
                self._seq += 1
                self._records.append(record)
                self._head = (head + nblocks) % self.nblocks
                self.records_written += nblocks
                return ([record], [BlockRequest(block, nblocks, True)], [(0, 1)])
            record, reqs = self.log(dirties, nblocks)
            return ([record], reqs, [(0, len(reqs))])
        records: list[JournalRecord] = []
        requests: list[BlockRequest] = []
        spans: list[tuple[int, int]] = []
        for dirties, nblocks in entries:
            record, reqs = self.log(dirties, nblocks)
            records.append(record)
            lo = len(requests)
            requests.extend(reqs)
            spans.append((lo, len(requests)))
        return (records, requests, spans)


class ReferenceBufferCache(BufferCache):
    """``BufferCache`` with the parent's ``read_batch`` (every hit deferred).

    A deferred hit queues its ``(start, end)`` run on ``_pending_moves``;
    every access to ``_lru`` — by the inherited methods or by a test
    reading the order — first applies the queue (:meth:`_flush_moves`), so
    the order seen is always the one the scalar loop would have left.
    """

    def __init__(self, *args, **kwargs) -> None:
        self._pending_moves: list[tuple[int, int]] = []
        super().__init__(*args, **kwargs)

    @property
    def _lru(self) -> OrderedDict:
        if self._pending_moves:
            self._flush_moves()
        return self._order

    @_lru.setter
    def _lru(self, value: OrderedDict) -> None:
        self._order = value

    def _flush_moves(self) -> None:
        """Apply deferred LRU refreshes in scalar-equivalent order.

        Replaying the pending runs front-to-back would re-move every block
        of every warm sweep.  The final LRU order of an OrderedDict after a
        move sequence is: blocks never moved (original relative order),
        then moved blocks ordered by their *last* move.  So a reverse walk
        collecting each block's *last* occurrence, replayed in forward
        order, yields exactly the scalar end state — and because the
        pending entries are runs, the bookkeeping can stay on intervals (a
        sorted disjoint coverage list) instead of per-block sets: repeated
        warm sweeps of the same region collapse to one covered-interval
        test, and only the final ``move_to_end`` loop touches blocks.
        """
        pending = self._pending_moves
        if not pending:
            return
        move = self._order.move_to_end
        if len(pending) == 1:
            start, end = pending[0]
            for b in range(start, end):
                move(b)
            pending.clear()
            return
        covered: list[tuple[int, int]] = []  # sorted, disjoint
        segments: list[tuple[int, int]] = []  # uncovered pieces, reverse order
        for start, end in reversed(pending):
            if not covered:
                segments.append((start, end))
                covered.append((start, end))
                continue
            lo = bisect_right(covered, (start,)) - 1
            if lo >= 0 and covered[lo][1] < start:
                lo += 1
            elif lo < 0:
                lo = 0
            # covered[lo:hi] are the intervals overlapping/adjacent [start, end)
            hi = lo
            pieces: list[tuple[int, int]] = []
            cursor = start
            while hi < len(covered) and covered[hi][0] <= end:
                cs, ce = covered[hi]
                if cursor < cs:
                    pieces.append((cursor, min(cs, end)))
                cursor = max(cursor, ce)
                hi += 1
            if cursor < end:
                pieces.append((cursor, end))
            for piece in reversed(pieces):
                segments.append(piece)
            # Merge [start, end) with the overlapped intervals in place.
            if lo < hi:
                start = min(start, covered[lo][0])
                end = max(end, covered[hi - 1][1])
            covered[lo:hi] = [(start, end)]
        for start, end in reversed(segments):
            for b in range(start, end):
                move(b)
        pending.clear()

    def read_batch(self, reads: list[tuple[int, int]]) -> float:
        """Execute a plan's read list; returns total disk seconds spent.

        Equivalent to summing :meth:`read` over ``reads`` — the same disk
        request stream, metric totals and cache/readahead end state (the
        batched metadata path's determinism contract, docs/PERF.md).  A
        read that is fully resident and does not push past a readahead
        frontier takes a fast path without per-block accounting; anything
        else — a miss, a frontier crossing, a read past capacity, or a
        disabled cache — falls back to the scalar :meth:`read` for
        that element, *before* any state was touched, so the sequence of
        cache and context mutations is identical to the scalar loop.
        """
        if not self.params.enabled:
            read = self.read
            total = 0.0
            for start, nblocks in reads:
                total += read(start, nblocks)
            return total
        lru = self._lru
        keys = lru.keys()
        pend = self._pending_moves.append
        ra = self._ra
        tracer = self.tracer
        slack = 2 * self.params.readahead_max_blocks
        capacity = self.disk.capacity_blocks
        total = 0.0
        hits = 0
        for start, nblocks in reads:
            end = start + nblocks
            if 0 < nblocks and end <= capacity:
                ctx_key = None
                for k in ra:
                    if k - slack <= start <= k:
                        ctx_key = k
                        break
                if ctx_key is None or end <= ctx_key:
                    # No frontier crossing possible: the read either matches
                    # no stream or stays inside its prefetched region.
                    if nblocks == 1:
                        resident = start in lru
                    else:
                        resident = keys >= set(range(start, end))
                    if resident:
                        if ctx_key is not None:
                            ra.move_to_end(ctx_key)
                        pend((start, end))
                        hits += nblocks
                        if tracer.enabled:
                            tracer.emit("cache", "hit", start=start, nblocks=nblocks)
                        continue
            total += self.read(start, nblocks)
        if hits:
            self.metrics.incr("cache.hits", hits)
        return total


class _PlanByPlan:
    """Hooks a vendored one-plan ``_execute`` onto ``MetadataServer._run``:
    a run is the loop of ``_execute`` over its plans."""

    def _run(self, plans, op_name: str) -> int:
        ops = 0
        for plan in plans:
            self._execute(plan, op_name)
            ops += 1
        return ops


class ReferenceMetadataServer(_PlanByPlan, MetadataServer):
    """``MetadataServer`` over the reference layout, journal and cache,
    executing plans through ``_execute_batched``."""

    def __init__(self, config, metrics=None, tracer=None) -> None:
        super().__init__(config, metrics, tracer)
        # Rebuild what the constructor derived from the layout, on a fresh
        # MFS (the replaced layout's root already allocated from the first).
        self.cache = ReferenceBufferCache(
            config.cache, self.disk, self.metrics, self.tracer
        )
        self.mfs = MetadataFS(config.meta, config.mds_disk)
        self.journal = ReferenceJournal(self.mfs.journal_base, config.meta.journal_blocks)
        layouts = {"embedded": ReferenceEmbeddedLayout, "normal": ReferenceNormalLayout}
        self.layout = layouts[config.meta.layout](config.meta, self.mfs)
        self.layout.metrics = self.metrics
        self.layout.tracer = self.tracer
        self._op_keys: dict[str, str] = {}  # read by the vendored body

    def _execute(self, plan: AccessPlan, op_name: str, requests: int = 1) -> None:
        self._execute_batched(plan.coalesce(), op_name, requests)

    def _execute_batched(self, plan: AccessPlan, op_name: str, requests: int) -> None:
        """Batched replay of the scalar body (:class:`ScalarMetadataServer`).

        Same simulated effects in the same order — plan reads through
        :meth:`BufferCache.read_batch`, the journal commit through
        :meth:`Journal.log_batch` — with per-op bookkeeping hoisted out of
        the interpreter's way, trace events emitted at the same points.
        At b45a510 it was only reached with no fault injector attached, so
        it has no torn-record branch.
        """
        disk = self.disk
        tracer = self.tracer
        t0 = disk.busy_s + self._cpu_s + self._overhead_s
        if plan.reads:
            self.cache.read_batch(plan.reads)
        journal_records = plan.journal_records
        if journal_records > 0 and self._sync_writes:
            records, reqs, _ = self.journal.log_batch(
                ((plan.dirties, journal_records),)
            )
            for req in reqs:
                disk.submit_one(req.start, req.nblocks, req.is_write)
            self._counters["mds.journal_writes"] += journal_records
            self.journal.commit(records[0])
            if tracer.enabled:
                tracer.emit("meta", "journal_commit", records=journal_records)
        if plan.dirties:
            self._dirty.update(plan.dirties)
        self._cpu_s += plan.cpu_s
        self._overhead_s += requests * self._req_overhead_s
        self.ops += 1
        key = self._op_keys.get(op_name)
        if key is None:
            key = self._op_keys[op_name] = f"mds.op.{op_name}"
        self._counters[key] += 1
        if journal_records > 0:
            self._ops_since_ckpt += 1
            if self._ops_since_ckpt >= self._ckpt_interval:
                self.checkpoint()
        elapsed = disk.busy_s + self._cpu_s + self._overhead_s - t0
        self._op_latency.observe(elapsed)
        if tracer.enabled:
            tracer.emit("meta", op_name, t=t0, dur=elapsed)


class ScalarBufferCache(BufferCache):
    """``BufferCache`` whose plan reads are one :meth:`read` per span."""

    def read_batch(self, reads: list[tuple[int, int]]) -> float:
        total = 0.0
        for start, nblocks in reads:
            total += self.read(start, nblocks)
        return total


class ScalarMetadataServer(_PlanByPlan, MetadataServer):
    """``MetadataServer`` as ``FSConfig.execution="legacy"`` ran it until
    f3214f3 — the straight-line reference of the one-body server: the
    scalar ``_execute`` (one ``BufferCache.read`` per span, per-request
    journal writes whose tearing is checked) over a disk that services
    every batch with the per-request object loop
    (``tests/metrics_reference.py``)."""

    def __init__(self, config, metrics=None, tracer=None) -> None:
        super().__init__(
            config, metrics if metrics is not None else ReferenceMetrics(), tracer
        )
        self.disk = ReferenceDisk(
            config.mds_disk, config.scheduler, self.metrics, vectorized=False,
            name="mds", tracer=self.tracer,
        )
        self.cache = ScalarBufferCache(config.cache, self.disk, self.metrics, self.tracer)

    def _execute(self, plan: AccessPlan, op_name: str, requests: int = 1) -> None:
        plan = plan.coalesce()
        t0 = self.elapsed_s
        for block, count in plan.reads:
            self.cache.read(block, count)
        if plan.journal_records > 0 and self.config.meta.sync_writes:
            record, requests_j = self.journal.log(
                plan.dirties, plan.journal_records
            )
            torn_before = self.disk.torn_writes
            for req in requests_j:
                self.disk.submit(req)
            self.metrics.incr("mds.journal_writes", plan.journal_records)
            if self.disk.torn_writes > torn_before:
                # The commit record hit the platter torn: write-ahead rules
                # say the operation never committed, so replay skips it.
                self.metrics.incr("mds.torn_journal_records")
                if self.tracer.enabled:
                    self.tracer.emit("meta", "journal_torn", seq=record.seq)
            else:
                self.journal.commit(record)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "meta", "journal_commit", records=plan.journal_records
                    )
        if plan.dirties:
            self._dirty.update(plan.dirties)
        self._cpu_s += plan.cpu_s
        self._overhead_s += requests * self.config.mds_request_overhead_s
        self.ops += 1
        self.metrics.incr(f"mds.op.{op_name}")
        if plan.journal_records > 0:
            self._ops_since_ckpt += 1
            if self._ops_since_ckpt >= self.config.meta.journal_interval_ops:
                self.checkpoint()
        elapsed = self.elapsed_s - t0
        self.metrics.observe("mds.op_latency_s", elapsed)
        if self.tracer.enabled:
            self.tracer.emit("meta", op_name, t=t0, dur=elapsed)
