"""Directory layouts: operation footprints of normal vs embedded (§IV)."""

import pytest

from repro.config import DiskParams, MetaParams
from repro.errors import FileExists, FileNotFound, IsADirectory
from repro.meta.embedded_layout import EmbeddedLayout
from repro.meta.inumber import decode_ino
from repro.meta.mfs import MetadataFS
from repro.meta.normal_layout import NormalLayout


def make_layout(kind: str, **meta_kw):
    params = MetaParams(
        layout=kind,
        block_groups=4,
        blocks_per_group=2048,
        inodes_per_group=256,
        journal_blocks=64,
        dir_prealloc_blocks=2,
        lazy_free_batch=4,
        **meta_kw,
    )
    mfs = MetadataFS(params, DiskParams(capacity_blocks=16384))
    cls = NormalLayout if kind == "normal" else EmbeddedLayout
    return cls(params, mfs)


@pytest.fixture(params=["normal", "embedded"])
def layout(request):
    return make_layout(request.param)


def assert_same_inode(got, want):
    """Inode handles are built per call: the same row, the same fields."""
    assert (got._table, got._row) == (want._table, want._row)
    assert (got.ino, got.name, got.home_block, got.home_slot, got.mtime) == (
        want.ino, want.name, want.home_block, want.home_slot, want.mtime
    )


class TestCommonSemantics:
    """Both layouts implement identical namespace semantics."""

    def test_create_and_stat(self, layout):
        d, _ = layout.create_dir(layout.root, "d", now=1.0)
        inode, _ = layout.create_file(d, "f", now=2.0)
        got, plan = layout.stat(d, "f")
        assert_same_inode(got, inode)
        assert got.mtime == 2.0
        assert plan.journal_records == 0  # stat does not journal

    def test_duplicate_create_rejected(self, layout):
        layout.create_file(layout.root, "f", now=0.0)
        with pytest.raises(FileExists):
            layout.create_file(layout.root, "f", now=0.0)

    def test_missing_file_rejected(self, layout):
        with pytest.raises(FileNotFound):
            layout.stat(layout.root, "ghost")
        with pytest.raises(FileNotFound):
            layout.delete_file(layout.root, "ghost")

    def test_delete_directory_via_file_op_rejected(self, layout):
        layout.create_dir(layout.root, "d", now=0.0)
        with pytest.raises(IsADirectory):
            layout.delete_file(layout.root, "d")

    def test_delete_removes_entry(self, layout):
        layout.create_file(layout.root, "f", now=0.0)
        layout.delete_file(layout.root, "f")
        with pytest.raises(FileNotFound):
            layout.stat(layout.root, "f")

    def test_readdir_lists_everything(self, layout):
        names = {f"f{i}" for i in range(40)}
        for n in names:
            layout.create_file(layout.root, n, now=0.0)
        listed, _ = layout.readdir(layout.root)
        assert set(listed) == names

    def test_readdir_stat_returns_inodes(self, layout):
        for i in range(10):
            layout.create_file(layout.root, f"f{i}", now=float(i))
        inodes, plan = layout.readdir_stat(layout.root)
        assert len(inodes) == 10
        assert plan.read_block_count() >= 1

    def test_utime_touches(self, layout):
        layout.create_file(layout.root, "f", now=1.0)
        layout.utime(layout.root, "f", now=9.0)
        inode, _ = layout.stat(layout.root, "f")
        assert inode.mtime == 9.0

    def test_rename_within_dir(self, layout):
        layout.create_file(layout.root, "a", now=0.0)
        layout.rename(layout.root, "a", layout.root, "b", now=1.0)
        with pytest.raises(FileNotFound):
            layout.stat(layout.root, "a")
        inode, _ = layout.stat(layout.root, "b")
        assert inode.name == "b"

    def test_rename_across_dirs(self, layout):
        d1, _ = layout.create_dir(layout.root, "d1", now=0.0)
        d2, _ = layout.create_dir(layout.root, "d2", now=0.0)
        layout.create_file(d1, "f", now=0.0)
        layout.rename(d1, "f", d2, "f2", now=1.0)
        inode, _ = layout.stat(d2, "f2")
        assert inode.name == "f2"

    def test_rename_to_existing_rejected(self, layout):
        layout.create_file(layout.root, "a", now=0.0)
        layout.create_file(layout.root, "b", now=0.0)
        with pytest.raises(FileExists):
            layout.rename(layout.root, "a", layout.root, "b", now=1.0)

    def test_getlayout_reads_mapping(self, layout):
        layout.create_file(layout.root, "f", now=0.0)
        layout.set_extent_records(layout.root, "f", 3)
        inode, plan = layout.getlayout(layout.root, "f")
        assert inode.extent_records == 3
        assert plan.read_block_count() >= 1

    def test_mapping_spills_beyond_inode_tail(self, layout):
        layout.create_file(layout.root, "f", now=0.0)
        tail = layout.params.inode_tail_extents
        layout.set_extent_records(layout.root, "f", tail + 1)
        inode, _ = layout.stat(layout.root, "f")
        assert len(inode.spill_blocks) == 1
        layout.set_extent_records(layout.root, "f", tail)
        inode, _ = layout.stat(layout.root, "f")
        assert inode.spill_blocks == []


class TestNormalFootprints:
    def test_create_dirties_bitmap_table_and_dentry(self):
        layout = make_layout("normal")
        _, plan = layout.create_file(layout.root, "f", now=0.0)
        mfs = layout.mfs
        root = layout.root
        assert mfs.inode_bitmap_block(root.group) in plan.dirties
        assert root.dentry_blocks[0] in plan.dirties
        # Inode lands in the parent's group's table.
        itable = range(mfs.itable_base(root.group), mfs.data_base(root.group))
        assert any(b in itable for b in plan.dirties)

    def test_readdir_stat_alternates_regions(self):
        layout = make_layout("normal")
        for i in range(20):
            layout.create_file(layout.root, f"f{i}", now=0.0)
        _, plan = layout.readdir_stat(layout.root)
        reads = [b for b, _ in plan.reads]
        dentry = set(layout.root.dentry_blocks)
        kinds = ["d" if b in dentry else "i" for b in reads]
        assert "d" in kinds and "i" in kinds
        assert kinds[0] == "d"  # dentry block first, then its inodes

    def test_htree_lookup_reads_single_block(self):
        lin = make_layout("normal", htree_index=False)
        ht = make_layout("normal", htree_index=True)
        for layout in (lin, ht):
            for i in range(200):
                layout.create_file(layout.root, f"f{i}", now=0.0)
        _, plan_lin = lin.stat(lin.root, "f199")  # deep in the scan order
        _, plan_ht = ht.stat(ht.root, "f199")
        assert len(plan_ht.reads) <= len(plan_lin.reads)
        assert plan_ht.cpu_s < plan_lin.cpu_s

    def test_delete_frees_inode(self):
        layout = make_layout("normal")
        inode, _ = layout.create_file(layout.root, "f", now=0.0)
        # Read before the delete: a deleted inode's handle raises.
        old_ino = inode.ino
        plan = layout.delete_file(layout.root, "f")
        assert layout.mfs.inode_bitmap_block(layout.root.group) in plan.dirties
        ino2, _ = layout.create_file(layout.root, "g", now=0.0)
        assert ino2.ino == old_ino  # slot reused

    def test_dentry_block_growth(self):
        layout = make_layout("normal")
        per_block = layout.dentries_per_block
        for i in range(per_block + 1):
            layout.create_file(layout.root, f"f{i}", now=0.0)
        assert len(layout.root.dentry_blocks) == 2


class TestEmbeddedFootprints:
    def test_create_never_touches_inode_bitmap_or_table(self):
        layout = make_layout("embedded")
        d, _ = layout.create_dir(layout.root, "d", now=0.0)
        _, plan = layout.create_file(d, "f", now=0.0)
        mfs = layout.mfs
        for g in range(mfs.group_count):
            assert mfs.inode_bitmap_block(g) not in plan.dirties
            itable = range(mfs.itable_base(g), mfs.data_base(g))
            assert not any(b in itable for b in plan.dirties)

    def test_inode_number_encodes_parent(self):
        layout = make_layout("embedded")
        d, _ = layout.create_dir(layout.root, "d", now=0.0)
        inode, _ = layout.create_file(d, "f", now=0.0)
        dir_id, offset = decode_ino(inode.ino)
        assert dir_id == d.dir_id

    def test_inode_lives_in_directory_content(self):
        layout = make_layout("embedded")
        d, _ = layout.create_dir(layout.root, "d", now=0.0)
        inode, _ = layout.create_file(d, "f", now=0.0)
        runs = d.content_runs
        assert any(s <= inode.home_block < s + c for s, c in runs)

    def test_content_preallocation_scales(self):
        layout = make_layout("embedded")
        d, _ = layout.create_dir(layout.root, "d", now=0.0)
        per_block = layout.slots_per_block
        initial_blocks = d.content_blocks
        for i in range(per_block * initial_blocks + 1):
            layout.create_file(d, f"f{i}", now=0.0)
        # §IV.A: preallocation scaled (doubled with scale=2).
        assert d.content_blocks >= 2 * initial_blocks

    def test_readdir_stat_is_one_content_sweep(self):
        layout = make_layout("embedded")
        d, _ = layout.create_dir(layout.root, "d", now=0.0)
        for i in range(40):
            layout.create_file(d, f"f{i}", now=0.0)
        _, plan = layout.readdir_stat(d)
        content = {
            b for s, c in d.content_runs for b in range(s, s + c)
        }
        assert all(b in content for b, _ in plan.reads)

    def test_lazy_free_batches(self):
        layout = make_layout("embedded")  # lazy_free_batch=4
        d, _ = layout.create_dir(layout.root, "d", now=0.0)
        for i in range(8):
            layout.create_file(d, f"f{i}", now=0.0)
        for i in range(3):
            layout.delete_file(d, f"f{i}")
        assert len(d.pending_free) == 3
        assert d.free_offsets == []
        layout.delete_file(d, "f3")  # 4th hits the batch
        assert d.pending_free == []
        assert len(d.free_offsets) == 4

    def test_slots_reused_after_lazy_free(self):
        layout = make_layout("embedded")
        d, _ = layout.create_dir(layout.root, "d", now=0.0)
        for i in range(4):
            layout.create_file(d, f"f{i}", now=0.0)
        for i in range(4):
            layout.delete_file(d, f"f{i}")
        before = d.next_offset
        layout.create_file(d, "new", now=0.0)
        assert d.next_offset == before  # reused a freed slot

    def test_fragmented_dir_preallocates_spill_at_create(self):
        layout = make_layout("embedded", frag_degree_threshold=2.0)
        d, _ = layout.create_dir(layout.root, "d", now=0.0)
        layout.create_file(d, "a", now=0.0)
        layout.set_extent_records(d, "a", 50)  # degree = 50 > 2
        inode, _ = layout.create_file(d, "b", now=0.0)
        assert len(inode.spill_blocks) >= 1

    def test_rename_changes_ino_and_correlates(self):
        layout = make_layout("embedded")
        d1, _ = layout.create_dir(layout.root, "d1", now=0.0)
        d2, _ = layout.create_dir(layout.root, "d2", now=0.0)
        inode, _ = layout.create_file(d1, "f", now=0.0)
        old_ino = inode.ino
        layout.rename(d1, "f", d2, "f", now=1.0)
        new_inode, _ = layout.stat(d2, "f")
        assert new_inode.ino != old_ino
        # §IV.B: changes routed through the old id reach the new inode.
        assert layout.gdt.resolve(old_ino) == new_inode.ino
        located, chain = layout.locate_inode(old_ino)
        assert_same_inode(located, new_inode)
        assert chain[0] == d2.ino

    def test_locate_inode_tracks_back_to_root(self):
        layout = make_layout("embedded")
        d, _ = layout.create_dir(layout.root, "d", now=0.0)
        sub, _ = layout.create_dir(d, "sub", now=0.0)
        inode, _ = layout.create_file(sub, "f", now=0.0)
        located, chain = layout.locate_inode(inode.ino)
        assert_same_inode(located, inode)
        assert chain == [sub.ino, d.ino, layout.root.ino]

    def test_renamed_directory_keeps_working(self):
        layout = make_layout("embedded")
        d, _ = layout.create_dir(layout.root, "d", now=0.0)
        layout.create_file(d, "f", now=0.0)
        layout.rename(layout.root, "d", layout.root, "d2", now=1.0)
        # Children still resolve through the (re-pointed) directory table.
        inode, _ = layout.stat(d, "f")
        located, _ = layout.locate_inode(inode.ino)
        assert_same_inode(located, inode)
