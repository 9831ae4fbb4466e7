"""Stateful model test of the whole file system against a plain dict.

One machine drives a :class:`~repro.fs.redbud.RedbudFileSystem` on a disk
small enough that ``NoSpaceError`` is common: creates, writes, list
writes, reads, list reads and unlinks through the path API, runs of
:data:`~repro.fs.dataplane.MANY_FROM` writes or reads through the data
plane's column paths, closing every file (which releases every
reservation, so the blocks in use are the blocks mapped), and a crash
(``crash_recover`` on both the data plane and the MDS) at any point of the
sequence.  Metadata runs of creates, utimes and deletes in a side
directory ``/m`` go through ``MetadataServer.run_many`` (its column body),
beside readdir-stats and checkpoints.  Files are renamed to free paths in
either directory, and a file's extent count is pushed to its MDS inode
(``sync_layout_to_mds``, which spills the extent map out of the inode tail
on the embedded layout).  Seeded ``Corruptor`` damage to both planes is
followed by ``repair_dataplane`` / ``repair_mds``, which must converge; the
model then adopts the written blocks the repair left.  The model maps each
path to the set of file blocks written to it, and holds the names in
``/m``.  After every step:

1. the file system agrees with the model: the same paths in the namespace
   and on the data plane, the same written blocks per file, the same
   names in ``/m``;
2. ``check_dataplane`` and ``check_mds`` are clean;
3. the data-plane allocator books balance: every group's free runs are
   sorted, coalesced and sum to its free count, the array's free count is
   the sum over groups, and no more blocks are mapped than are in use;
4. no ``Inode`` handle outlives its row: a live file's handle reads its
   own name, a deleted file's handle raises ``MetadataError``.

A failed write, list write or create must leave no partial state, and a
run of writes that fails keeps exactly the ops before the failing one;
the same checks catch either on the step that raised.  Every
counterexample the machine has shrunk to is kept below as a plain test.
"""

from __future__ import annotations

import posixpath
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.config import DiskParams
from repro.errors import FileExists, MetadataError, NoSpaceError
from repro.fault.corrupt import Corruptor
from repro.fs.dataplane import MANY_FROM
from repro.fs.redbud import RedbudFileSystem
from repro.fs.verify import check_dataplane, check_mds, repair_dataplane, repair_mds
from repro.units import KiB

from tests.conftest import small_config

#: Blocks per data disk: two disks of two 256-block PAGs, 4 MiB in all.
TINY_BLOCKS = 512
BLOCK = 4 * KiB
DIRS = ("/", "/d")
NAMES = tuple(f"f{i}" for i in range(5))
PATHS = tuple(posixpath.join(d, n) for d in DIRS for n in NAMES)
#: The longest metadata run in ``/m``.
META_RUN = 24
#: Names of the metadata-only side directory ``/m``: whatever ``/m`` holds,
#: enough fresh or held names for a run of any drawn length.
META_NAMES = tuple(f"m{i:03d}" for i in range(2 * META_RUN))
#: ``(first block, blocks)`` of one write region.
REGION = st.tuples(st.integers(0, 511), st.integers(1, 96))
#: ``(file pick, stream, first block, blocks)`` of one op in a column run.
RUN_OP = st.tuples(st.integers(0, 9), st.integers(0, 3), st.integers(0, 511), st.integers(1, 16))
RUN = st.lists(RUN_OP, min_size=MANY_FROM, max_size=MANY_FROM + 8)


def tiny_filesystem(policy: str, layout: str) -> RedbudFileSystem:
    cfg = small_config(policy=policy, layout=layout)
    return RedbudFileSystem(replace(cfg, disk=DiskParams(capacity_blocks=TINY_BLOCKS)))


def mapped_blocks(fs: RedbudFileSystem) -> int:
    return sum(m.mapped_blocks for f in fs.data.files() for m in f.maps)


def written(f) -> set[int]:
    """The file blocks ``f``'s extent maps hold written data for."""
    return {
        f.to_logical(slot, b)
        for slot, m in enumerate(f.maps)
        for e in m
        if not e.unwritten
        for b in range(e.logical, e.logical_end)
    }


def expand(starts: np.ndarray, lengths: np.ndarray) -> list[int]:
    """The physical blocks of ``(start, nblocks)`` requests, in order."""
    return [b for s, n in zip(starts.tolist(), lengths.tolist()) for b in range(s, s + n)]


class FileSystemMachine(RuleBasedStateMachine):
    # ``delayed`` is left out: it buffers writes until an fsync, so the
    # written blocks would lag the model by design.
    @initialize(
        policy=st.sampled_from(["vanilla", "reservation", "static", "ondemand", "hybrid", "cow"]),
        layout=st.sampled_from(["embedded", "normal"]),
    )
    def boot(self, policy: str, layout: str) -> None:
        self.fs = tiny_filesystem(policy, layout)
        self.fs.mkdir("/d")
        self.fs.mkdir("/m")
        self.model: dict[str, set[int]] = {}
        #: The names in ``/m``, which only metadata runs touch.
        self.meta_names: set[str] = set()
        self.handles: dict[str, object] = {}
        self.stale: list[object] = []
        # Two files from the start, so most steps have a write target.
        for path in ("/f0", "/d/f0"):
            self.create(path, None)

    def _pick(self, data) -> str:
        return data.draw(st.sampled_from(sorted(self.model)))

    def _run(self, ops) -> tuple[list[str], np.ndarray, np.ndarray]:
        """A column run's paths, byte offsets and byte counts."""
        paths = sorted(self.model)
        return (
            [paths[i % len(paths)] for i, _, _, _ in ops],
            np.array([b * BLOCK for _, _, b, _ in ops], dtype=np.int64),
            np.array([n * BLOCK for _, _, _, n in ops], dtype=np.int64),
        )

    # -- rules ----------------------------------------------------------------
    @rule(path=st.sampled_from(PATHS), expected=st.sampled_from([None, 64 * KiB, 1024 * KiB]))
    def create(self, path: str, expected: int | None) -> None:
        if path in self.model:
            with pytest.raises(FileExists):
                self.fs.create(path, expected_bytes=expected)
            return
        try:
            self.fs.create(path, expected_bytes=expected)
        except NoSpaceError:
            return
        self.model[path] = set()
        self.handles[path] = self.fs.stat(path)

    @precondition(lambda self: self.model)
    @rule(
        data=st.data(),
        stream=st.integers(0, 3),
        block=st.integers(0, 511),
        nblocks=st.integers(1, 192),
    )
    def write(self, data, stream: int, block: int, nblocks: int) -> None:
        path = self._pick(data)
        try:
            self.fs.write(path, block * BLOCK, nblocks * BLOCK, stream)
        except NoSpaceError:
            return
        self.model[path] |= set(range(block, block + nblocks))

    @precondition(lambda self: self.model)
    @rule(
        data=st.data(),
        stream=st.integers(0, 3),
        regions=st.lists(REGION, min_size=2, max_size=3),
    )
    def writev(self, data, stream: int, regions) -> None:
        path = self._pick(data)
        try:
            self.fs.writev(path, [(b * BLOCK, n * BLOCK) for b, n in regions], stream)
        except NoSpaceError:
            return  # all or nothing: the invariants see no region
        for b, n in regions:
            self.model[path] |= set(range(b, b + n))

    @precondition(lambda self: self.model)
    @rule(ops=RUN)
    def write_many(self, ops) -> None:
        paths, offsets, nbytes = self._run(ops)
        starts: list[int] = []
        nblocks: list[int] = []
        try:
            self.fs.data.write_many(
                [self.fs.file_handle(p) for p in paths], [s for _, s, _, _ in ops],
                offsets, nbytes, starts, nblocks,
            )
            took = len(ops)
        except NoSpaceError:
            # The ops before the failing one took effect, that one nothing.
            written = {f.name: f.written_blocks for f in self.fs.data.files()}
            model = {p: set(b) for p, b in self.model.items()}
            for took, (path, (_, _, b, n)) in enumerate(zip(paths, ops)):
                if all(written[p] == len(model[p]) for p in model):
                    break
                model[path] |= set(range(b, b + n))
            else:
                raise AssertionError("no prefix of the run matches what was written")
        for path, (_, _, b, n) in zip(paths[:took], ops[:took]):
            self.model[path] |= set(range(b, b + n))
        self.fs.data.array.submit_batch(
            np.array(starts, dtype=np.int64), np.array(nblocks, dtype=np.int64), True
        )

    @precondition(lambda self: self.model)
    @rule(data=st.data(), block=st.integers(0, 300), nblocks=st.integers(1, 96))
    def read(self, data, block: int, nblocks: int) -> None:
        path = self._pick(data)
        f = self.fs.file_handle(path)
        starts, lengths = self.fs.data.read(f, block * BLOCK, nblocks * BLOCK)
        self.fs.data.array.submit_batch(starts, lengths, False)
        # A read covers exactly the written blocks it asks for.
        assert int(lengths.sum()) == len(self.model[path] & set(range(block, block + nblocks)))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), regions=st.lists(REGION, min_size=2, max_size=3))
    def readv(self, data, regions) -> None:
        path = self._pick(data)
        f = self.fs.file_handle(path)
        starts, lengths = self.fs.data.readv(f, [(b * BLOCK, n * BLOCK) for b, n in regions])
        self.fs.data.array.submit_batch(starts, lengths, False)
        # The list's blocks are its regions' blocks in region order: each
        # region reads exactly its written blocks, where a lone read does.
        blocks = expand(starts, lengths)
        at = 0
        for b, n in regions:
            count = len(self.model[path] & set(range(b, b + n)))
            assert blocks[at : at + count] == expand(*self.fs.data.read(f, b * BLOCK, n * BLOCK))
            at += count
        assert at == len(blocks)

    @precondition(lambda self: self.model)
    @rule(ops=RUN)
    def read_many(self, ops) -> None:
        path = sorted(self.model)[ops[0][0] % len(self.model)]
        _, offsets, nbytes = self._run(ops)
        bounds, starts, lengths = self.fs.data.read_many(
            self.fs.file_handle(path), offsets, nbytes
        )
        self.fs.data.array.submit_batch(starts, lengths, False)
        for i, (_, _, b, n) in enumerate(ops):
            got = int(lengths[bounds[i] : bounds[i + 1]].sum())
            assert got == len(self.model[path] & set(range(b, b + n)))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def unlink(self, data) -> None:
        path = self._pick(data)
        self.fs.unlink(path)
        del self.model[path]
        self.stale.append(self.handles.pop(path))

    @precondition(lambda self: self.model and len(self.model) < len(PATHS))
    @rule(data=st.data())
    def rename(self, data) -> None:
        src = self._pick(data)
        dst = data.draw(st.sampled_from([p for p in PATHS if p not in self.model]))
        self.fs.rename(src, dst)
        self.model[dst] = self.model.pop(src)
        self.handles[dst] = self.handles.pop(src)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def sync_layout(self, data) -> None:
        """Push a file's extent count to its inode, spilling the extent map
        to mapping blocks once it outgrows the inode tail."""
        path = self._pick(data)
        before = self.fs.stat(path).extent_records
        try:
            self.fs.sync_layout_to_mds(path)
        except NoSpaceError:  # all or nothing: the old count stands
            assert self.fs.stat(path).extent_records == before
            return
        assert self.fs.stat(path).extent_records == self.fs.file_handle(path).extent_count

    @rule(seed=st.integers(0, 2**16), nfaults=st.integers(1, 3))
    def corrupt_and_repair(self, seed: int, nfaults: int) -> None:
        """Damage both planes, then repair them; the invariants hold the
        repaired file system to the model, which adopts what was written."""
        corruptor = Corruptor(seed)
        corruptor.corrupt_dataplane(self.fs.data, nfaults)
        corruptor.corrupt_mds(self.fs.mds, nfaults)
        assert repair_dataplane(self.fs.data).converged
        assert repair_mds(self.fs.mds).converged
        for f in self.fs.data.files():
            self.model[f.name] = written(f)
        self.meta_names = set(self.fs.readdir("/m"))
        # A lost inode's entry is dropped by the repair: the data plane's
        # file is left without a name (pinned by
        # test_a_repaired_dangling_inode_leaves_its_file_nameless).  Give
        # it a fresh inode under its path, as a lost+found pass would.
        for path in sorted(self.model):
            d, name = posixpath.split(path)
            if name not in self.fs.readdir(d):
                self.fs.mds.create(self.fs.dir_handle(d), name)
                self.stale.append(self.handles.pop(path))
                self.handles[path] = self.fs.stat(path)

    @rule(data=st.data(), method=st.sampled_from(["create", "utime", "delete"]))
    def meta_run(self, data, method: str) -> None:
        """Creates, utimes or deletes of ``n`` names in ``/m`` as one
        ``run_many``: a create when ``/m`` holds fewer than ``n`` names, a
        delete when fewer than ``n`` are free."""
        n = data.draw(st.integers(1, META_RUN))
        if len(self.meta_names) < n:
            method = "create"
        elif len(META_NAMES) - len(self.meta_names) < n:
            method = "delete"
        if method == "create":
            names = [m for m in META_NAMES if m not in self.meta_names][:n]
        else:
            names = data.draw(st.permutations(sorted(self.meta_names)))[:n]
        parent = self.fs.dir_handle("/m")
        assert self.fs.mds.run_many(method, [(parent, name) for name in names]) == len(names)
        if method == "create":
            self.meta_names.update(names)
        elif method == "delete":
            self.meta_names.difference_update(names)

    @rule()
    def readdir_stat(self) -> None:
        assert {inode.name for inode in self.fs.readdir_stat("/m")} == self.meta_names

    @rule()
    def checkpoint(self) -> None:
        self.fs.mds.checkpoint()

    @rule()
    def close_all(self) -> None:
        for path in self.model:
            self.fs.data.close_file(self.fs.file_handle(path))
        # Closing releases every reservation: what is used is what is mapped.
        assert self.fs.data.fsm.used_blocks == mapped_blocks(self.fs)

    @rule()
    def crash(self) -> None:
        self.fs.data.crash_recover()
        self.fs.mds.crash_recover()
        # Recovery rebuilds the free-space books from the extent maps alone.
        assert self.fs.data.fsm.used_blocks == mapped_blocks(self.fs)

    # -- invariants -----------------------------------------------------------
    @invariant()
    def agrees_with_model(self) -> None:
        for d in DIRS:
            listed = set(self.fs.readdir(d)) - {"d", "m"}
            assert listed == {posixpath.basename(p) for p in self.model if posixpath.dirname(p) == d}
        assert set(self.fs.readdir("/m")) == self.meta_names
        files = {f.name: f for f in self.fs.data.files()}
        assert set(files) == set(self.model)
        for path, blocks in self.model.items():
            assert files[path].written_blocks == len(blocks)

    @invariant()
    def fsck_clean(self) -> None:
        check_dataplane(self.fs.data).raise_if_dirty()
        check_mds(self.fs.mds).raise_if_dirty()

    @invariant()
    def allocator_books_balance(self) -> None:
        fsm = self.fs.data.fsm
        for g in fsm.groups:
            g.free.validate()
        assert fsm.free_blocks == sum(g.free_blocks for g in fsm.groups)
        assert fsm.used_blocks >= mapped_blocks(self.fs)

    @invariant()
    def no_handle_outlives_its_row(self) -> None:
        for path, inode in self.handles.items():
            assert inode.name == posixpath.basename(path)
        for inode in self.stale:
            with pytest.raises(MetadataError, match="stale inode handle"):
                inode.name


TestFileSystemMachine = FileSystemMachine.TestCase
TestFileSystemMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


# -- shrunk counterexamples ------------------------------------------------------


def assert_agrees(fs: RedbudFileSystem, written: dict[str, int]) -> None:
    """The namespace and the data plane hold ``path -> written blocks``, and
    fsck finds both planes clean."""
    assert set(fs.readdir("/")) == {posixpath.basename(p) for p in written}
    assert {f.name: f.written_blocks for f in fs.data.files()} == written
    check_dataplane(fs.data).raise_if_dirty()
    check_mds(fs.mds).raise_if_dirty()


def test_fallocate_out_of_space_creates_nothing():
    """A declared size the array cannot hold used to leave the name at the
    MDS and a file with part of its preallocation on the data plane."""
    fs = tiny_filesystem("static", "embedded")
    fs.create("/a", expected_bytes=1024 * KiB)
    free = fs.data.fsm.free_blocks
    with pytest.raises(NoSpaceError):
        fs.create("/b", expected_bytes=4096 * KiB)
    assert not fs.exists("/b")
    assert fs.data.fsm.free_blocks == free
    assert_agrees(fs, {"/a": 0})


def test_write_out_of_space_takes_back_its_first_stripe_unit():
    """A write spanning two stripe units used to keep the first unit's
    blocks mapped and written when the second one ran out of space."""
    fs = tiny_filesystem("reservation", "embedded")
    for path in ("/f2", "/f1", "/f0", "/f3"):
        fs.create(path)
    fs.write("/f3", 0, BLOCK)
    fs.write("/f0", 0, 65 * BLOCK)
    mapped = mapped_blocks(fs)
    with pytest.raises(NoSpaceError):
        fs.write("/f1", 0, 65 * BLOCK)
    assert mapped_blocks(fs) == mapped
    assert_agrees(fs, {"/f0": 65, "/f1": 0, "/f2": 0, "/f3": 1})


def leave_free(fs: RedbudFileSystem, path: str, blocks: int) -> None:
    """Take all but ``blocks`` of the array's free space, mapped by nobody:
    every PAG is full but the one ``path``'s first slot writes to, which
    keeps ``blocks`` free."""
    fsm = fs.data.fsm
    home = fs.file_handle(path).layout[0]
    for group in fsm.groups:
        keep = blocks if group.index == home else 0
        while group.free_blocks > keep:
            fsm.allocate_in_group(group.index, group.free_blocks - keep, minimum=1)


def test_write_out_of_space_past_a_preallocation_leaves_it_unwritten():
    """The preallocated part of a write used to stay marked written when
    the blocks past the preallocation ran out."""
    fs = tiny_filesystem("static", "embedded")
    fs.create("/a", expected_bytes=16 * BLOCK)
    leave_free(fs, "/a", 4)
    with pytest.raises(NoSpaceError):
        fs.write("/a", 0, 32 * BLOCK)
    (preallocated,) = fs.file_handle("/a").maps[0].extents()
    assert (preallocated.length, preallocated.unwritten) == (16, True)
    assert_agrees(fs, {"/a": 0})


def test_copy_on_write_out_of_space_keeps_the_old_blocks():
    """A copy-on-write overwrite that ran out of space used to lose the
    blocks it was replacing, and leak the part of the new copy it got."""
    fs = tiny_filesystem("cow", "embedded")
    fs.create("/a")
    fs.write("/a", 0, 8 * BLOCK)
    old = fs.file_handle("/a").maps[0].extents()
    leave_free(fs, "/a", 4)
    used = fs.data.fsm.used_blocks
    with pytest.raises(NoSpaceError):
        fs.write("/a", 0, 16 * BLOCK)
    assert fs.file_handle("/a").maps[0].extents() == old
    assert fs.data.fsm.used_blocks == used
    assert_agrees(fs, {"/a": 8})


def test_copy_on_write_out_of_space_books_no_relocation():
    """The same overwrite used to leave ``fs.cow_relocated_blocks`` at 8:
    the count was booked as blocks were relocated, and the rollback that
    put them back did not take it back."""
    fs = tiny_filesystem("cow", "embedded")
    fs.create("/a")
    fs.write("/a", 0, 8 * BLOCK)
    leave_free(fs, "/a", 4)
    with pytest.raises(NoSpaceError):
        fs.write("/a", 0, 16 * BLOCK)
    assert fs.metrics.count("fs.cow_relocated_blocks") == 0
    fs.write("/a", 0, 2 * BLOCK)  # an overwrite that completes books its blocks
    assert fs.metrics.count("fs.cow_relocated_blocks") == 2


def test_reservation_out_of_space_leaks_no_pool_blocks():
    """A write that drained its file's reservation pool and then ran out of
    space used to keep the drained blocks: used, unmapped and in no pool."""
    fs = tiny_filesystem("reservation", "embedded")
    fs.create("/a")
    leave_free(fs, "/a", 10)
    fs.write("/a", 0, BLOCK)  # reserves the last 10 free blocks, maps one
    with pytest.raises(NoSpaceError):
        fs.write("/a", BLOCK, 30 * BLOCK)
    fs.data.close_file(fs.file_handle("/a"))
    assert fs.data.fsm.free_blocks == 9
    assert_agrees(fs, {"/a": 1})


def test_a_write_stops_at_its_full_pag():
    """A write whose slot's PAG is full raises instead of spilling into the
    next PAG.  The spill used to grow an extent over the PAG boundary, and
    crash recovery raised re-claiming it."""
    fs = tiny_filesystem("vanilla", "embedded")
    fs.create("/a")
    fs.create("/b")
    fs.write("/b", 0, 64 * BLOCK)
    fs.write("/b", 128 * BLOCK, 192 * BLOCK)
    free = fs.data.fsm.free_blocks
    with pytest.raises(NoSpaceError):
        fs.write("/b", 321 * BLOCK, 192 * BLOCK)
    assert fs.data.fsm.free_blocks == free
    fsm = fs.data.fsm
    for slot, m in zip(fs.file_handle("/b").layout, fs.file_handle("/b").maps):
        for e in m.extents():
            assert fsm.group_of(e.physical).index == slot
            assert e.physical_end <= fsm.groups[slot].end
    mapped = mapped_blocks(fs)
    fs.data.crash_recover()
    assert fs.data.fsm.used_blocks == mapped_blocks(fs) == mapped
    assert_agrees(fs, {"/a": 0, "/b": 256})


def test_a_create_whose_pag_is_full_leaves_nothing():
    """A declared size its slots' PAGs cannot hold raises, although sibling
    PAGs have room: it used to spill there, and fsck reported the spilled
    extents as extent-wrong-pag (and repair unmapped them)."""
    fs = tiny_filesystem("static", "embedded")
    for path, declared in (("/f4", 1024), ("/f0", None), ("/f3", 64), ("/f2", None)):
        fs.create(path, expected_bytes=None if declared is None else declared * KiB)
    free = fs.data.fsm.free_blocks
    with pytest.raises(NoSpaceError):
        fs.create("/f1", expected_bytes=1024 * KiB)
    assert not fs.exists("/f1")
    assert "/f1" not in {f.name for f in fs.data.files()}
    assert fs.data.fsm.free_blocks == free
    assert fs.data.fsm.used_blocks == mapped_blocks(fs)
    assert_agrees(fs, {"/f4": 0, "/f0": 0, "/f3": 0, "/f2": 0})


def test_writev_out_of_space_takes_back_every_region():
    """A list write whose second region ran out of space used to keep the
    first region mapped, written and booked, with no request returned."""
    fs = tiny_filesystem("vanilla", "embedded")
    fs.create("/a")
    leave_free(fs, "/a", 8)
    free = fs.data.fsm.free_blocks
    counters = fs.metrics.snapshot().counters
    with pytest.raises(NoSpaceError):
        fs.writev("/a", [(0, 4 * BLOCK), (400 * KiB, 8 * BLOCK)])
    f = fs.file_handle("/a")
    assert (f.written_blocks, f.size_bytes) == (0, 0)
    assert fs.data.fsm.free_blocks == free
    after = fs.metrics.snapshot().counters
    for name in ("fs.writes", "fs.bytes_written", "fs.buffered_writes"):
        assert after.get(name, 0) == counters.get(name, 0)
    assert_agrees(fs, {"/a": 0})


def test_rename_moves_the_data_plane_file_with_its_path():
    """A renamed file kept its old path on the data plane, so the data
    plane's files and the namespace named it differently; a renamed
    directory left the files under it the same way."""
    fs = tiny_filesystem("vanilla", "embedded")
    fs.mkdir("/d")
    fs.create("/a")
    fs.write("/a", 0, BLOCK)
    fs.rename("/a", "/d/b")
    assert {f.name for f in fs.data.files()} == {"/d/b"}
    fs.rename("/d", "/e")
    assert {f.name for f in fs.data.files()} == {"/e/b"}
    assert fs.file_handle("/e/b").written_blocks == 1


@pytest.mark.xfail(
    strict=True,
    reason="repair_mds reaches only the metadata plane: it drops a lost "
    "inode's entry and leaves the data plane's file under that path",
)
def test_a_repaired_dangling_inode_leaves_its_file_nameless():
    """Repairing a lost inode drops its directory entry; the data plane
    keeps the file and its blocks under a path the namespace no longer
    holds.  Reconciling the two needs a repair across both planes."""
    fs = tiny_filesystem("vanilla", "embedded")
    fs.create("/a")
    fs.write("/a", 0, 4 * BLOCK)
    del fs.mds.layout._inodes[fs.dir_handle("/").entries["a"]]
    assert repair_mds(fs.mds).converged
    assert_agrees(fs, {"/a": 4})
