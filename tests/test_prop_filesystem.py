"""Stateful model test of the whole file system against a plain dict.

One machine drives a :class:`~repro.fs.redbud.RedbudFileSystem` on a disk
small enough that ``NoSpaceError`` is common: creates, writes, reads and
unlinks through the path API, closing every file (which releases every
reservation, so the blocks in use are the blocks mapped), and a crash
(``crash_recover`` on both the data plane and the MDS) at any point of the
sequence.  The model maps each path to the set of file blocks written to
it.  After every step:

1. the file system agrees with the model: the same paths in the namespace
   and on the data plane, the same written blocks per file;
2. ``check_dataplane`` and ``check_mds`` are clean (but for the known
   defect ``test_group_fallback_is_not_corruption`` pins);
3. the data-plane allocator books balance: every group's free runs are
   sorted, coalesced and sum to its free count, the array's free count is
   the sum over groups, and no more blocks are mapped than are in use;
4. no ``Inode`` handle outlives its row: a live file's handle reads its
   own name, a deleted file's handle raises ``MetadataError``.

A failed write or create must leave no partial state, which the same
checks catch on the step that raised.  Every counterexample the machine
has shrunk to is kept below as a plain test.
"""

from __future__ import annotations

import posixpath
from dataclasses import replace

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
from repro.fs.redbud import RedbudFileSystem
from repro.fs.verify import check_dataplane, check_mds
from repro.units import KiB

from tests.conftest import small_config

#: Blocks per data disk: two disks of two 256-block PAGs, 4 MiB in all.
TINY_BLOCKS = 512
BLOCK = 4 * KiB
DIRS = ("/", "/d")
NAMES = tuple(f"f{i}" for i in range(5))
PATHS = tuple(posixpath.join(d, n) for d in DIRS for n in NAMES)
#: What fsck reports for an extent a group fallback placed (partly) outside
#: its slot's PAG.
SPILL_CODES = ("extent-wrong-pag", "extent-crosses-pag")


def tiny_filesystem(policy: str, layout: str) -> RedbudFileSystem:
    cfg = small_config(policy=policy, layout=layout)
    return RedbudFileSystem(replace(cfg, disk=DiskParams(capacity_blocks=TINY_BLOCKS)))


def mapped_blocks(fs: RedbudFileSystem) -> int:
    return sum(m.mapped_blocks for f in fs.data.files() for m in f.maps)


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
        self.model: dict[str, set[int]] = {}
        self.handles: dict[str, object] = {}
        self.stale: list[object] = []
        # Two files from the start, so most steps have a write target.
        for path in ("/f0", "/d/f0"):
            self.create(path, None)

    def _pick(self, data) -> str:
        return data.draw(st.sampled_from(sorted(self.model)))

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
    @rule(data=st.data(), block=st.integers(0, 300), nblocks=st.integers(1, 96))
    def read(self, data, block: int, nblocks: int) -> None:
        path = self._pick(data)
        f = self.fs.file_handle(path)
        starts, lengths = self.fs.data.read(f, block * BLOCK, nblocks * BLOCK)
        self.fs.data.array.submit_batch(starts, lengths, False)
        # A read covers exactly the written blocks it asks for.
        assert int(lengths.sum()) == len(self.model[path] & set(range(block, block + nblocks)))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def unlink(self, data) -> None:
        path = self._pick(data)
        self.fs.unlink(path)
        del self.model[path]
        self.stale.append(self.handles.pop(path))

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
            listed = set(self.fs.readdir(d)) - {"d"}
            assert listed == {posixpath.basename(p) for p in self.model if posixpath.dirname(p) == d}
        files = {f.name: f for f in self.fs.data.files()}
        assert set(files) == set(self.model)
        for path, blocks in self.model.items():
            assert files[path].written_blocks == len(blocks)

    @invariant()
    def fsck_clean(self) -> None:
        data = check_dataplane(self.fs.data)
        if self.fs.metrics.count("fsm.group_fallbacks"):
            # Known defect, pinned by test_group_fallback_is_not_corruption:
            # a full PAG spills into a sibling and fsck flags the spill.
            data.findings = [f for f in data.findings if f.code not in SPILL_CODES]
        data.raise_if_dirty()
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


def leave_free(fs: RedbudFileSystem, blocks: int) -> None:
    """Take all but ``blocks`` of the array's free space, mapped by nobody."""
    fsm = fs.data.fsm
    while fsm.free_blocks > blocks:
        fsm.allocate_in_group(0, fsm.free_blocks - blocks, minimum=1)


def test_write_out_of_space_past_a_preallocation_leaves_it_unwritten():
    """The preallocated part of a write used to stay marked written when
    the blocks past the preallocation ran out."""
    fs = tiny_filesystem("static", "embedded")
    fs.create("/a", expected_bytes=16 * BLOCK)
    leave_free(fs, 4)
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
    leave_free(fs, 4)
    used = fs.data.fsm.used_blocks
    with pytest.raises(NoSpaceError):
        fs.write("/a", 0, 16 * BLOCK)
    assert fs.file_handle("/a").maps[0].extents() == old
    assert fs.data.fsm.used_blocks == used
    assert_agrees(fs, {"/a": 8})


def test_reservation_out_of_space_leaks_no_pool_blocks():
    """A write that drained its file's reservation pool and then ran out of
    space used to keep the drained blocks: used, unmapped and in no pool."""
    fs = tiny_filesystem("reservation", "embedded")
    fs.create("/a")
    leave_free(fs, 10)
    fs.write("/a", 0, BLOCK)  # reserves the last 10 free blocks, maps one
    with pytest.raises(NoSpaceError):
        fs.write("/a", BLOCK, 30 * BLOCK)
    fs.data.close_file(fs.file_handle("/a"))
    assert fs.data.fsm.free_blocks == 9
    assert_agrees(fs, {"/a": 1})


def test_crash_recovery_reclaims_an_extent_spanning_two_groups():
    """Once a full PAG spilled into the next one, an extent could run over
    the boundary, and crash recovery raised re-claiming it."""
    fs = tiny_filesystem("vanilla", "embedded")
    fs.create("/a")
    fs.create("/b")
    for block, nblocks in ((0, 64), (128, 192), (321, 192)):
        fs.write("/b", block * BLOCK, nblocks * BLOCK)
    assert any(
        fs.data.fsm.group_of(e.physical).end < e.physical_end
        for m in fs.file_handle("/b").maps for e in m.extents()
    )
    mapped = mapped_blocks(fs)
    fs.data.crash_recover()
    assert fs.data.fsm.used_blocks == mapped_blocks(fs) == mapped


@pytest.mark.xfail(
    strict=True,
    reason="the allocator spills a full PAG into a sibling PAG, and fsck "
    "reports (and repair unmaps) the spilled extent as extent-wrong-pag "
    "or extent-crosses-pag",
)
def test_group_fallback_is_not_corruption():
    fs = tiny_filesystem("static", "embedded")
    for path, declared in (
        ("/f4", 1024), ("/f0", None), ("/f3", 64), ("/f2", None), ("/f1", 1024),
    ):
        fs.create(path, expected_bytes=None if declared is None else declared * KiB)
    assert fs.metrics.count("fsm.group_fallbacks")
    check_dataplane(fs.data).raise_if_dirty()
