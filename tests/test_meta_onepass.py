"""One metadata op, one pass: the in-place path against the parent's.

``tests/meta_reference.py`` holds the per-op object chain ``src/`` ran at
b45a510 — one ``MetaOp`` per call, sub-plans combined with ``merge``,
``_execute_batched`` over ``log_batch``, ``read_batch`` deferring every hit.
The properties here drive random operation sequences through both and
demand equality at the finest grain each layer exposes:

- layouts: every returned ``AccessPlan`` field for field (the order of
  ``dirties`` is observable — it becomes the journal record crash replay
  exposes), every raised error, and the whole layout state;
- MDS: clock, redo records, ``MetricsSnapshot``, cache LRU and readahead
  order, and the exported trace, at checkpoint intervals of 1 / 7 / 64 on
  a journal small enough to wrap;
- ``MetaOpRun`` against the same calls as ``MetaOp``s, ``Journal.log_one``
  against ``log``, ``read_batch`` against a loop of ``read`` — cache order
  included, after every batch.

The last section pins the all-or-nothing creates: a ``NoSpaceError`` part
way through a create or mkdir leaves no trace (it left an orphan inode,
or an entry without its directory, at the parent commit).
"""

from __future__ import annotations

import io
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.base as workloads_base
from repro.config import CacheParams, DiskParams, MetaParams, SchedulerParams
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.errors import MetadataError, NoSpaceError, ReproError
from repro.fs.profiles import (
    lustre_profile,
    redbud_mif_profile,
    redbud_vanilla_profile,
)
from repro.fs.verify import check_mds
from repro.meta.embedded_layout import EmbeddedLayout
from repro.meta.journal import Journal
from repro.meta.layout import AccessPlan
from repro.meta.mds import MetadataServer
from repro.meta.mfs import MetadataFS
from repro.meta.normal_layout import NormalLayout
from repro.obs.export import to_jsonl
from repro.obs.trace import Tracer
from repro.workloads.base import MetaOp, MetaOpRun, drive, mds_executor
from repro.workloads.metarates import MetaratesWorkload

from .meta_reference import (
    ReferenceEmbeddedLayout,
    ReferenceMetadataServer,
    ReferenceNormalLayout,
    reference_item_program,
    reference_per_file_program,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
from mdtest import MdtestConfig, MdtestWorkload  # noqa: E402

MDS_DISK = DiskParams(capacity_blocks=2048)


def small_meta(layout: str, htree: bool, **overrides) -> MetaParams:
    """A metadata FS small enough that everything rare fires within a few
    dozen ops: 2 dentries or inode slots per block, one-block directory
    preallocation, lazy-free every 2 deletes, spill at 31 extent records,
    spill preallocation from one record per file."""
    params = dict(
        layout=layout, htree_index=htree, inode_size=2048, dentry_size=2048,
        extent_record_size=64, dir_prealloc_blocks=1, lazy_free_batch=2,
        frag_degree_threshold=1.0, journal_blocks=5, block_groups=4,
        blocks_per_group=128, inodes_per_group=32,
    )
    params.update(overrides)
    return MetaParams(**params)


# -- random operation sequences ------------------------------------------------
# A name is (k, hit): an entry the directory holds now (the k-th in sorted
# order) when ``hit`` and it has any, else the fixed name ``n<k>`` — which
# may exist too.  Ops that need their name present mostly hit, creates
# mostly miss, so most calls succeed and the rest provoke FileExists /
# FileNotFound / IsADirectory.
K = st.integers(min_value=0, max_value=9)
OLD = st.tuples(K, st.sampled_from([True, True, True, True, False]))
NEW = st.tuples(K, st.sampled_from([False, False, False, False, True]))
DIRS = st.integers(min_value=0, max_value=3)
OPS = st.one_of(
    st.tuples(st.just("mkdir"), DIRS, NEW),
    st.tuples(st.just("create"), DIRS, NEW),
    st.tuples(st.just("create"), DIRS, NEW),
    st.tuples(st.just("create"), DIRS, NEW),
    st.tuples(st.just("utime"), DIRS, OLD),
    st.tuples(st.just("stat"), DIRS, OLD),
    st.tuples(st.just("delete"), DIRS, OLD),
    st.tuples(st.just("delete"), DIRS, OLD),
    st.tuples(st.just("open_getlayout"), DIRS, OLD),
    st.tuples(
        st.just("set_extent_records"), DIRS, OLD,
        st.integers(min_value=-1, max_value=200),
    ),
    st.tuples(st.just("rename"), DIRS, OLD, DIRS, NEW),
    st.tuples(st.just("readdir_stat"), DIRS),
)
SEQUENCES = st.lists(OPS, min_size=1, max_size=60)


def name_in(parent, name: tuple[int, bool]) -> str:
    k, hit = name
    held = sorted(parent.entries)
    return held[k % len(held)] if hit and held else f"n{k}"


#: MDS method -> the layout method it executes.
LAYOUT_METHOD = {
    "mkdir": "create_dir", "create": "create_file", "delete": "delete_file",
    "open_getlayout": "getlayout",
}


def attempt(call, *args):
    """The call's result, or the simulator error it raised."""
    try:
        return call(*args)
    except ReproError as exc:
        return (type(exc), exc.args)


def layout_state(layout) -> dict:
    mfs = layout.mfs
    state = {
        "inodes": list(layout._inodes.items()),
        "dirs": list(layout._dirs.items()),
        "bitmaps": [
            (b._used.tobytes(), b._rotor, b.used_count)
            for b in mfs._block_bitmaps + mfs._inode_bitmaps
        ],
        "dir_rotor": mfs._dir_rotor,
    }
    if hasattr(layout, "gdt"):
        state["gdt"] = dict(vars(layout.gdt))
    return state


def apply_to_layout(layout, dirs: list, op: tuple):
    """One op of a sequence against a bare layout (what the MDS would call)."""
    kind, d, *rest = op
    parent = dirs[d % len(dirs)]
    method = getattr(layout, LAYOUT_METHOD.get(kind, kind))
    if rest:
        rest[0] = name_in(parent, rest[0])
    if kind in ("mkdir", "create", "utime"):
        out = attempt(method, parent, rest[0], 0.25 * len(dirs))
    elif kind == "rename":
        dst = dirs[rest[1] % len(dirs)]
        out = attempt(method, parent, rest[0], dst, name_in(dst, rest[2]), 1.5)
    else:
        out = attempt(method, parent, *rest)
    if kind == "mkdir" and type(out[0]) is not type:
        dirs.append(out[0])
    return out


@pytest.mark.parametrize("htree", [False, True])
@pytest.mark.parametrize(
    "layout, new, ref",
    [
        ("normal", NormalLayout, ReferenceNormalLayout),
        ("embedded", EmbeddedLayout, ReferenceEmbeddedLayout),
    ],
)
@given(ops=SEQUENCES)
@settings(max_examples=120, deadline=None)
def test_layout_plans_and_state_equal_the_merge_based_reference(
    layout, new, ref, htree, ops
):
    params = small_meta(layout, htree)
    a = new(params, MetadataFS(params, MDS_DISK))
    b = ref(params, MetadataFS(params, MDS_DISK))
    dirs_a, dirs_b = [a.root], [b.root]
    for op in ops:
        got = apply_to_layout(a, dirs_a, op)
        want = apply_to_layout(b, dirs_b, op)
        # Plans are dataclasses: == is field for field, dirties order included.
        assert got == want, op
        assert layout_state(a) == layout_state(b), op


def test_rename_into_a_full_embedded_directory_keeps_the_merge_order():
    """Trap: the content extension's bitmap dirties land where ``merge``
    concatenated them — after the source home block, before the new one."""
    params = small_meta("embedded", False)
    a = EmbeddedLayout(params, MetadataFS(params, MDS_DISK))
    b = ReferenceEmbeddedLayout(params, MetadataFS(params, MDS_DISK))
    plans = []
    for layout in (a, b):
        src, _ = layout.create_dir(layout.root, "src", 0.0)
        dst, _ = layout.create_dir(layout.root, "dst", 0.0)
        moved, _ = layout.create_file(src, "moved", 0.0)
        for i in range(layout.slots_per_block):
            layout.create_file(dst, f"f{i}", 0.0)
        plan = layout.rename(src, "moved", dst, "moved", 1.0)
        assert len(dst.content_runs) == 2
        bitmap = layout.mfs.block_bitmap_block(dst.group)
        assert plan.dirties[1] == bitmap
        assert plan.dirties[2] == dst.content_runs[1][0] == moved.home_block
        plans.append(plan)
    assert plans[0] == plans[1]
    assert layout_state(a) == layout_state(b)


# -- the same sequences through the MDS -----------------------------------------
RAW = st.tuples(
    st.just("raw"),
    st.lists(
        st.tuples(st.integers(0, 700), st.integers(1, 12)), max_size=3
    ),
    st.lists(st.integers(0, 700), max_size=3),
    st.integers(min_value=0, max_value=6),
)
MDS_SEQUENCES = st.lists(st.one_of(OPS, OPS, OPS, RAW), min_size=1, max_size=60)

FIG8_PROFILES = {
    "redbud-orig": redbud_vanilla_profile,
    "lustre": lustre_profile,
    "redbud-mif": redbud_mif_profile,
}


def small_config(profile: str, interval: int):
    cfg = FIG8_PROFILES[profile]()
    return replace(
        cfg,
        meta=small_meta(
            cfg.meta.layout, cfg.meta.htree_index, journal_interval_ops=interval
        ),
        cache=CacheParams(
            capacity_blocks=24, readahead_init_blocks=2, readahead_max_blocks=8
        ),
        mds_disk=MDS_DISK,
    )


def apply_to_mds(mds: MetadataServer, dirs: list, op: tuple):
    kind = op[0]
    if kind == "raw":
        # A hand-built plan reaches what layouts never ask for: a commit of
        # several blocks that wraps the 5-block journal (log_one answers
        # None, log takes over) or exceeds it (log raises).
        _, reads, dirties, records = op
        plan = AccessPlan(
            reads=list(reads), dirties=list(dirties), journal_records=records
        )
        return attempt(mds._run, (plan,), "raw")
    _, d, *rest = op
    parent = dirs[d % len(dirs)]
    if rest:
        rest[0] = name_in(parent, rest[0])
    if kind == "rename":
        dst = dirs[rest[1] % len(dirs)]
        rest[1:] = [dst, name_in(dst, rest[2])]
    out = attempt(getattr(mds, kind), parent, *rest)
    if kind == "mkdir" and not isinstance(out, tuple):
        dirs.append(out)
    return out


def mds_state(mds: MetadataServer) -> dict:
    state = {
        "elapsed": mds.elapsed_s,
        "cpu": mds.cpu_s,
        "ops": mds.ops,
        "redo": mds._redo,
        "dirty": sorted(mds._dirty),
        "journal": (mds.journal.head_block, mds.journal.records_written),
        "disk": (mds.disk.head, mds.disk.busy_s),
        "metrics": mds.metrics.snapshot(),
        "lru": list(mds.cache._lru),
        "ra": list(mds.cache._ra.items()),
        "layout": layout_state(mds.layout),
    }
    if mds.tracer.enabled:
        buf = io.StringIO()
        to_jsonl(mds.tracer.events(), buf)
        state["trace"] = buf.getvalue()
    return state


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("interval", [1, 7, 64])
@pytest.mark.parametrize("profile", sorted(FIG8_PROFILES))
@given(ops=MDS_SEQUENCES)
@settings(max_examples=40, deadline=None)
def test_mds_equals_the_per_op_reference(profile, interval, traced, ops):
    cfg = small_config(profile, interval)
    a = MetadataServer(cfg, tracer=Tracer() if traced else None)
    b = ReferenceMetadataServer(cfg, tracer=Tracer() if traced else None)
    dirs_a, dirs_b = [a.root], [b.root]
    for op in ops:
        got = apply_to_mds(a, dirs_a, op)
        want = apply_to_mds(b, dirs_b, op)
        assert got == want, op
        assert a.elapsed_s == b.elapsed_s, op
    assert mds_state(a) == mds_state(b)
    for mds in (a, b):
        mds.flush()
        mds.crash_recover()
    assert mds_state(a) == mds_state(b)


# -- MetaOpRun == the same calls as MetaOps --------------------------------------
def run_phases(mds: MetadataServer, programs) -> list:
    """Drive a list of program factories; the returned values and, for a
    program that raises, the error (earlier calls stay applied)."""
    execute = mds_executor(mds)
    return [attempt(drive, make(), execute) for make in programs]


@pytest.mark.parametrize("run_ops", [1, 7, 4096])
@pytest.mark.parametrize("profile", ["redbud-orig", "redbud-mif"])
def test_metarates_runs_equal_the_generator_form(monkeypatch, profile, run_ops):
    monkeypatch.setattr(workloads_base, "META_RUN_OPS", run_ops)
    wl = MetaratesWorkload(nclients=3, files_per_dir=9)
    states = []
    for program in (wl.per_file_program, reference_per_file_program.__get__(wl)):
        mds = MetadataServer(small_config(profile, 7), tracer=Tracer())
        dirs = wl.setup_dirs(mds)
        out = run_phases(mds, [
            lambda: program(dirs, "create"),
            lambda: program(dirs, "utime"),
            # The second create round fails at its first call ...
            lambda: program(dirs, "create"),
            lambda: program(dirs, "delete"),
            # ... and this one after the first file of each client is gone.
            lambda: program(dirs[:1], "delete"),
        ])
        states.append((out, mds_state(mds)))
    assert states[0] == states[1]
    counts = states[0][0]
    assert counts[0] == counts[1] == counts[3] == 27
    assert counts[2][0].__name__ == "FileExists"
    assert counts[4][0].__name__ == "FileNotFound"


def test_a_failing_call_mid_run_keeps_the_prefix_applied():
    """Nothing in a run is validated ahead: op k raises after ops < k ran."""
    mds = MetadataServer(small_config("redbud-mif", 64))
    other = MetadataServer(small_config("redbud-mif", 64))
    names = ["a", "b", "c", "b", "d"]
    for m in (mds, other):
        m.mkdir(m.root, "d")
    with pytest.raises(ReproError) as run_err:
        mds_executor(mds)(MetaOpRun("create", [(mds.root, n) for n in names]))
    with pytest.raises(ReproError) as op_err:
        execute = mds_executor(other)
        for n in names:
            execute(MetaOp("create", (other.root, n)))
    assert type(run_err.value) is type(op_err.value)
    assert run_err.value.args == op_err.value.args == ("b",)
    assert list(mds.root.entries) == list(other.root.entries) == ["d", "a", "b", "c"]
    assert mds_state(mds) == mds_state(other)


def test_a_run_answers_its_call_count_and_resolves_on_any_target():
    class Target:
        def __init__(self):
            self.calls = []

        def poke(self, *args):
            self.calls.append(args)
            return "unread"

    target = Target()
    execute = mds_executor(target)
    assert execute(MetaOpRun("poke", [(1,), (2, 3), ()])) == 3
    assert execute(MetaOpRun("poke", [])) == 0
    assert execute(MetaOp("poke", (4,))) == "unread"
    assert target.calls == [(1,), (2, 3), (), (4,)]


@pytest.mark.parametrize("run_ops", [1, 7, 4096])
@pytest.mark.parametrize("layout", ["normal", "embedded"])
def test_mdtest_result_equals_the_generator_form(monkeypatch, layout, run_ops):
    monkeypatch.setattr(workloads_base, "META_RUN_OPS", run_ops)
    profile = {"normal": "redbud-orig", "embedded": "redbud-mif"}[layout]
    cfg = replace(
        small_config(profile, 7),
        meta=small_meta(layout, False, journal_interval_ops=7, blocks_per_group=512),
        mds_disk=DiskParams(capacity_blocks=4096),
    )
    results = []
    for reference in (False, True):
        wl = MdtestWorkload(MdtestConfig(depth=2, branch=2, items_per_dir=3, ntasks=2))
        if reference:
            wl.item_program = reference_item_program.__get__(wl)
        mds = MetadataServer(cfg)
        results.append((wl.run(mds), mds_state(mds)))
    assert results[0] == results[1]
    assert results[0][0].total_ops == 14 + 3 * 42


# -- Journal.log_one == log ---------------------------------------------------------
@pytest.mark.parametrize("region", [1, 4, 7])
def test_log_one_equals_log_at_every_head_and_size(region):
    for head in range(region):
        for nblocks in range(-1, region + 3):
            one, ref = Journal(3, region), Journal(3, region)
            for j in (one, ref):
                if head:
                    j.append(head)
            before = (one._head, one._seq, one.records_written, list(one._records))
            record = one.log_one([7, 9], nblocks)
            fits = 0 < nblocks <= region - head
            assert (record is not None) == fits
            if fits:
                want, reqs = ref.log([7, 9], nblocks)
                assert record == want
                assert [(r.start, r.nblocks, r.is_write) for r in reqs] == [
                    (record.block, nblocks, True)
                ]
            else:
                # Nothing moved; log then wraps, or raises as it always did.
                assert before == (
                    one._head, one._seq, one.records_written, list(one._records)
                )
                if 0 < nblocks <= region:
                    got, want = one.log([7, 9], nblocks), ref.log([7, 9], nblocks)
                    assert got == want and len(got[1]) == 2
                else:
                    for j in (one, ref):
                        with pytest.raises(MetadataError):
                            j.log([7, 9], nblocks)
            assert (one._head, one._seq, one.records_written, one._records) == (
                ref._head, ref._seq, ref.records_written, ref._records
            )


# -- read_batch == a loop of read, cache order included ----------------------------------
def make_cache(capacity: int = 64):
    disk = SimulatedDisk(DiskParams(capacity_blocks=256), SchedulerParams())
    params = CacheParams(
        capacity_blocks=capacity, readahead_init_blocks=4, readahead_max_blocks=16
    )
    return BufferCache(params, disk)


def cache_state(cache: BufferCache) -> tuple:
    return (
        list(cache._lru), list(cache._ra.items()), cache.disk.busy_s,
        cache.disk.head, cache.metrics.snapshot(),
    )


@pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 20])
@pytest.mark.parametrize("after_sweep", [False, True])
def test_a_resident_hit_is_refreshed_now_or_behind_the_pending_sweep(length, after_sweep):
    """A resident hit of any length is moved to the MRU end the moment
    ``read_batch`` reaches it: with a resident sweep earlier in the batch
    its blocks land right behind the sweep's, and the order is the loop's
    as soon as the batch returns."""
    batch, loop = make_cache(), make_cache()
    sweep = [(30, 12)] if after_sweep else []
    reads = [(5, length), (3, length), (5, 1)]
    for c in (batch, loop):
        c.read(0, 48)
    batch.read_batch(sweep + reads)
    for start, n in sweep + reads:
        loop.read(start, n)
    order = list(batch._lru)
    assert order == list(loop._lru)
    touched = set(range(3, 3 + length)) | set(range(5, 5 + length))
    assert order[-1] == 5
    assert set(order[-len(touched):]) == touched
    if after_sweep:
        assert order[-len(touched) - 12:-len(touched)] == list(range(30, 42))
    # A miss after the hits makes the LRU order matter (eviction).
    for c in (batch, loop):
        c.read(100, 30)
    assert cache_state(batch) == cache_state(loop)


READS = st.lists(
    st.tuples(st.integers(0, 120), st.integers(1, 18)), min_size=1, max_size=40,
)


@given(first=READS, second=READS)
@settings(max_examples=150, deadline=None)
def test_read_batch_is_the_read_loop_across_batches(first, second):
    batch, loop = make_cache(40), make_cache(40)
    t_batch = batch.read_batch(first)
    t_loop = 0.0
    for start, n in first:
        t_loop += loop.read(start, n)
    # The LRU order is the loop's after each batch, not only at the end.
    assert list(batch._lru) == list(loop._lru)
    t_batch += batch.read_batch(second)
    t_second = 0.0
    for start, n in second:
        t_second += loop.read(start, n)
    assert list(batch._lru) == list(loop._lru)
    assert t_batch == t_loop + t_second
    assert cache_state(batch) == cache_state(loop)


# -- a NoSpaceError leaves no partial state ----------------------------------------------
def fill_data_blocks(mds: MetadataServer) -> None:
    """Take every free MFS data block (what a full file system looks like)."""
    mfs = mds.mfs
    for group in range(mfs.group_count):
        while mfs._block_bitmaps[group].free_count:
            mfs.alloc_data(group, 1)


def namespace_state(mds: MetadataServer) -> dict:
    layout, mfs = mds.layout, mds.mfs
    dirs = {}
    for ino, d in layout._dirs.items():
        dirs[ino] = (
            dict(d.entries),
            list(getattr(d, "fill", ())), list(getattr(d, "dentry_blocks", ())),
            getattr(d, "file_count", None), getattr(d, "next_offset", None),
            list(getattr(d, "free_offsets", ())), list(getattr(d, "content_runs", ())),
        )
    return {
        "dirs": dirs,
        "inodes": {ino: replace(i) for ino, i in layout._inodes.items()},
        "used": [b.used_count for b in mfs._block_bitmaps + mfs._inode_bitmaps],
        "dir_rotor": mfs._dir_rotor,
        "journal": (mds.journal.head_block, len(mds._redo)),
        "ops": mds.ops,
    }


def free_one_block(mds: MetadataServer, group: int) -> None:
    mfs = mds.mfs
    mfs.free_data(mfs.data_base(group) + mfs.data_blocks_per_group - 1, 1)


def test_normal_create_out_of_dentry_blocks_is_all_or_nothing():
    cfg = small_config("redbud-orig", 64)
    mds, twin = MetadataServer(cfg), MetadataServer(cfg)
    for m in (mds, twin):
        for i in range(2):  # fills the root's one dentry block
            m.create(m.root, f"f{i}")
    fill_data_blocks(mds)
    before = namespace_state(mds)
    with pytest.raises(NoSpaceError):
        mds.create(mds.root, "f4")
    assert namespace_state(mds) == before
    assert not check_mds(mds).findings
    # With room again the create picks the inode the failed one had taken
    # and given back — the one a server that never failed picks.
    free_one_block(mds, 0)
    assert mds.create(mds.root, "f4").ino == twin.create(twin.root, "f4").ino


@pytest.mark.parametrize("parent_full", [False, True])
def test_normal_mkdir_out_of_dentry_blocks_is_all_or_nothing(parent_full):
    cfg = small_config("redbud-orig", 64)
    mds, twin = MetadataServer(cfg), MetadataServer(cfg)
    for m in (mds, twin):
        for i in range(2 if parent_full else 1):
            m.create(m.root, f"f{i}")
    fill_data_blocks(mds)
    if parent_full:
        # One block left: the parent's new dentry block takes it, and the
        # new directory's own first block is the allocation that fails.
        free_one_block(mds, 0)
    before = namespace_state(mds)
    with pytest.raises(NoSpaceError):
        mds.mkdir(mds.root, "sub")
    assert namespace_state(mds) == before
    assert "sub" not in mds.root.entries and "sub" not in mds.root.entry_block
    assert not check_mds(mds).findings
    for group in range(2):
        free_one_block(mds, group + 1)
    assert mds.mkdir(mds.root, "sub").ino == twin.mkdir(twin.root, "sub").ino


@pytest.mark.parametrize("slot", ["fresh", "reused", "extended"])
def test_embedded_create_out_of_spill_blocks_is_all_or_nothing(slot):
    cfg = small_config("redbud-mif", 64)
    mds, twin = MetadataServer(cfg), MetadataServer(cfg)
    for m in (mds, twin):
        d = m.mkdir(m.root, "d")
        # Over the fragmentation threshold: creates preallocate a spill block.
        for i in range({"fresh": 1, "reused": 4, "extended": 2}[slot]):
            m.create(d, f"f{i}")
            m.set_extent_records(d, f"f{i}", 5)
        if slot == "reused":
            for i in range(2):  # lazy_free_batch
                m.delete(d, f"f{i}")
            assert d.free_offsets
    d = mds.layout.dir_of(mds.root.entries["d"])
    fill_data_blocks(mds)
    if slot == "extended":
        # The content's extension takes the last free block; the spill
        # block after it is the allocation that fails.
        free_one_block(mds, 3)
    before = namespace_state(mds)
    with pytest.raises(NoSpaceError):
        mds.create(d, "late")
    assert namespace_state(mds) == before
    assert not check_mds(mds).findings
    for group in (1, 2):
        free_one_block(mds, group)
    twin_d = twin.layout.dir_of(twin.root.entries["d"])
    got, want = mds.create(d, "late"), twin.create(twin_d, "late")
    assert (got.ino, got.home_slot) == (want.ino, want.home_slot)
