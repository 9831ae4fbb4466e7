"""The closed-loop data phase as columns: decode -> schedule -> execute by run.

Every layer of the column path is held to the per-op code it replaced:

- ``schedule_arrivals`` draws the arrival order, round ends and RNG
  consumption of the vendored round loop (``tests/phase_reference.py``);
- a whole ``run_data_phase`` over random mixed programs leaves the plane,
  the disks, the metrics and the trace exactly as that loop does, errors
  (an armed crash point's too) included;
- ``read_many`` / ``write_many`` / ``physical_runs_many`` equal loops of
  their scalar forms, and every disk submit entry — ``submit_batch``,
  ``submit_columns``, ``submit_one``, fault injector armed or not — equals
  the per-request object loop (``tests/metrics_reference.py``);
- the bundled workloads' column programs iterate to the op sequences of
  their old generator closures.
"""

from __future__ import annotations

import io
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.fs.dataplane as dataplane
import repro.workloads.base as base
import tests.phase_reference as ref
from repro.alloc.base import AllocationPolicy, PhysicalRun
from repro.alloc.registry import POLICY_NAMES
from repro.block.extent import Extent, ExtentMap
from repro.config import DiskParams, SchedulerParams
from repro.disk.array import DiskArray
from repro.errors import ExtentError, FaultError, NoSpaceError, ReproError, SimulationError
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.fs.dataplane import MANY_FROM, DataPlane
from repro.obs.export import to_jsonl
from repro.obs.trace import Tracer
from repro.rng import derive_rng
from repro.units import KiB, MiB
from repro.workloads.base import (
    READ,
    WRITE,
    FsyncOp,
    ReadOp,
    ReadvOp,
    StreamProgram,
    WriteOp,
    WritevOp,
    run_data_phase,
    schedule_arrivals,
)
from repro.workloads.btio import BTIOBenchmark
from repro.workloads.fpp import FilePerProcessBench
from repro.workloads.ior import IORBenchmark
from repro.workloads.streams import SharedFileMicrobench
from repro.workloads.traces import TraceRecord

from tests.conftest import pairs, small_config
from tests.dataplane_reference import ReferenceDataPlane
from tests.metrics_reference import ReferenceMetrics, object_loop_disks, rounded

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
from trace_replay import replay  # noqa: E402

BS = 4 * KiB


# ---------------------------------------------------------------------------
# Schedule: same arrival order, round ends and RNG state as the round loop
# ---------------------------------------------------------------------------


class _RecordingArray:
    """Disk array stand-in: notes how many ops had arrived at each submit."""

    elapsed_s = 0.0

    def __init__(self, arrivals: list) -> None:
        self.arrivals = arrivals
        self.submits: list[int] = []

    def reset_timelines(self) -> None:
        pass

    def submit_batch(self, starts, nblocks, is_write) -> float:
        self.submits.append(len(self.arrivals))
        return 0.0


class _RecordingPlane:
    """Plane stand-in: every write dirties one block, so with a one-block
    writeback buffer the reference loop submits at the end of every round
    that saw an arrival."""

    def __init__(self) -> None:
        self.arrivals: list[tuple[int, int, int]] = []
        self.array = _RecordingArray(self.arrivals)

    def write(self, f, stream, offset, nbytes):
        self.arrivals.append((stream, nbytes - 1, offset))
        return np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)

    read = fsync = writev = readv = None  # the loop binds them up front


@given(
    lengths=st.lists(st.integers(0, 12), min_size=0, max_size=7),
    skip=st.sampled_from([0.0, 0.1, 0.9]),
    seed=st.integers(0, 5),
    shared_ids=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_schedule_matches_round_loop(lengths, skip, seed, shared_ids):
    # Program p issues WriteOp(offset=k, nbytes=p+1) as its k-th op.
    programs = [
        StreamProgram(
            stream=p // 2 if shared_ids else p,
            ops=[WriteOp(None, k, p + 1) for k in range(n)],
        )
        for p, n in enumerate(lengths)
    ]
    loop_rng = derive_rng(seed, "phase-jitter")
    plane = _RecordingPlane()
    with mock.patch.object(ref, "derive_rng", lambda *_: loop_rng):
        ref.reference_run_data_phase(
            plane, programs, write_buffer_blocks=1, skip_probability=skip, seed=seed
        )
    rng = derive_rng(seed, "phase-jitter") if skip > 0.0 else None
    who, what, round_ends = schedule_arrivals(np.array(lengths, dtype=np.int64), skip, rng)
    assert list(zip(who.tolist(), what.tolist())) == [
        (p, k) for _, p, k in plane.arrivals
    ]
    assert [programs[p].stream for p in who.tolist()] == [s for s, _, _ in plane.arrivals]
    # Rounds that saw an arrival end where the loop flushed its dirty block.
    ends = np.unique(round_ends)
    assert ends[ends > 0].tolist() == plane.array.submits
    assert (np.diff(round_ends) >= 0).all()
    if rng is not None:
        assert rng.bit_generator.state == loop_rng.bit_generator.state


def test_schedule_draws_in_bounded_blocks(monkeypatch):
    """A block of rounds is capped by cells, not by the phase's length."""
    lengths = np.array([40, 25, 40], dtype=np.int64)
    whole = schedule_arrivals(lengths, 0.3, derive_rng(3, "phase-jitter"))
    monkeypatch.setattr(base, "SCHEDULE_CELLS", 4)
    capped = schedule_arrivals(lengths, 0.3, derive_rng(3, "phase-jitter"))
    for a, b in zip(whole, capped):
        assert a.tolist() == b.tolist()


# ---------------------------------------------------------------------------
# Whole phase: random mixed programs against the vendored round loop
# ---------------------------------------------------------------------------


def _tiny_config(policy: str, disk_blocks: int = 192):
    """Two disks of well under 1 MiB: a few dozen ops fill them."""
    cfg = small_config(policy=policy, stripe_blocks=4)
    return replace(cfg, disk=DiskParams(capacity_blocks=disk_blocks))


#: (file index, kind, block offset, blocks, extra regions) per op.
_OP = st.tuples(
    st.integers(0, 2),
    st.sampled_from(["write", "write", "read", "read", "fsync", "writev", "readv"]),
    st.integers(0, 120),
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(0, 120), st.integers(1, 6)), min_size=1, max_size=3),
)
_PROGRAM = st.tuples(
    st.integers(0, 3),  # stream id: collisions share a readahead window
    st.sampled_from(["list", "factory", "columns"]),
    st.lists(_OP, min_size=0, max_size=14),
)


def _build_programs(specs, files, per_stream_files):
    programs = []
    for p, (stream, shape, ops) in enumerate(specs):
        built = []
        for fi, kind, block, nblocks, regions in ops:
            f = files[p % len(files)] if per_stream_files else files[fi % len(files)]
            offset, nbytes = block * BS + (block % 3) * 512, nblocks * BS - (nblocks % 2) * 100
            regs = tuple((b * BS, n * BS) for b, n in regions)
            if kind == "write":
                built.append(WriteOp(f, offset, nbytes))
            elif kind == "read":
                built.append(ReadOp(f, offset, nbytes))
            elif kind == "fsync":
                built.append(FsyncOp(f))
            elif kind == "writev":
                built.append(WritevOp(f, regs))
            else:
                built.append(ReadvOp(f, regs))
        plain = all(type(op) in (WriteOp, ReadOp) for op in built)
        if shape == "columns" and plain and len({id(op.file) for op in built}) == 1:
            programs.append(
                StreamProgram.from_columns(
                    stream,
                    built[0].file,
                    [READ if type(op) is ReadOp else WRITE for op in built],
                    [op.offset for op in built],
                    [op.nbytes for op in built],
                )
            )
        elif shape == "factory":
            programs.append(StreamProgram(stream, lambda built=built: iter(built)))
        else:
            programs.append(StreamProgram(stream, built))
    return programs


def _end_state(plane, tracer, outcome):
    buf = io.StringIO()
    to_jsonl(tracer.events(), buf)
    return {
        "outcome": outcome,
        "extents": [[m.extents() for m in f.maps] for f in plane.files()],
        "sizes": [f.size_bytes for f in plane.files()],
        "metrics": plane.metrics.snapshot(),
        "io_profile": dict(plane.array.io_profile),
        "disks": [(d.head, d.busy_s) for d in plane.array.disks],
        "trace": buf.getvalue(),
    }


def _drive(runner, config, widths, specs, per_stream_files, phase_kw, bad_op, crash_after=None):
    tracer = Tracer(capacity=1 << 16)
    plane = DataPlane(config, tracer=tracer)
    if crash_after is not None:
        plane.array.disks[0].attach_injector(
            FaultInjector(FaultPlan(seed=0, crash_after_requests=crash_after))
        )
    files = [plane.create_file(f"/f{i}", width=w) for i, w in enumerate(widths)]
    outcomes = []
    for half in (specs[: len(specs) // 2], specs[len(specs) // 2 :]):
        programs = _build_programs(half, files, per_stream_files)
        if bad_op is not None and programs:
            programs[-1] = StreamProgram(
                programs[-1].stream, [*programs[-1], bad_op(files[0])]
            )
        try:
            outcomes.append(runner(plane, programs, **phase_kw))
        except (NoSpaceError, ReproError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return _end_state(plane, tracer, outcomes)


#: A read run mapped ahead across a round end whose submit raises (an armed
#: crash point): only the reads up to that round end are booked.
_ROUND_END_RAISES = dict(
    policy="ondemand",
    widths=[1, 1],
    specs=[
        (0, "list", [
            (0, "write", 0, 1, [(0, 1)]),
            (0, "write", 0, 1, [(0, 1)]),
            (0, "read", 0, 1, [(0, 1)]),
            (0, "write", 0, 1, [(0, 1)]),
            (0, "write", 0, 1, [(0, 1), (0, 1), (0, 1)]),
            (0, "write", 0, 1, [(0, 1), (0, 1), (0, 1)]),
        ]),
        (0, "list", [
            (0, "write", 10, 6, [(0, 1), (72, 6)]),
            (2, "write", 0, 12, [(1, 3)]),
            (0, "read", 0, 5, [(13, 1)]),
            (0, "write", 0, 1, [(0, 1), (0, 1), (0, 1)]),
        ]),
        (0, "list", [
            (0, "write", 0, 1, [(0, 1)]),
            (0, "read", 0, 1, [(0, 1)]),
            (0, "write", 0, 1, [(0, 1), (0, 1), (0, 1)]),
        ]),
        (0, "list", []),
        (0, "list", []),
        (0, "list", []),
    ],
    per_stream_files=True,
    skip=0.0,
    seed=0,
    buffers=(8, 16),
    bad=None,
    disk_blocks=48,
    cutoffs=(1, 3),
    crash_after=1,
)


@given(
    policy=st.sampled_from(POLICY_NAMES),
    widths=st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3),
    specs=st.lists(_PROGRAM, min_size=0, max_size=8),
    per_stream_files=st.booleans(),
    skip=st.sampled_from([0.0, 0.1, 0.9]),
    seed=st.integers(0, 3),
    # (256, 40) and (8, 64): the blocks spanned reach the writeback mark
    # mid-phase (and under ``delayed`` overstate the dirty pool).
    buffers=st.sampled_from([(256, 32768), (1, 1), (8, 16), (256, 40), (8, 64)]),
    bad=st.sampled_from([None, None, "range", "length"]),
    disk_blocks=st.sampled_from([16, 48, 192]),
    cutoffs=st.sampled_from([(1, 3), (4, 4096), (32, 4096)]),
    crash_after=st.sampled_from([None, None, 1, 6]),
)
@example(**_ROUND_END_RAISES)
@settings(max_examples=250, deadline=None)
def test_phase_matches_round_loop(**kw):
    new, old = _phase_and_round_loop(**kw)
    assert new == old


def test_read_run_books_only_the_reads_before_a_raising_round_end():
    new, old = _phase_and_round_loop(**_ROUND_END_RAISES)
    assert new["outcome"][0] == ("CrashError", "disk0: injected crash after 1 requests")
    assert new["metrics"].counters["fs.reads"] == old["metrics"].counters["fs.reads"] == 1
    assert new == old


def _phase_and_round_loop(
    policy, widths, specs, per_stream_files, skip, seed, buffers, bad,
    disk_blocks, cutoffs, crash_after,
):
    """End states of ``run_data_phase`` and of the vendored round loop."""
    bad_op = {
        None: None,
        "range": lambda f: ReadOp(f, -BS, BS),
        "length": lambda f: WriteOp(f, 0, 0),
    }[bad]
    phase_kw = dict(
        read_buffer_blocks=buffers[0], write_buffer_blocks=buffers[1],
        skip_probability=skip, seed=seed,
    )
    config = _tiny_config(policy, disk_blocks)
    args = (config, widths, specs, per_stream_files, phase_kw, bad_op, crash_after)
    # Small cutoffs send these short programs' read and write runs down the
    # column paths, the reads in more than one mapped piece.
    with (
        mock.patch.object(dataplane, "MANY_FROM", cutoffs[0]),
        mock.patch.object(base, "RUN_OPS", cutoffs[1]),
    ):
        new = _drive(run_data_phase, *args)
    return new, _drive(ref.reference_run_data_phase, *args)


@pytest.mark.parametrize(
    "middle,write_buffer_blocks,calls",
    [
        (None, 32768, 1),  # under the mark: the phase is one run
        (None, 1, None),  # at the mark from the first op: one run per round
        (lambda f: ReadOp(f, 0, BS), 32768, None),
        (lambda f: WritevOp(f, ((600 * BS, BS), (620 * BS, BS))), 32768, None),
        (lambda f: FsyncOp(f), 32768, None),
    ],
    ids=["under-the-mark", "mark-of-one-block", "read", "writev", "fsync"],
)
def test_write_runs_are_cut_only_where_a_submit_can_happen(
    middle, write_buffer_blocks, calls
):
    """Four streams of 24 writes.  Nothing can be submitted before a
    non-write arrives or the blocks spanned reach ``write_buffer_blocks``:
    up to there the writes are one ``write_many`` call, from there on one
    per round — and extents, metrics, disks and trace stay the round
    loop's either way."""
    rounds = 24

    def programs(files):
        f = files[0]
        out = []
        for p in range(4):
            ops = [WriteOp(f, (p * rounds + k) * 3 * BS, 3 * BS) for k in range(rounds)]
            if middle is not None and p == 1:
                ops.insert(rounds // 2, middle(f))
            out.append(StreamProgram(p, ops))
        return out

    kw = dict(write_buffer_blocks=write_buffer_blocks, skip_probability=0.0, seed=0)
    spans: list[int] = []

    def drive(runner):
        tracer = Tracer(capacity=1 << 16)
        plane = DataPlane(small_config(policy="ondemand", stripe_blocks=4), tracer=tracer)
        files = [plane.create_file("/f", width=2)]
        real = plane.write_many
        plane.write_many = lambda *a: (spans.append(len(a[0])), real(*a))[1]
        return _end_state(plane, tracer, runner(plane, programs(files), **kw))

    new = drive(run_data_phase)
    runs, spans[:] = list(spans), []
    assert new == drive(ref.reference_run_data_phase)
    assert not spans  # the round loop maps op by op
    if calls is not None:
        assert runs == [4 * rounds]
    elif middle is None:
        assert runs == [4] * rounds
    else:
        # One run up to the non-write (stream 1's op 12), the rest of that
        # round, then a run per round.
        assert runs == [4 * 12 + 1, 2] + [4] * (rounds - 13) + [1]


def test_phase_runs_out_of_space_like_the_round_loop():
    """The tiny array does fill mid-phase (the property above is not
    vacuous about NoSpaceError), and both runners stop at the same op."""
    specs = [
        (p, "columns", [(0, "write", 120 * p + k * 6, 6, [(0, 1)]) for k in range(20)])
        for p in range(4)
    ]
    kw = dict(read_buffer_blocks=256, write_buffer_blocks=64, skip_probability=0.1, seed=1)
    args = (_tiny_config("ondemand"), [2], specs, False, kw, None)
    new = _drive(run_data_phase, *args)
    assert new == _drive(ref.reference_run_data_phase, *args)
    assert any(isinstance(o, tuple) and o[0] == "NoSpaceError" for o in new["outcome"])


def test_op_on_deleted_file_raises_after_earlier_arrivals():
    def drive(runner):
        plane = DataPlane(small_config())
        live, dead = plane.create_file("/live"), plane.create_file("/dead")
        plane.write(dead, 0, 0, 64 * KiB)
        plane.write(live, 0, 0, 64 * BS * 8)
        plane.delete_file(dead)
        programs = [
            StreamProgram.from_columns(
                1, live, READ, np.arange(40) * BS, np.full(40, BS)
            ),
            StreamProgram(2, [ReadOp(live, 0, BS)] * 5 + [ReadOp(dead, 0, BS)]),
        ]
        with pytest.raises(ReproError, match="deleted file"):
            runner(plane, programs, read_buffer_blocks=4, skip_probability=0.0)
        return plane.metrics.snapshot(), [(d.head, d.busy_s) for d in plane.array.disks]

    assert drive(run_data_phase) == drive(ref.reference_run_data_phase)


# ---------------------------------------------------------------------------
# read_many / write_many / physical_runs_many against loops of the scalar forms
# ---------------------------------------------------------------------------


def _random_map(draw) -> ExtentMap:
    """An extent map with holes, unwritten extents and merged neighbours."""
    smap = ExtentMap()
    cursor = 0
    for gap, length, phys, unwritten in draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 9), st.integers(0, 4000), st.booleans()),
            max_size=14,
        )
    ):
        cursor += gap
        smap.insert(Extent(cursor, phys, length, 1 if unwritten else 0))
        cursor += length
    return smap


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_physical_runs_many_is_a_loop_of_physical_runs(data):
    smap = _random_map(data.draw)
    ranges = data.draw(
        st.lists(st.tuples(st.integers(0, 140), st.integers(1, 30)), max_size=40)
    )
    los = np.array([lo for lo, _ in ranges], dtype=np.int64)
    counts = np.array([n for _, n in ranges], dtype=np.int64)
    bounds, physical, length = smap.physical_runs_many(los, counts)
    assert bounds.shape == (len(ranges) + 1,) and bounds[0] == 0
    for i, (lo, n) in enumerate(ranges):
        rows = slice(bounds[i], bounds[i + 1])
        assert list(zip(physical[rows].tolist(), length[rows].tolist())) == (
            smap.physical_runs(lo, n)
        )


def test_physical_runs_many_rejects_empty_ranges():
    with pytest.raises(ExtentError):
        ExtentMap().physical_runs_many(np.array([0, 4]), np.array([2, 0]))


def _written_plane(data):
    """A plane with one file of width ``w`` holding scattered writes from
    several streams (fragmented), an fallocated unwritten tail, and holes."""
    policy = data.draw(st.sampled_from(["vanilla", "reservation", "ondemand", "static"]))
    width = data.draw(st.sampled_from([1, 2]))
    plane = DataPlane(small_config(policy=policy, stripe_blocks=4))
    f = plane.create_file("/f", width=width, expected_bytes=96 * BS)
    for stream, block, nblocks in data.draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 80), st.integers(1, 10)),
            max_size=20,
        )
    ):
        plane.write(f, stream, block * BS, nblocks * BS)
    return plane, f


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_read_many_is_a_loop_of_read(data):
    """Rows, order and ``fs.coalesced_requests``, over holes, unwritten
    extents, ranges past EOF and multi-stripe ops, at run lengths either
    side of the scalar cutoff."""
    plane, f = _written_plane(data)
    n = data.draw(st.sampled_from([0, 1, MANY_FROM - 1, MANY_FROM, MANY_FROM + 9]))
    reads = data.draw(
        st.lists(
            st.tuples(st.integers(0, 130 * BS), st.integers(1, 14 * BS)),
            min_size=n, max_size=n,
        )
    )
    before = plane.metrics.snapshot()
    looped = [pairs(plane.read(f, off, nbytes)) for off, nbytes in reads]
    loop_delta = plane.metrics.since(before)
    before = plane.metrics.snapshot()
    bounds, starts, nblocks = plane.read_many(
        f,
        np.array([off for off, _ in reads], dtype=np.int64),
        np.array([nbytes for _, nbytes in reads], dtype=np.int64),
    )
    assert plane.metrics.since(before) == loop_delta
    assert bounds.tolist() == np.cumsum([0] + [len(reqs) for reqs in looped]).tolist()
    assert pairs((starts, nblocks)) == [r for reqs in looped for r in reqs]


@pytest.mark.parametrize("n", [3, MANY_FROM + 3])
def test_read_many_bad_range_surfaces_after_the_ops_before_it(n):
    plane = DataPlane(small_config())
    f = plane.create_file("/f")
    plane.write(f, 0, 0, 64 * KiB)
    offsets = np.arange(n, dtype=np.int64) * BS
    nbytes = np.full(n, BS, dtype=np.int64)
    nbytes[n - 2] = 0
    with pytest.raises(ReproError, match="read of 0 bytes"):
        plane.read_many(f, offsets, nbytes)
    assert plane.metrics.count("fs.reads") == n - 2
    assert plane.metrics.count("fs.bytes_read") == (n - 2) * BS


def _write_both_ways(make_plane, widths, ops, cutoff):
    """``ops`` — (file index, stream, offset, nbytes) — through
    ``write_many`` in one run and through a loop of ``write``."""

    def drive(many: bool):
        plane = make_plane()
        files = [plane.create_file(f"/f{i}", width=w) for i, w in enumerate(widths)]
        targets = [files[fi % len(files)] for fi, _, _, _ in ops]
        starts: list[int] = []
        nblocks: list[int] = []
        error = None
        try:
            if many:
                with mock.patch.object(dataplane, "MANY_FROM", cutoff):
                    plane.write_many(
                        targets,
                        [s for _, s, _, _ in ops],
                        np.array([off for _, _, off, _ in ops], dtype=np.int64),
                        np.array([n for _, _, _, n in ops], dtype=np.int64),
                        starts, nblocks,
                    )
            else:
                for f, (_, stream, off, n) in zip(targets, ops):
                    s, b = plane.write(f, stream, off, n)
                    starts.extend(s.tolist())
                    nblocks.extend(b.tolist())
        except NoSpaceError as exc:
            error = str(exc)
        return (
            error, starts, nblocks, plane.metrics.snapshot(),
            [[m.extents() for m in f.maps] for f in files],
            [f.size_bytes for f in files],
        )

    many, looped = drive(True), drive(False)
    assert many == looped
    return many


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_write_many_is_a_loop_of_write(data):
    """Every policy (``static`` overwrites unwritten preallocation,
    ``delayed`` maps nothing, ``cow`` skips the column core), one to three
    files interleaved in one run, overlaps and overwrites inside the run,
    multi-unit ops, a disk small enough to fill mid-run — at run lengths
    either side of the scalar cutoff."""
    policy = data.draw(st.sampled_from(POLICY_NAMES))
    widths = data.draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3))
    disk_blocks = data.draw(st.sampled_from([48, 192, 1024]))
    cutoff = data.draw(st.sampled_from([1, 4, 32]))
    declared = data.draw(st.booleans())
    # Mostly block-aligned appends of distinct regions (independent rows),
    # salted with arbitrary ranges (overlaps, partial holes, overwrites).
    ops = data.draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.integers(0, 2), st.integers(0, 3),
                    st.integers(0, 60).map(lambda b: b * 2 * BS), st.integers(1, 2 * BS),
                ),
                st.tuples(
                    st.integers(0, 2), st.integers(0, 3), st.integers(0, 90 * BS),
                    st.integers(1, 12 * BS),
                ),
            ),
            max_size=80,
        )
    )

    def make_plane():
        plane = DataPlane(_tiny_config(policy, disk_blocks))
        if declared:
            # Under static / hybrid: writes land in unwritten preallocation.
            plane.create_file("/declared", expected_bytes=24 * BS, width=2)
        return plane

    _write_both_ways(make_plane, widths, ops, cutoff)


def test_write_many_column_core_is_reached():
    """The property above is not vacuous: a run of disjoint appends costs
    no scan and no per-extent insert, an overwrite inside it takes the
    scalar body, and the disk does fill mid-run."""
    ops = [(0, k % 4, (k % 4) * 40 * BS + (k // 4) * 2 * BS, 2 * BS) for k in range(64)]
    calls = {"scan": 0, "insert": 0, "insert_many": 0}

    def counting(name):
        real = getattr(ExtentMap, name)

        def wrapper(self, *args):
            calls[name if name != "scan_write_range" else "scan"] += 1
            return real(self, *args)

        return mock.patch.object(ExtentMap, name, wrapper)

    with counting("scan_write_range"), counting("insert"), counting("insert_many"):
        plane = DataPlane(small_config(policy="ondemand", stripe_blocks=4))
        f = plane.create_file("/f", width=2)
        offsets = np.array([off for _, _, off, _ in ops], dtype=np.int64)
        nbytes = np.array([n for _, _, _, n in ops], dtype=np.int64)
        plane.write_many([f] * 64, [s for _, s, _, _ in ops], offsets, nbytes, [], [])
        assert calls == {"scan": 0, "insert": 0, "insert_many": 2}
        # The same run again overwrites every block: all scalar.
        plane.write_many([f] * 64, [s for _, s, _, _ in ops], offsets, nbytes, [], [])
        assert calls == {"scan": 64, "insert": 0, "insert_many": 2}
    error, *_ = _write_both_ways(
        lambda: DataPlane(_tiny_config("ondemand", 48)), [2], ops, 4
    )
    assert error is not None


@pytest.mark.parametrize("cutoff", [1, 32])
@pytest.mark.parametrize("width", [1, 2])
def test_write_many_survives_a_policy_that_preallocates_beside_the_hole(cutoff, width):
    """``_OverAllocatingPolicy`` maps two unwritten blocks past every hole
    it backs; later rows of the same run write into them, and a multi-unit
    op continues on the slot it just preallocated on."""
    ops = (
        [(0, 0, k * 8 * BS, 4 * BS) for k in range(20)]  # holes, 4 blocks apart
        + [(0, 1, k * 8 * BS + 4 * BS, 2 * BS) for k in range(20)]  # into the extras
        # Multi-unit: two rows on two slots, then four rows wrapping around.
        + [(0, 2, 202 * BS, 6 * BS), (0, 2, 300 * BS, 14 * BS), (0, 2, 400 * BS, BS)]
    )

    def make_plane():
        plane = DataPlane(small_config(stripe_blocks=4))
        plane.policy = _OverAllocatingPolicy(
            plane.config.alloc, plane.fsm, plane.metrics, plane.tracer
        )
        return plane

    error, starts, nblocks, _, extents, _ = _write_both_ways(make_plane, [width], ops, cutoff)
    assert error is None and sum(nblocks) == 20 * 4 + 20 * 2 + 6 + 14 + 1
    assert any(e.unwritten for m in extents[0] for e in m)


@pytest.mark.parametrize("width", [1, 2])
def test_write_many_finishes_the_op_that_strayed_and_no_more(width):
    """Only every fifth call preallocates beside its hole: the column loop
    finishes the op whose row did (its other rows are answered exactly)
    and hands every later op, whose rows the extras overlap, to the
    scalar body."""
    ops = [(0, 0, k * 8 * BS, 8 * BS) for k in range(40)]

    def make_plane():
        plane = DataPlane(small_config(stripe_blocks=4))
        plane.policy = _SometimesOverAllocatingPolicy(
            plane.config.alloc, plane.fsm, plane.metrics, plane.tracer
        )
        return plane

    error, *_, extents, _ = _write_both_ways(make_plane, [width], ops, 1)
    assert error is None and any(e.unwritten for m in extents[0] for e in m)


def test_write_many_books_the_ops_before_a_bad_one():
    plane = DataPlane(small_config())
    f = plane.create_file("/f")
    starts: list[int] = []
    nblocks: list[int] = []
    with pytest.raises(ReproError, match="negative write range"):
        plane.write_many(
            [f] * 3, [0] * 3, np.array([0, -BS, 8 * BS]), np.array([BS, BS, BS]),
            starts, nblocks,
        )
    assert plane.metrics.count("fs.writes") == 1
    assert f.size_bytes == BS and nblocks == [1]


@pytest.mark.parametrize("bad", ["range", "deleted"])
def test_write_many_column_run_books_the_ops_before_a_bad_one(bad):
    n = MANY_FROM + 8
    plane = DataPlane(small_config())
    f, dead = plane.create_file("/f"), plane.create_file("/dead")
    plane.delete_file(dead)
    files = [f] * n
    offsets = np.arange(n, dtype=np.int64) * BS
    if bad == "range":
        offsets[n - 3] = -BS
    else:
        files[n - 3] = dead
    starts: list[int] = []
    nblocks: list[int] = []
    with pytest.raises(ReproError, match="negative write range|deleted file"):
        plane.write_many(files, [0] * n, offsets, np.full(n, BS), starts, nblocks)
    assert plane.metrics.count("fs.writes") == n - 3
    assert f.size_bytes == (n - 3) * BS and sum(nblocks) == n - 3


# ---------------------------------------------------------------------------
# Satellite: extra unwritten runs past EOF are mapped, never written
# ---------------------------------------------------------------------------


class _OverAllocatingPolicy(AllocationPolicy):
    """Backs the hole, and preallocates two more blocks right after it —
    the "extra ``unwritten=True`` runs" ``allocate``'s contract allows."""

    name = "over-allocating"

    def allocate(self, file_id, stream_id, target, dlocal, count):
        start, got = self.fsm.allocate_in_group(target.group_index, count + 2, minimum=count + 2)
        return [
            PhysicalRun(dlocal, start, count),
            PhysicalRun(dlocal + count, start + count, 2, unwritten=True),
        ]


class _SometimesOverAllocatingPolicy(_OverAllocatingPolicy):
    """Backs every hole with one run; every fifth call also preallocates
    two blocks after it."""

    calls = 0

    def allocate(self, file_id, stream_id, target, dlocal, count):
        self.calls += 1
        if self.calls % 5 == 0:
            return super().allocate(file_id, stream_id, target, dlocal, count)
        start, _ = self.fsm.allocate_in_group(target.group_index, count, minimum=count)
        return [PhysicalRun(dlocal, start, count)]


def test_append_shortcut_does_not_write_unwritten_preallocation():
    def drive(plane_cls):
        plane = plane_cls(small_config())
        plane.policy = _OverAllocatingPolicy(
            plane.config.alloc, plane.fsm, plane.metrics, plane.tracer
        )
        f = plane.create_file("/f", width=1)
        return pairs(plane.write(f, 0, 0, 4 * BS)), f.maps[0].extents()

    written, extents = drive(DataPlane)
    per_extent, per_extent_extents = drive(ReferenceDataPlane)
    assert written == per_extent
    assert sum(n for _, n in written) == 4
    assert extents == per_extent_extents
    assert [(e.logical, e.length, e.unwritten) for e in extents] == [
        (0, 4, False), (4, 2, True),
    ]


# ---------------------------------------------------------------------------
# Every submit entry, armed or not, against the per-request object loop
# ---------------------------------------------------------------------------

#: (global start, nblocks, is_write) rows on a 3 x 1024-block array; most
#: starts crowd the first 24 blocks of a disk, where the LSE ranges sit, so
#: reads hit bad blocks and writes heal them inside one batch.
_ROW = st.tuples(
    st.integers(0, 2),
    st.one_of(st.integers(0, 23), st.integers(0, 23), st.integers(0, 1015)),
    st.integers(1, 8),
    st.booleans(),
).map(lambda r: (r[0] * 1024 + r[1], r[2], r[3]))
_BATCH = st.lists(_ROW, min_size=0, max_size=30)
_PLAN = st.builds(
    FaultPlan,
    seed=st.just(0),
    lse_ranges=st.lists(
        st.tuples(st.integers(0, 28), st.integers(1, 3)), max_size=4
    ).map(tuple),
    torn_every=st.integers(0, 3),
    # 0 is the empty prefix; 40 is past any one batch.
    crash_after_requests=st.one_of(st.none(), st.integers(0, 12), st.integers(0, 40)),
)


def _columns(rows):
    return (
        np.array([s for s, _, _ in rows], dtype=np.int64),
        np.array([n for _, n, _ in rows], dtype=np.int64),
        np.array([w for _, _, w in rows], dtype=bool),
    )


@given(
    batches=st.lists(
        st.tuples(st.sampled_from(["batch", "one"]), _BATCH),
        min_size=1, max_size=3,
    ),
    kind=st.sampled_from(["elevator", "fifo"]),
    plans=st.tuples(*[st.one_of(st.none(), _PLAN, _PLAN)] * 3),
)
@settings(max_examples=300, deadline=None)
def test_submit_batch_is_the_object_loop(batches, kind, plans):
    """Whatever the entry point (the array's column ``submit_batch`` or a
    disk's ``submit_one``), scheduler and fault plan, the column path
    returns (or raises) what ``ReferenceDisk``'s object loop with the
    per-request fault filter does, and leaves the same disks, metrics,
    trace rows (order included) and injector state behind."""
    params = DiskParams(capacity_blocks=1024)
    scheduler = SchedulerParams(kind=kind)

    def drive(reference: bool):
        tracer = Tracer()
        if reference:
            array = object_loop_disks(
                DiskArray(3, params, scheduler, ReferenceMetrics(), tracer)
            )
        else:
            array = DiskArray(3, params, scheduler, tracer=tracer)
        injectors = [
            None if plan is None else FaultInjector(plan) for plan in plans
        ]
        for disk, injector in zip(array.disks, injectors):
            if injector is not None:
                disk.attach_injector(injector)
        outcomes = []
        for entry, rows in batches:
            try:
                if entry == "batch":
                    outcomes.append(array.submit_batch(*_columns(rows)))
                else:
                    outcomes.append([
                        array.disks[s // 1024].submit_one(s % 1024, n, w)
                        for s, n, w in rows
                    ])
            except FaultError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        return (
            outcomes,
            [(d.head, d.busy_s) for d in array.disks],
            array.io_profile,
            rounded(array.metrics.snapshot()),
            tracer.events(),
            [
                None if i is None else (
                    i.armed, i.requests_seen, i.torn_writes, i.lse_errors,
                    i.crashes, i.written, i.bad_blocks,
                )
                for i in injectors
            ],
        )

    columns, objects = drive(False), drive(True)
    assert columns == objects
    submitted = [len(rows) for entry, rows in batches if entry != "one"]
    assert columns[2] == {
        "batches_scalar": submitted.count(1),
        "batches_vectorized": sum(n > 1 for n in submitted),
    }


def test_submit_batch_takes_one_direction_for_the_whole_batch():
    """One bool for the batch is a column of it: on a split batch and on a
    batch of one (which goes straight to its disk's ``submit_one``)."""
    params = DiskParams(capacity_blocks=1024)
    rows = [(8, 4, True), (1500, 2, True), (16, 4, True)]
    for batch in (rows, rows[1:2]):
        one, column = DiskArray(2, params), DiskArray(2, params)
        starts, nblocks, writes = _columns(batch)
        assert one.submit_batch(starts, nblocks, True) == column.submit_batch(
            starts, nblocks, writes
        )
        assert one.metrics.snapshot() == column.metrics.snapshot()


@pytest.mark.parametrize(
    "rows,message",
    [
        ([(8, 4, False), (2 * 1024, 4, False)], "global block out of range: 2048"),
        ([(8, 4, False), (1020, 8, False)], r"request \[1020, 1028\) spans disks"),
        ([(8, 4, False), (16, 0, False)], "request must cover at least one block: 0"),
        ([(8, 4, False), (-4, 2, False)], "negative start block: -4"),
    ],
)
def test_submit_columns_rejects_what_submit_batch_rejects(rows, message):
    """A batch and a batch of its bad request alone (the one-request path)
    raise the request checks' errors, before any disk services work."""
    params = DiskParams(capacity_blocks=1024)
    for batch in (rows, rows[1:]):
        array = DiskArray(2, params)
        with pytest.raises(SimulationError, match=message):
            array.submit_batch(*_columns(batch))
        assert array.elapsed_s == 0.0


# ---------------------------------------------------------------------------
# Column programs iterate to the op sequences of the old generator closures
# ---------------------------------------------------------------------------


def _same_programs(columns, generators):
    assert [p.stream for p in columns] == [p.stream for p in generators]
    for col, gen in zip(columns, generators):
        assert list(col) == list(gen)
        assert list(col) == list(col)  # re-iterable
        assert list(gen) == list(gen)


@pytest.mark.parametrize("collective", [False, True])
@pytest.mark.parametrize("write", [False, True])
def test_ior_columns(collective, write):
    bench = IORBenchmark(
        nprocs=8, file_bytes=8 * MiB + 8 * 24 * KiB, request_bytes=40 * KiB,
        collective=collective, aggregators=4, collective_request_bytes=600 * KiB,
    )
    f = bench.create_file(DataPlane(small_config()))
    _same_programs(bench._programs(f, write), ref.reference_ior_programs(bench, f, write))


@pytest.mark.parametrize("collective", [False, True])
@pytest.mark.parametrize("kind,op_cls", [(WRITE, WriteOp), (READ, ReadOp)])
def test_btio_columns(collective, kind, op_cls):
    bench = BTIOBenchmark(
        nprocs=9, step_bytes_per_proc=192 * KiB, steps=3, chunk_bytes=8 * KiB,
        subrun_bytes=64 * KiB, collective=collective, aggregators=3,
    )
    f = bench.create_file(DataPlane(small_config()))
    _same_programs(bench._programs(f, kind), ref.reference_btio_programs(bench, f, op_cls))


@pytest.mark.parametrize("jitter", [0.0, 0.3])
def test_shared_file_columns(jitter):
    bench = SharedFileMicrobench(
        nstreams=6, file_bytes=6 * 200 * KiB, write_request_bytes=24 * KiB,
        read_request_bytes=40 * KiB, segments=16, readers=5, jitter=jitter, seed=2,
    )
    f = bench.create_shared_file(DataPlane(small_config()))
    _same_programs(bench.write_programs(f), ref.reference_shared_write_programs(bench, f))
    _same_programs(bench.read_programs(f), ref.reference_shared_read_programs(bench, f))


def test_file_per_process_columns():
    bench = FilePerProcessBench(
        nstreams=5, total_bytes=5 * 100 * KiB, write_request_bytes=24 * KiB,
        read_request_bytes=40 * KiB,
    )
    files = bench.create_files(DataPlane(small_config()))
    _same_programs(
        bench._sequential_programs(files, WRITE, bench.write_request_bytes, 0),
        ref.reference_fpp_programs(bench, files, WriteOp, bench.write_request_bytes, 0),
    )
    _same_programs(
        bench._sequential_programs(files, READ, bench.read_request_bytes, 1000),
        ref.reference_fpp_programs(bench, files, ReadOp, bench.read_request_bytes, 1000),
    )


def _replay_records():
    return [
        TraceRecord(i, i % 3, "read" if i % 4 == 3 else "write", (i % 3) * MiB + (i // 3) * 16 * KiB, 16 * KiB)
        for i in range(120)
    ]


def test_replay_runs_the_old_op_lists():
    """An alternating read/write trace: short read runs take the scalar
    path, and the replayed phase equals the round loop over op lists."""
    records = _replay_records()

    def drive(new: bool):
        plane = DataPlane(small_config())
        f = plane.create_file("/replayed")
        if new:
            result = replay(plane, f, records, skip_probability=0.1, seed=4)
        else:
            result = ref.reference_run_data_phase(
                plane, ref.reference_replay_programs(f, records), skip_probability=0.1, seed=4
            )
        return result, [m.extents() for m in f.maps], plane.metrics.snapshot()

    assert drive(True) == drive(False)


def test_columns_reject_other_kinds_and_ragged_columns():
    with pytest.raises(ValueError):
        StreamProgram.from_columns(0, None, 2, [0], [BS])
    with pytest.raises(ValueError):
        StreamProgram.from_columns(0, None, WRITE, [0, BS], [BS])
