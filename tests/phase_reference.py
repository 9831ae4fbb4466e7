"""Per-op reference for the closed-loop data phase.

The bodies below are the ones ``src/`` ran at commit 82425ec, before
``run_data_phase`` became decode -> schedule -> execute by run and the
bundled workloads started describing their programs as columns
(docs/PERF.md section 1): the round loop that resumed one op per stream
per round and mapped it through ``DataPlane.write/read``, and the
generator / op-list forms of the IOR, BTIO, shared-file, file-per-process
and replay programs.  They are kept verbatim as the oracle the column
path is held to (``tests/test_phase_columns.py``): same arrival order,
same RNG consumption, same plane, disk and trace state.  The live plane
and array speak ``(starts, nblocks)`` columns; :func:`_requests_of` and
:func:`_submit_requests` convert at the call boundary, so the loop still
holds the request objects it held then.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from operator import attrgetter

import numpy as np

from repro.disk.model import BlockRequest, request_columns
from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.stream import StreamId, make_stream_id
from repro.rng import derive_rng
from repro.sim.metrics import ThroughputResult
from repro.workloads.base import (
    FsyncOp,
    Op,
    ReadOp,
    ReadvOp,
    StreamProgram,
    WriteOp,
    WritevOp,
)
from repro.workloads.traces import synth_checkpoint_trace, trace_streams

_request_start = attrgetter("start")


def _requests_of(op, is_write: bool):
    """The live plane ``op``, its columns answered as request objects."""

    def call(*args) -> list[BlockRequest]:
        starts, nblocks = op(*args)
        return [
            BlockRequest(s, n, is_write) for s, n in zip(starts.tolist(), nblocks.tolist())
        ]

    return call


def _submit_requests(array):
    """The live array's column submit, taking a request list."""
    return lambda requests: array.submit_batch(*request_columns(requests))


def reference_run_data_phase(
    plane: DataPlane,
    programs: list[StreamProgram],
    reset_timelines: bool = True,
    read_buffer_blocks: int = 256,
    write_buffer_blocks: int = 32768,
    skip_probability: float = 0.1,
    seed: int = 0,
) -> ThroughputResult:
    """The parent's per-op round loop (docstring: see ``src``)."""
    if read_buffer_blocks <= 0 or write_buffer_blocks <= 0:
        raise ValueError("read/write buffer sizes must be positive")
    if not (0.0 <= skip_probability < 1.0):
        raise ValueError(f"skip_probability must be in [0, 1): {skip_probability}")
    rng: np.random.Generator | None = (
        derive_rng(seed, "phase-jitter") if skip_probability > 0.0 else None
    )
    if reset_timelines:
        plane.array.reset_timelines()
    start_elapsed = plane.array.elapsed_s
    iters: list[tuple[StreamId, Iterator[Op]] | None] = [
        (p.stream, iter(p)) for p in programs
    ]
    bytes_moved = 0
    ops_done = 0
    dirty: list[BlockRequest] = []
    dirty_blocks = 0
    pending_reads: dict[StreamId, list[BlockRequest]] = {}
    pending_read_blocks: dict[StreamId, int] = {}
    # Hot-loop locals: the round loop below runs once per op across every
    # stream, so attribute lookups are hoisted out of it.
    plane_write = _requests_of(plane.write, True)
    plane_read = _requests_of(plane.read, False)
    plane_fsync = _requests_of(plane.fsync, True)
    plane_writev = _requests_of(plane.writev, True)
    plane_readv = _requests_of(plane.readv, False)
    submit = _submit_requests(plane.array)
    start_key = _request_start
    while iters:
        ready_reads: list[BlockRequest] = []
        finished = False
        skips = (
            (rng.random(len(iters)) < skip_probability).tolist()
            if rng is not None
            else None
        )
        for i, pair in enumerate(iters):
            if skips is not None and skips[i]:
                continue  # stalled this round
            stream, it = pair
            op = next(it, None)
            if op is None:
                # Streams finish rarely; mark in place and compact the list
                # once at round end instead of rebuilding it every round.
                iters[i] = None
                finished = True
                continue
            kind = type(op)
            if kind is WriteOp or kind is FsyncOp or kind is WritevOp:
                if kind is WriteOp:
                    requests = plane_write(op.file, stream, op.offset, op.nbytes)
                    bytes_moved += op.nbytes
                elif kind is WritevOp:
                    requests = plane_writev(op.file, stream, list(op.regions))
                    bytes_moved += op.nbytes
                else:
                    requests = plane_fsync(op.file)
                dirty.extend(requests)
                for r in requests:
                    dirty_blocks += r.nblocks
            elif kind is ReadOp or kind is ReadvOp:
                if kind is ReadOp:
                    requests = plane_read(op.file, op.offset, op.nbytes)
                else:
                    requests = plane_readv(op.file, list(op.regions))
                bytes_moved += op.nbytes
                pending = pending_reads.setdefault(stream, [])
                pending.extend(requests)
                nblocks = pending_read_blocks.get(stream, 0)
                for r in requests:
                    nblocks += r.nblocks
                if nblocks >= read_buffer_blocks:
                    ready_reads.extend(pending)
                    pending_reads[stream] = []
                    pending_read_blocks[stream] = 0
                else:
                    pending_read_blocks[stream] = nblocks
            else:  # pragma: no cover - exhaustive over Op
                raise TypeError(f"unknown op: {op!r}")
            ops_done += 1
        if finished:
            iters = [pair for pair in iters if pair is not None]
        if ready_reads:
            submit(ready_reads)
        if dirty_blocks >= write_buffer_blocks:
            dirty.sort(key=start_key)
            submit(dirty)
            dirty = []
            dirty_blocks = 0
    # Phase end: remaining readahead windows, then the final writeback.
    tail_reads = [req for pending in pending_reads.values() for req in pending]
    if tail_reads:
        submit(tail_reads)
    if dirty:
        dirty.sort(key=start_key)
        submit(dirty)
    elapsed = plane.array.elapsed_s - start_elapsed
    return ThroughputResult(bytes_moved=bytes_moved, elapsed=elapsed, ops=ops_done)


# ---------------------------------------------------------------------------
# The bundled workloads' programs as generator closures / op lists
# (``self`` renamed ``bench`` and each ``(0.0, op)`` yield now a bare op,
# since programs carry no arrival gap; otherwise the bodies of 82425ec)
# ---------------------------------------------------------------------------


def reference_ior_programs(bench, f: RedbudFile, write: bool) -> list[StreamProgram]:
    """``IORBenchmark._programs``."""
    if bench.collective:
        # Aggregated two-phase I/O: few streams, huge contiguous requests.
        nstreams = bench.aggregators
        share = bench.file_bytes // nstreams
        request = min(bench.collective_request_bytes, share)
    else:
        nstreams = bench.nprocs
        share = bench.share_bytes
        request = bench.request_bytes
    op_cls = WriteOp if write else ReadOp

    def make_events(p):
        def events():
            base = p * share
            cursor = 0
            while cursor < share:
                chunk = min(request, share - cursor)
                yield op_cls(f, base + cursor, chunk)
                cursor += chunk

        return events

    return [
        StreamProgram(stream=make_stream_id(p // 4, p % 4), ops=make_events(p))
        for p in range(nstreams)
    ]


def reference_btio_programs(bench, f: RedbudFile, op_cls) -> list[StreamProgram]:
    """``BTIOBenchmark._programs``."""
    step_total = bench.nprocs * bench.step_bytes_per_proc
    if bench.collective:
        # Each step's wave is re-aggregated into contiguous slabs.
        nstreams = bench.aggregators
        slab = step_total // nstreams

        def make_collective(a):
            def events():
                for step in range(bench.steps):
                    yield op_cls(f, step * step_total + a * slab, slab)

            return events

        return [
            StreamProgram(stream=make_stream_id(a, 0), ops=make_collective(a))
            for a in range(nstreams)
        ]
    rows_per_step = bench.step_bytes_per_proc // bench.subrun_bytes
    chunks_per_row = bench.subrun_bytes // bench.chunk_bytes
    ncells = int(round(math.sqrt(bench.nprocs)))
    assert ncells * ncells == bench.nprocs

    def make_events(p):
        def events():
            for step in range(bench.steps):
                base = step * step_total
                for r in range(rows_per_step):
                    slot = (p + r) % bench.nprocs
                    row_base = base + (r * bench.nprocs + slot) * bench.subrun_bytes
                    for c in range(chunks_per_row):
                        yield op_cls(f, row_base + c * bench.chunk_bytes, bench.chunk_bytes)

        return events

    return [
        StreamProgram(stream=make_stream_id(p // 4, p % 4), ops=make_events(p))
        for p in range(bench.nprocs)
    ]


def reference_shared_write_programs(bench, f: RedbudFile) -> list[StreamProgram]:
    """``SharedFileMicrobench.write_programs``."""
    records = synth_checkpoint_trace(
        bench.nstreams,
        bench.region_bytes,
        bench.write_request_bytes,
        jitter=bench.jitter,
        seed=bench.seed,
    )

    def make_events(recs):
        def events():
            for rec in recs:
                yield WriteOp(f, rec.offset, rec.nbytes)

        return events

    return [
        StreamProgram(stream=make_stream_id(proc // 4, proc % 4), ops=make_events(recs))
        for proc, recs in sorted(trace_streams(records).items())
    ]


def reference_shared_read_programs(bench, f: RedbudFile) -> list[StreamProgram]:
    """``SharedFileMicrobench.read_programs``."""
    readers = bench.readers if bench.readers is not None else bench.nstreams
    if readers <= 0:
        raise ConfigError("readers must be positive")
    seg_bytes = bench.file_bytes // bench.segments
    if seg_bytes == 0:
        raise ConfigError("more segments than bytes")

    def make_events(reader):
        def events():
            for seg in range(reader, bench.segments, readers):
                base = seg * seg_bytes
                cursor = 0
                while cursor < seg_bytes:
                    chunk = min(bench.read_request_bytes, seg_bytes - cursor)
                    yield ReadOp(f, base + cursor, chunk)
                    cursor += chunk

        return events

    return [
        StreamProgram(stream=make_stream_id(1000 + i // 4, i % 4), ops=make_events(i))
        for i in range(readers)
    ]


def reference_fpp_programs(
    bench, files: list[RedbudFile], op_cls, request_bytes: int, first_client: int
) -> list[StreamProgram]:
    """``FilePerProcessBench._sequential_events`` and the two program
    lists built from it (``first_client`` is 0 for phase 1, 1000 for
    phase 2)."""

    def sequential_events(f):
        def events():
            for off in range(0, bench.file_bytes, request_bytes):
                yield op_cls(f, off, min(request_bytes, bench.file_bytes - off))

        return events

    return [
        StreamProgram(
            stream=make_stream_id(first_client + p // 4, p % 4),
            ops=sequential_events(f),
        )
        for p, f in enumerate(files)
    ]


def reference_replay_programs(
    f: RedbudFile, records, threads_per_client: int = 4
) -> list[StreamProgram]:
    """The program list ``replay`` built."""
    programs = []
    for proc, recs in sorted(trace_streams(records).items()):
        ops = [
            WriteOp(f, r.offset, r.nbytes)
            if r.op == "write"
            else ReadOp(f, r.offset, r.nbytes)
            for r in recs
        ]
        programs.append(
            StreamProgram(
                stream=make_stream_id(proc // threads_per_client, proc % threads_per_client),
                ops=ops,
            )
        )
    return programs
