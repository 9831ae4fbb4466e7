"""Operation records, the event-stream protocol and the phase runners.

Workloads describe themselves as **event streams**: seeded lazy iterators
yielding ``(arrival_dt, op)`` events, where ``arrival_dt`` is the think
time since the stream's previous operation (0.0 for the closed-loop
benchmarks, which issue back-to-back) and ``op`` is a data-plane
:data:`Op` or a metadata :class:`MetaOp`.  Generators may also yield bare
ops — :func:`as_event` normalizes either shape.  Nothing is materialized
up front: a :class:`StreamProgram` built from a factory re-derives its
operations on every iteration, so a million-stream program costs no more
memory than its generator state.

Two consumers share the protocol:

- the **closed-loop** runner below (:func:`run_data_phase`), which drops
  the arrival gaps and executes lock-step rounds: client threads are
  *synchronous* — each has one request outstanding — and every round
  gathers the next operation of each still-active stream (the "order of
  arrival time" interleaving of Figure 1(a)), maps them through the data
  plane, and submits the union of their physical requests to the disk
  array as one concurrent batch for the elevator to arrange;
- the **open-loop** service runner (:mod:`repro.sim.events`), which
  honours the arrival gaps and enqueues ops without waiting for
  completion.

Result-dependent metadata workloads (a build reads ``readdir`` output
before deciding what to compile) use the send-based :func:`drive`
protocol: the executor sends each call's result back into the generator.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter
from typing import Any

import numpy as np

from repro.disk.model import BlockRequest
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.stream import StreamId
from repro.rng import derive_rng
from repro.sim.metrics import ThroughputResult


@dataclass(frozen=True, slots=True)
class WriteOp:
    """Write ``nbytes`` at ``offset`` of ``file``."""

    file: RedbudFile
    offset: int
    nbytes: int


@dataclass(frozen=True, slots=True)
class ReadOp:
    """Read ``nbytes`` at ``offset`` of ``file``."""

    file: RedbudFile
    offset: int
    nbytes: int


@dataclass(frozen=True, slots=True)
class FsyncOp:
    """Flush delayed allocations of ``file``."""

    file: RedbudFile


@dataclass(frozen=True, slots=True)
class WritevOp:
    """Scatter-gather write of ``(offset, nbytes)`` regions of ``file``.

    One list request: the data plane maps the whole region list through a
    single coalescing pass and the phase runner accounts it as one
    operation (PVFS list I/O; see docs/LISTIO.md).
    """

    file: RedbudFile
    regions: tuple[tuple[int, int], ...]

    @property
    def nbytes(self) -> int:
        return sum(n for _, n in self.regions)


@dataclass(frozen=True, slots=True)
class ReadvOp:
    """Scatter-gather read of ``(offset, nbytes)`` regions of ``file``."""

    file: RedbudFile
    regions: tuple[tuple[int, int], ...]

    @property
    def nbytes(self) -> int:
        return sum(n for _, n in self.regions)


@dataclass(frozen=True, slots=True)
class MetaOp:
    """One metadata call: a method name on the MDS/filesystem plus args.

    Executors resolve ``method`` against whatever object they drive
    (:class:`~repro.meta.mds.MetadataServer` or
    :class:`~repro.fs.redbud.RedbudFileSystem`) and, under the
    :func:`drive` protocol, send the call's return value back into the
    generator that yielded the op.
    """

    method: str
    args: tuple = ()


Op = WriteOp | ReadOp | FsyncOp | WritevOp | ReadvOp

#: An event is an operation plus the think-time gap (seconds) since the
#: stream's previous operation.
Event = tuple[float, "Op | MetaOp"]

#: Writeback sort key (C-level attrgetter; same ordering as the old
#: ``lambda r: r.start``, and equally stable).
_request_start = attrgetter("start")


def as_event(item: Event | Op | MetaOp) -> Event:
    """Normalize a yielded item to ``(arrival_dt, op)`` (bare op → dt 0)."""
    if type(item) is tuple:
        return item
    return (0.0, item)


def drive(
    gen: Generator[Any, Any, Any],
    execute: Callable[[MetaOp], Any],
) -> Any:
    """Run a send-based meta program to completion; returns its value.

    ``gen`` yields :class:`MetaOp` events (bare or ``(dt, op)``); each
    op's result is sent back into the generator, preserving the exact
    call order of the hand-rolled loops this protocol replaced.  The
    generator's ``return`` value (op count, handles, ...) is returned.
    """
    send = gen.send
    try:
        item = next(gen)
        while True:
            # as_event inlined: this loop turns once per metadata op.
            item = send(execute(item[1] if type(item) is tuple else item))
    except StopIteration as stop:
        return stop.value


def mds_executor(mds: Any) -> Callable[[MetaOp], Any]:
    """Executor resolving :class:`MetaOp` methods against ``mds``/``fs``."""

    def execute(op: MetaOp) -> Any:
        return getattr(mds, op.method)(*op.args)

    return execute


class _LazySource:
    """Re-iterable view over an event-stream factory, yielding bare ops.

    Wraps a zero-arg callable returning a fresh event iterator; every
    ``iter()`` re-derives the sequence, so nothing is materialized and the
    program can be consumed any number of times (write phase, read-back,
    equivalence tests).
    """

    __slots__ = ("factory",)

    def __init__(self, factory: Callable[[], Iterator[Event | Op]]) -> None:
        self.factory = factory

    def __iter__(self) -> Iterator[Op]:
        for item in self.factory():
            yield item[1] if type(item) is tuple else item

    def events(self) -> Iterator[Event]:
        for item in self.factory():
            yield item if type(item) is tuple else (0.0, item)


@dataclass
class StreamProgram:
    """One client stream: a stream id plus its operation source.

    ``ops`` is either a concrete iterable of ops (legacy, still supported
    for hand-built programs in tests) or a zero-arg callable returning a
    fresh event iterator — the lazy protocol every bundled workload now
    uses.  Iterating the program always yields bare ops; :meth:`events`
    yields ``(arrival_dt, op)`` pairs for arrival-aware consumers.
    """

    stream: StreamId
    ops: Iterable[Op] | Callable[[], Iterator[Event | Op]]

    def __post_init__(self) -> None:
        if callable(self.ops):
            self.ops = _LazySource(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def events(self) -> Iterator[Event]:
        """The program as ``(arrival_dt, op)`` events (bare ops get 0.0)."""
        if isinstance(self.ops, _LazySource):
            return self.ops.events()
        return ((0.0, op) for op in self.ops)


def run_data_phase(
    plane: DataPlane,
    programs: list[StreamProgram],
    reset_timelines: bool = True,
    read_buffer_blocks: int = 256,
    write_buffer_blocks: int = 32768,
    skip_probability: float = 0.1,
    seed: int = 0,
) -> ThroughputResult:
    """Run concurrent stream programs to completion; returns throughput.

    Mapping stays in strict round-robin arrival order — allocation
    interleaving across concurrent streams is the phenomenon under study
    (Figure 1(a)) — while disk submission models the OS I/O path:

    - **Reads**: per-stream readahead.  A stream's read requests accumulate
      up to ``read_buffer_blocks`` (default 1 MiB, a kernel readahead
      window); streams crossing the threshold submit together, so the
      elevator sees every concurrent reader's window at once.
    - **Writes**: page-cache writeback.  Dirty requests pool globally (a
      shared file is one inode — flushing walks it in offset order) and
      flush as one sorted sweep whenever ``write_buffer_blocks`` (default
      128 MiB — HPC nodes buffer checkpoints deeply) are pending, and at
      phase end.

    ``skip_probability`` injects per-round scheduling jitter: each stream
    independently stalls for a round with this probability.  Real cluster
    nodes are never in perfect lock-step, so a layout derived from arrival
    order (per-inode reservation) does not line up perfectly with a later
    read-back — the pace mismatch behind the paper's intra-file
    interference.  0 gives fully deterministic lock-step.

    Elapsed time is the busiest disk's busy time over the phase (disks work
    in parallel); bytes moved counts both reads and writes.
    """
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
    plane_write = plane.write
    plane_read = plane.read
    plane_fsync = plane.fsync
    plane_writev = plane.writev
    plane_readv = plane.readv
    submit = plane.array.submit_batch
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
