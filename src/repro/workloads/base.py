"""Operation records, the stream programs and the phase runners.

Workloads describe each client stream as a :class:`StreamProgram`: seeded
lazy iterators yielding data-plane :data:`Op` records back-to-back (the
closed-loop benchmarks have no think time).  A program built from a
factory re-derives its operations on every iteration and one built from
columns holds one int64 row per op.

The closed-loop runner below (:func:`run_data_phase`) executes lock-step
rounds: client threads are *synchronous* — each has one request
outstanding — and every round takes the next operation of each
still-active stream (the "order of arrival time" interleaving of Figure
1(a)).  It decodes a phase's programs to columns, draws the whole arrival
order once, and hands the data plane runs of operations rather than one op
at a time; the union of a round's physical requests reaches the disk array
as one concurrent batch for the elevator to arrange.  (The open-loop
service draws its own arrival columns: :mod:`repro.workloads.service`.)

Metadata workloads are send-based generators yielding :class:`MetaOp` /
:class:`MetaOpRun` records, run by :func:`drive`: the executor sends each
call's result back into the generator (a build reads ``readdir`` output
before deciding what to compile).
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.fs.dataplane import READ_BOOKS, DataPlane
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


@dataclass(frozen=True, slots=True)
class MetaOpRun:
    """A run of calls to one method whose results nobody reads: a bulk
    phase described once instead of one :class:`MetaOp` per call.

    ``argsets[i]`` is the i-th call's argument tuple.  The executor makes
    the calls in order (:meth:`~repro.meta.mds.MetadataServer.run_many`
    on an MDS) — nothing is validated ahead, so a call that raises does so
    with every earlier call applied — and answers (sends back) the number
    of calls made.
    """

    method: str
    argsets: list[tuple]


Op = WriteOp | ReadOp | FsyncOp | WritevOp | ReadvOp

#: Op kinds of a column program (:meth:`StreamProgram.from_columns`).
WRITE, READ = 0, 1
#: Decoded kind of everything else (list I/O, fsync): run one op at a time.
_SOLO = 2

#: A run of reads or writes is mapped ahead at most this many ops at a
#: time, which bounds the mapping's temporaries whatever the run's length.
RUN_OPS = 4096

#: :func:`meta_runs` holds at most this many argument tuples at a time,
#: whatever the phase's size.
META_RUN_OPS = 4096

#: :func:`schedule_arrivals` draws at most about this many (round, stream)
#: cells at a time, bounding the draw block whatever the phase's size.
SCHEDULE_CELLS = 1 << 16


def drive(
    gen: Generator[Any, Any, Any],
    execute: Callable[[MetaOp | MetaOpRun], Any],
) -> Any:
    """Run a send-based meta program to completion; returns its value.

    ``gen`` yields :class:`MetaOp` / :class:`MetaOpRun` records; each
    one's result is sent back into the generator, preserving the exact
    call order of the hand-rolled loops this protocol replaced.  The
    generator's ``return`` value (op count, handles, ...) is returned.
    """
    send = gen.send
    try:
        op = next(gen)
        while True:
            # This loop turns once per metadata op or run.
            op = send(execute(op))
    except StopIteration as stop:
        return stop.value


def mds_executor(mds: Any) -> Callable[[MetaOp | MetaOpRun], Any]:
    """Executor resolving :class:`MetaOp` / :class:`MetaOpRun` methods
    against ``mds``/``fs``; a run goes to the target's ``run_many`` when
    it has one."""
    run_many = getattr(mds, "run_many", None)

    def execute(op: MetaOp | MetaOpRun) -> Any:
        if type(op) is MetaOpRun:
            if run_many is not None:
                return run_many(op.method, op.argsets)
            call = getattr(mds, op.method)
            for args in op.argsets:
                call(*args)
            return len(op.argsets)
        return getattr(mds, op.method)(*op.args)

    return execute


def meta_runs(method: str, argsets: Iterable[tuple]) -> Generator[MetaOpRun, int, int]:
    """Send-based program calling ``method`` once per tuple of ``argsets``,
    in order, as :class:`MetaOpRun` records of at most :data:`META_RUN_OPS`
    calls; returns the number of calls made."""
    argsets = iter(argsets)
    count = 0
    while run := list(islice(argsets, META_RUN_OPS)):
        count += yield MetaOpRun(method, run)
    return count


@dataclass
class StreamProgram:
    """One client stream: a stream id plus its operation source.

    ``ops`` is a concrete iterable of ops (hand-built programs) or a
    zero-arg callable returning a fresh op iterator, called on every
    iteration, so the program holds nothing and can be consumed any number
    of times (write phase, read-back, equivalence tests).  The bundled
    closed-loop workloads build theirs :meth:`from_columns`: the columns
    are then the one description of the program — the closed-loop runner
    reads them directly, iteration derives the op objects from them.
    """

    stream: StreamId
    ops: Iterable[Op] | Callable[[], Iterator[Op]]
    #: ``(file, kinds, offsets, nbytes)`` of a :meth:`from_columns` program.
    columns: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_columns(
        cls, stream: StreamId, file: RedbudFile, kinds, offsets, nbytes
    ) -> "StreamProgram":
        """A program of writes and reads of ``file`` given as columns:
        ``offsets`` and ``nbytes`` one int64 row per op, ``kinds`` a column
        of :data:`WRITE` / :data:`READ` or one kind for every op."""
        offsets = np.asarray(offsets, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if offsets.ndim != 1 or offsets.shape != nbytes.shape:
            raise ValueError("offsets and nbytes must be 1-d columns of one length")
        kinds = np.broadcast_to(np.asarray(kinds, dtype=np.int64), offsets.shape)
        if ((kinds != WRITE) & (kinds != READ)).any():
            raise ValueError("column op kinds must be WRITE or READ")

        def ops() -> Iterator[Op]:
            for kind, offset, n in zip(kinds.tolist(), offsets.tolist(), nbytes.tolist()):
                yield ReadOp(file, offset, n) if kind else WriteOp(file, offset, n)

        return cls(stream, ops, (file, kinds, offsets, nbytes))

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops() if callable(self.ops) else self.ops)


def _decode(
    program: StreamProgram, files: dict[int, RedbudFile], others: list[Op]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``program`` as ``(kinds, file ids, offsets, nbytes)`` columns.

    A column program is read as is; anything else is iterated once.  Files
    are named by ``id()`` and collected in ``files``.  An op that is not a
    plain write or read gets kind :data:`_SOLO`, its byte count, and in the
    offset column its index in ``others``.
    """
    if program.columns is not None:
        f, kinds, offsets, nbytes = program.columns
        files[id(f)] = f
        return kinds, np.full(offsets.shape, id(f), dtype=np.int64), offsets, nbytes
    rows = []
    for op in program:
        files[id(op.file)] = op.file
        if type(op) is WriteOp or type(op) is ReadOp:
            rows.append((type(op) is ReadOp, id(op.file), op.offset, op.nbytes))
        else:
            rows.append((_SOLO, id(op.file), len(others), getattr(op, "nbytes", 0)))
            others.append(op)
    columns = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return columns[:, 0], columns[:, 1], columns[:, 2], columns[:, 3]


def schedule_arrivals(
    lengths: np.ndarray,
    skip_probability: float,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw a closed-loop phase's whole arrival order.

    Streams ``0..len(lengths)-1`` hold ``lengths[i]`` ops each and run in
    lock-step rounds: every round each live stream independently stalls
    with ``skip_probability`` (one ``rng.random(live streams)`` per round;
    ``rng=None`` means no jitter), otherwise issues its next op; a stream
    stays live — and keeps consuming a draw — until an unskipped round
    finds it empty, and leaves at the end of that round.  Returns
    ``(stream, op, round_ends)``: per arrival the stream index and that
    stream's op index, and per round the arrival count at its end.

    Rounds are drawn in blocks: no stream can be found empty before it had
    one more unskipped round than it has ops left, so that many rounds
    need exactly ``rounds * live`` draws.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    left = lengths.copy()
    live = np.arange(lengths.shape[0])
    empty = np.zeros(0, dtype=np.int64)
    streams, ops, ends = [empty], [empty], [empty]
    arrived = 0
    while live.shape[0]:
        n = live.shape[0]
        budget = left[live]
        rounds = min(int(budget.min()) + 1, SCHEDULE_CELLS // n + 1)
        if rng is None:
            awake = np.ones((rounds, n), dtype=bool)
        else:
            awake = rng.random((rounds, n)) >= skip_probability
        turn = np.cumsum(awake, axis=0)  # 1-based: a stream's k-th unskipped round
        row, col = np.nonzero(awake)  # round-major, streams in live order
        nth = turn[row, col] - 1
        issued = nth < budget[col]
        who = live[col[issued]]
        streams.append(who)
        ops.append(lengths[who] - left[who] + nth[issued])
        ends.append(arrived + np.cumsum(np.bincount(row[issued], minlength=rounds)))
        arrived = int(ends[-1][-1])
        left[live] -= np.minimum(turn[-1], budget)
        live = np.delete(live, col[~issued])
    return np.concatenate(streams), np.concatenate(ops), np.concatenate(ends)


def run_data_phase(
    plane: DataPlane,
    programs: list[StreamProgram],
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

    The phase is decoded to columns, scheduled (:func:`schedule_arrivals`)
    and then executed by run: the arrival order is cut into runs of one
    kind.  A run of writes is never mapped across a point where a submit
    can happen — allocator trace events are stamped with the array's
    clock, which moves at a submit — and a round end can submit only once
    a non-write has arrived (a read window may be ready) or the blocks
    spanned by the writes so far have reached ``write_buffer_blocks``
    (the dirty pool may be at its mark): a run of writes is cut at the
    round ends from that arrival on and at no round end before it, so a
    pure write phase under the mark is one run (mapped :data:`RUN_OPS` ops
    at a time).  A run of reads may span
    rounds: nothing mutates between its ops and read mapping emits
    nothing, so the whole run is mapped ahead and only its windows are
    submitted round by round.  Everything else (list I/O, fsync, ops the
    plane will reject) runs one op at a time.
    """
    if read_buffer_blocks <= 0 or write_buffer_blocks <= 0:
        raise ValueError("read/write buffer sizes must be positive")
    if not (0.0 <= skip_probability < 1.0):
        raise ValueError(f"skip_probability must be in [0, 1): {skip_probability}")
    rng: np.random.Generator | None = (
        derive_rng(seed, "phase-jitter") if skip_probability > 0.0 else None
    )
    plane.array.reset_timelines()
    start_elapsed = plane.array.elapsed_s
    submit = plane.array.submit_batch
    counters = plane.metrics.raw_counters()

    # Decode, then schedule: every column below is in arrival order.
    files: dict[int, RedbudFile] = {}
    others: list[Op] = []
    decoded = [_decode(p, files, others) for p in programs]
    lengths = np.array([d[0].shape[0] for d in decoded], dtype=np.int64)
    who, what, round_ends = schedule_arrivals(lengths, skip_probability, rng)
    n = who.shape[0]
    if n == 0:
        return ThroughputResult(bytes_moved=0, elapsed=0.0, ops=0)
    arrival = (np.cumsum(lengths) - lengths)[who] + what
    kinds, fids, offsets, nbytes = (np.concatenate(c)[arrival] for c in zip(*decoded))
    streams = [programs[i].stream for i in who.tolist()]
    op_files = [files[i] for i in fids.tolist()]
    # A read the plane will reject runs on its own, so that it raises after
    # everything that arrived before it took effect (as a write run does).
    live = {id(f) for f in plane.files()}
    doomed = (nbytes <= 0) | (offsets < 0) | np.isin(fids, [i for i in files if i not in live])
    code = np.where((kinds == READ) & doomed, _SOLO, kinds)
    at_round_end = np.zeros(n + 1, dtype=bool)
    at_round_end[round_ends] = True
    # A round end cuts a run of writes only where it could submit: a read
    # window needs a non-write to have arrived, the writeback the dirty pool
    # to reach its mark — and the pool holds at most the blocks spanned by
    # the writes mapped so far.
    spans = (offsets + nbytes - 1) // plane.block_size - offsets // plane.block_size + 1
    may_submit = np.logical_or.accumulate(code != WRITE) | (
        np.cumsum(spans) >= write_buffer_blocks
    )
    opens = np.ones(n, dtype=bool)
    opens[1:] = (
        (code[1:] != code[:-1])
        | (code[1:] == _SOLO)
        | ((code[1:] == WRITE) & at_round_end[1:n] & may_submit[:-1])
    )
    heads = np.flatnonzero(opens)
    at_round_end = at_round_end.tolist()

    dirty_starts: list[int] = []
    dirty_nblocks: list[int] = []
    dirty_blocks = 0
    # Readahead windows by stream id (two programs with one id share one),
    # each [request starts, request lengths, blocks held].
    windows: dict[StreamId, list] = {}
    ready_starts: list[int] = []
    ready_nblocks: list[int] = []

    def read_ahead(stream: StreamId, starts: list[int], nblocks: list[int]) -> None:
        window = windows.get(stream)
        if window is None:
            window = windows[stream] = [[], [], 0]
        window[0].extend(starts)
        window[1].extend(nblocks)
        window[2] += sum(nblocks)
        if window[2] >= read_buffer_blocks:
            ready_starts.extend(window[0])
            ready_nblocks.extend(window[1])
            window[:] = [], [], 0

    def write_back() -> None:
        nonlocal dirty_blocks
        starts = np.array(dirty_starts, dtype=np.int64)
        order = np.argsort(starts, kind="stable")
        submit(starts[order], np.array(dirty_nblocks, dtype=np.int64)[order], True)
        dirty_starts.clear()
        dirty_nblocks.clear()
        dirty_blocks = 0

    def map_reads(lo: int, hi: int) -> tuple:
        """Map reads ``lo:hi`` by file: each op's first/last request row, the rows."""
        run_files = fids[lo:hi]
        first = np.empty(hi - lo, dtype=np.int64)
        last = np.empty(hi - lo, dtype=np.int64)
        starts: list[int] = []
        nblocks: list[int] = []
        for j in np.unique(run_files).tolist():
            pick = np.flatnonzero(run_files == j)
            bounds, s, nb = plane.read_many(files[j], offsets[lo:hi][pick], nbytes[lo:hi][pick])
            first[pick] = bounds[:-1] + len(starts)
            last[pick] = bounds[1:] + len(starts)
            starts.extend(s.tolist())
            nblocks.extend(nb.tolist())
        return first, last, starts, nblocks

    def end_round() -> None:
        if ready_starts:
            submit(
                np.array(ready_starts, dtype=np.int64),
                np.array(ready_nblocks, dtype=np.int64),
                False,
            )
            ready_starts.clear()
            ready_nblocks.clear()
        if dirty_blocks >= write_buffer_blocks:
            write_back()

    for a, b, kind in zip(
        heads.tolist(), np.append(heads[1:], n).tolist(), code[heads].tolist()
    ):
        if kind == WRITE:
            mapped = len(dirty_nblocks)
            for at in range(a, b, RUN_OPS):
                upto = min(at + RUN_OPS, b)
                plane.write_many(
                    op_files[at:upto], streams[at:upto], offsets[at:upto], nbytes[at:upto],
                    dirty_starts, dirty_nblocks,
                )
            dirty_blocks += sum(dirty_nblocks[mapped:])
            if at_round_end[b]:
                end_round()
        elif kind == READ:
            # Map the run ahead (RUN_OPS at a time, file by file), fill
            # windows in arrival order, submit the full ones round by round.
            for at in range(a, b, RUN_OPS):
                upto = min(at + RUN_OPS, b)
                booked = {k: counters[k] for k in READ_BOOKS if k in counters}
                first, last, starts, nblocks = map_reads(at, upto)
                try:
                    ops = zip(streams[at:upto], first.tolist(), last.tolist())
                    for i, (stream, lo, hi) in enumerate(ops, at + 1):
                        read_ahead(stream, starts[lo:hi], nblocks[lo:hi])
                        if at_round_end[i]:
                            end_round()
                except ReproError:
                    # The round loop had mapped, and booked, only the reads
                    # up to the round end whose submit raised: book those.
                    for k in READ_BOOKS:
                        counters.pop(k, None)
                    counters.update(booked)
                    map_reads(at, i)
                    raise
        else:
            # List I/O, fsync and reads the plane will reject: one op at a
            # time through the plane's per-op API.
            for i in range(a, b):
                f, stream = op_files[i], streams[i]
                op = others[offsets[i]] if kinds[i] == _SOLO else None
                if op is None or type(op) is ReadvOp:
                    if op is None:
                        starts, nblocks = plane.read(f, int(offsets[i]), int(nbytes[i]))
                    else:
                        starts, nblocks = plane.readv(f, list(op.regions))
                    read_ahead(stream, starts.tolist(), nblocks.tolist())
                else:
                    if type(op) is WritevOp:
                        starts, nblocks = plane.writev(f, stream, list(op.regions))
                    elif type(op) is FsyncOp:
                        starts, nblocks = plane.fsync(f)
                    else:  # pragma: no cover - exhaustive over Op
                        raise TypeError(f"unknown op: {op!r}")
                    dirty_starts.extend(starts.tolist())
                    dirty_nblocks.extend(nblocks.tolist())
                    dirty_blocks += int(nblocks.sum())
                if at_round_end[i + 1]:
                    end_round()
    # Phase end: remaining readahead windows (in first-read order), then
    # the final writeback.
    for window in windows.values():
        ready_starts.extend(window[0])
        ready_nblocks.extend(window[1])
    end_round()
    if dirty_starts:
        write_back()
    return ThroughputResult(
        bytes_moved=int(nbytes.sum()),
        elapsed=plane.array.elapsed_s - start_elapsed,
        ops=n,
    )
