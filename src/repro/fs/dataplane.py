"""Data plane: striped, extent-mapped files over PAGs and a disk array.

The plane performs the *mapping* half of every data operation — allocation
policy calls, extent-map updates — and returns the physical
:class:`~repro.disk.model.BlockRequest` lists for the caller to time against
the disk array.  Separating mapping from timing keeps both halves
independently testable and lets experiment runners batch concurrent streams'
requests the way an I/O scheduler would see them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import islice, repeat
from operator import attrgetter

import numpy as np

from repro.alloc.base import AllocTarget, PhysicalRun
from repro.alloc.registry import make_policy
from repro.block.extent import Extent, ExtentFlags
from repro.block.freespace import FreeSpaceManager
from repro.config import FSConfig
from repro.disk.array import DiskArray
from repro.disk.model import BlockRequest
from repro.errors import ConfigError, ReproError
from repro.fs.file import RedbudFile
from repro.fs.stream import StreamId
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics
from repro.units import block_span, bytes_to_blocks

#: :meth:`DataPlane.read_many` and :meth:`DataPlane.write_many` map a run
#: of at least this many ops by column; a shorter run loops the scalar
#: mapping (gathering an extent map's columns costs O(extents) per run,
#: whatever the run's length).
MANY_FROM = 32
#: The counters that mapping reads books (``DataPlane.read`` / ``read_many``).
READ_BOOKS = ("fs.reads", "fs.bytes_read", "fs.coalesced_requests")

_LOGICAL = attrgetter("logical")
_LENGTH = attrgetter("length")


def _runs_of(keys: np.ndarray) -> Iterable[tuple[int, int]]:
    """``(start, end)`` of every run of equal consecutive ``keys``."""
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    return zip([0, *cuts], [*cuts, keys.shape[0]])


class DataPlane:
    """File data path: create/write/read/fsync/delete over striped PAGs."""

    def __init__(
        self,
        config: FSConfig,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Untimed layers (allocator, free space) stamp events with the
        # array's elapsed time; an already-bound clock wins.
        self.tracer.bind_clock(lambda: self.array.elapsed_s)
        self.array = DiskArray(
            config.ndisks, config.disk, config.scheduler, self.metrics, self.tracer
        )
        self.fsm = FreeSpaceManager(
            config.ndisks,
            config.disk.capacity_blocks,
            config.pags_per_disk,
            self.metrics,
            self.tracer,
        )
        self.policy = make_policy(config.alloc, self.fsm, self.metrics, self.tracer)
        self._files: dict[int, RedbudFile] = {}
        # AllocTargets by (stripe_blocks, *layout): files share a handful
        # of rotations, so they share their per-slot targets.
        self._targets: dict[tuple[int, ...], list[AllocTarget]] = {}
        self._next_file_id = 1
        # Per-op counter bumps inline on this mapping (see
        # Metrics.raw_counters); it survives Metrics.reset().
        self._counters = self.metrics.raw_counters()
        # Lazily-bound fs.extent_blocks histogram (one observe per inserted
        # run); bound on first use so an idle plane leaves no empty
        # histogram behind.
        self._extent_hist = None

    @property
    def block_size(self) -> int:
        return self.config.disk.block_size

    # -- lifecycle -----------------------------------------------------------
    def create_file(
        self,
        name: str,
        expected_bytes: int | None = None,
        width: int | None = None,
    ) -> RedbudFile:
        """Create a file striped over ``width`` disks (default: all).

        Under the static policy a declared ``expected_bytes`` is fallocated
        immediately, exactly like the paper's "static preallocation" mode.
        """
        file_id = self._next_file_id
        self._next_file_id += 1
        w = self.config.ndisks if width is None else width
        if not (1 <= w <= self.config.ndisks):
            raise ConfigError(f"stripe width out of range: {w}")
        first_disk = file_id % self.config.ndisks
        pag_rotor = file_id % self.config.pags_per_disk
        layout = [
            ((first_disk + j) % self.config.ndisks) * self.config.pags_per_disk + pag_rotor
            for j in range(w)
        ]
        f = RedbudFile(
            file_id=file_id,
            name=name,
            layout=layout,
            stripe_blocks=self.config.stripe_blocks,
            expected_bytes=expected_bytes,
        )
        self._files[file_id] = f
        self.metrics.incr("fs.files_created")
        if expected_bytes is not None:
            # Policies without persistent whole-file preallocation return
            # no runs from prepare(), making this a no-op for them.
            self.fallocate(f, expected_bytes)
        return f

    def fallocate(self, f: RedbudFile, nbytes: int) -> None:
        """Persistently preallocate ``nbytes`` (only meaningful for policies
        implementing :meth:`~repro.alloc.base.AllocationPolicy.prepare`)."""
        self._check_live(f)
        total_blocks = bytes_to_blocks(nbytes, self.block_size)
        for slot in range(f.width):
            dlocal_blocks = self._slot_share(f, total_blocks, slot)
            if dlocal_blocks == 0:
                continue
            runs = self.policy.prepare(f.file_id, self._targets_of(f)[slot], dlocal_blocks)
            for run in runs:
                f.maps[slot].insert(
                    Extent(run.dlocal, run.physical, run.length, ExtentFlags.UNWRITTEN)
                )

    def delete_file(self, f: RedbudFile) -> None:
        """Free all mapped blocks and drop reservations."""
        self._check_live(f)
        self.policy.on_delete(f.file_id)
        for m in f.maps:
            for ext in m.clear():
                self.fsm.free(ext.physical, ext.length)
        f.deleted = True
        del self._files[f.file_id]
        self.metrics.incr("fs.files_deleted")

    def close_file(self, f: RedbudFile) -> list[BlockRequest]:
        """Release temporary reservations; flush delayed writes."""
        self._check_live(f)
        requests = self.fsync(f)
        self.policy.release(f.file_id)
        return requests

    # -- I/O ----------------------------------------------------------------
    def _check_range(self, offset: int, nbytes: int, op: str) -> None:
        """Unified request-range validation for all four data operations.

        Every rejected range raises :class:`~repro.errors.ReproError` (the
        read path historically raised ``ValueError`` for negative offsets
        while zero-length requests raised ``ReproError``; callers now catch
        one type).
        """
        if nbytes <= 0:
            raise ReproError(f"{op} of {nbytes} bytes")
        if offset < 0:
            raise ReproError(f"negative {op} range: offset={offset} length={nbytes}")

    def write(
        self, f: RedbudFile, stream: StreamId, offset: int, nbytes: int
    ) -> list[BlockRequest]:
        """Map a write and return its physical requests.

        Under delayed allocation an extending write may return no requests
        (data buffered); :meth:`fsync` materializes it.
        """
        starts: list[int] = []
        nblocks: list[int] = []
        self._write_ops((f,), (stream,), (offset,), (nbytes,), starts, nblocks, "write")
        return [BlockRequest(s, n, True) for s, n in zip(starts, nblocks)]

    def write_many(
        self,
        files: Sequence[RedbudFile],
        streams: Sequence[StreamId],
        offsets: np.ndarray,
        nbytes: np.ndarray,
        out_starts: list[int],
        out_nblocks: list[int],
    ) -> None:
        """The in-order loop of :meth:`write` over a run of operations held
        as columns (one file, stream, offset and byte count per op).

        Same extents, allocator calls in the same order and metrics as that
        loop; each op's coalesced physical requests append onto
        ``out_starts`` / ``out_nblocks`` as plain ints (no
        :class:`BlockRequest` exists), and the per-op counters and file
        sizes are booked once per run.  A bad range or
        :class:`~repro.errors.NoSpaceError` at op ``k`` surfaces after the
        ops before it took effect and were booked.

        Only the allocator calls depend on the ops' order, so a run of
        :data:`MANY_FROM` ops or more is mapped by column
        (:meth:`_map_write_columns`): the extent-map work between the calls
        is done once per run.  The caller decides how far a run may reach
        (:func:`~repro.workloads.base.run_data_phase`: never across a point
        where a submit can happen); shorter runs, and copy-on-write
        policies, loop the scalar mapping.
        """
        if offsets.shape[0] >= MANY_FROM and not self.policy.cow:
            self._map_write_columns(files, streams, offsets, nbytes, out_starts, out_nblocks)
        else:
            self._write_ops(
                files, streams, offsets.tolist(), nbytes.tolist(),
                out_starts, out_nblocks, "write",
            )

    def writev(
        self,
        f: RedbudFile,
        stream: StreamId,
        regions: list[tuple[int, int]],
    ) -> list[BlockRequest]:
        """Map one scatter-gather write over ``(offset, nbytes)`` regions.

        Equivalent to the in-order loop of scalar :meth:`write` calls —
        same extents, same allocation decisions, same per-byte metrics —
        but the whole region list feeds one coalescing pass, so physically
        adjacent runs coalesce *across* non-adjacent logical regions and
        the caller submits a single batch.
        """
        self._check_live(f)
        if not regions:
            raise ReproError("writev of an empty region list")
        for offset, nbytes in regions:
            self._check_range(offset, nbytes, "writev")
        starts: list[int] = []
        nblocks: list[int] = []
        n = len(regions)
        self._write_ops(
            repeat(f, n), repeat(stream, n), *zip(*regions), starts, nblocks, "writev"
        )
        counters = self._counters
        counters["fs.listio_writes"] += 1
        counters["fs.listio_regions"] += n
        return [BlockRequest(s, n, True) for s, n in zip(starts, nblocks)]

    def _write_ops(
        self,
        files: Iterable[RedbudFile],
        streams: Iterable[StreamId],
        offsets: Iterable[int],
        nbytes: Iterable[int],
        out_starts: list[int],
        out_nblocks: list[int],
        op: str,
    ) -> bool:
        """The write mapping core behind :meth:`write`, :meth:`write_many`
        and :meth:`writev`: maps the ops in order and appends their
        coalesced ``(start, nblocks)`` requests as plain ints.  Returns
        whether the policy preallocated (mapped unwritten blocks) beside a
        hole it was asked to back.

        The common cases are short-circuited.  A segment appended past
        its slot's EOF is one whole hole, so the hole scan, the unwritten
        conversion and the post-allocation range lookup are all skipped —
        the policy's written runs *are* the written blocks; so they are
        when the scan finds one whole hole and the policy backs it with one
        run.  ``op="writev"`` coalesces the ops' runs in one pass (one list
        request), anything else per op.
        Counters and file sizes are booked once, for the ops that took
        effect, also when one of them raises.
        """
        gather = op == "writev"
        bs = self.block_size
        policy = self.policy
        cow = policy.cow
        allocate = policy.allocate
        insert_runs = self._insert_runs
        emit = self._emit_rows
        f = None
        # Per-file facts, remembered when the run leaves a file for another.
        facts: dict[int, tuple] = {}
        runs: list[tuple[int, int]] = []
        done = total = nbuffered = end_max = 0
        strayed = False
        try:
            for g, stream, offset, n in zip(files, streams, offsets, nbytes):
                if g is not f:
                    if f is not None:
                        if end_max > f.size_bytes:
                            f.size_bytes = end_max
                        facts[id(f)] = (maps, file_id, sb, width, targets)
                    fact = facts.get(id(g)) if facts else None
                    f = g
                    end_max = 0
                    if fact is None:
                        self._check_live(g)
                        maps = g.maps
                        file_id = g.file_id
                        sb = g.stripe_blocks
                        width = g.width
                        targets = self._targets_of(g)
                    else:
                        maps, file_id, sb, width, targets = fact
                if n <= 0 or offset < 0:
                    self._check_range(offset, n, op)
                lb = offset // bs
                nb = (offset + n - 1) // bs - lb + 1
                stripe, off = divmod(lb, sb)
                if off + nb <= sb:  # inside one stripe unit, the common case
                    segments = ((stripe % width, (stripe // width) * sb + off, nb),)
                else:
                    segments = self._segments(f, lb, nb)
                buffered = 0
                for slot, dstart, dcount in segments:
                    smap = maps[slot]
                    if not cow and dstart >= smap.size_blocks:
                        new = allocate(file_id, stream, targets[slot], dstart, dcount)
                        if not new:
                            buffered += 1  # delayed allocation
                            continue
                        if insert_runs(smap, new):
                            strayed = True
                        for run in new:
                            if not run.unwritten:
                                runs.append((run.physical, run.length))
                        continue
                    if cow:
                        for ext in smap.remove_range(dstart, dcount):
                            self.fsm.free(ext.physical, ext.length)
                            self.metrics.incr("fs.cow_relocated_blocks", ext.length)
                    holes, has_unwritten, written = smap.scan_write_range(dstart, dcount)
                    if has_unwritten:
                        smap.mark_written(dstart, dcount)
                    missed = False
                    for h_start, h_count in holes:
                        new = allocate(file_id, stream, targets[slot], h_start, h_count)
                        if not new:
                            missed = True
                            continue
                        if insert_runs(smap, new):
                            strayed = True
                    if written is None:
                        if (
                            holes
                            and holes[0][1] == dcount
                            and len(new) == 1
                            and new[0].length == dcount
                            and not new[0].unwritten
                        ):
                            # One whole hole backed by one run.
                            written = ((new[0].physical, dcount),)
                        else:
                            written = smap.physical_runs(dstart, dcount)
                    runs.extend(written)
                    if missed:
                        buffered += 1
                nbuffered += buffered
                if not gather:
                    emit(runs, out_starts, out_nblocks)
                    runs = []
                done += 1
                total += n
                if offset + n > end_max:
                    end_max = offset + n
            if gather:
                emit(runs, out_starts, out_nblocks)
        finally:
            if f is not None and end_max > f.size_bytes:
                f.size_bytes = end_max
            counters = self._counters
            if nbuffered:
                counters["fs.buffered_writes"] += nbuffered
            if done:
                counters["fs.writes"] += done
                counters["fs.bytes_written"] += total
        return strayed

    def _map_write_columns(
        self,
        files: Sequence[RedbudFile],
        streams: Sequence[StreamId],
        offsets: np.ndarray,
        nbytes: np.ndarray,
        out_starts: list[int],
        out_nblocks: list[int],
    ) -> None:
        """Column form of :meth:`_write_ops` over a run of plain writes.

        Stripe / slot / dlocal are array arithmetic, one row per op and
        stripe unit, and every extent map's rows are classified once
        against the map as it stands before the run
        (:meth:`_independent_rows`).  Then one loop in arrival order: the
        rows that are whole holes no other row touches go to
        ``policy.allocate_many`` a stretch at a time, and the call stops
        only at a row not backed by exactly one written run (buffered,
        preallocated beside, or split).  Their runs wait among the
        pending rows, which reach the maps through
        :meth:`ExtentMap.insert_many` and the output through
        :meth:`_request_heads`.  Any other op (overwrite, partial hole,
        unwritten preallocation, overlap inside the run, two rows on one
        map) takes :meth:`_write_ops` after the pending rows were folded
        in; and once the policy maps blocks beside a hole it was asked to
        back, the classification is void and so does the rest of the run.
        """
        n = offsets.shape[0]
        ids = np.fromiter(map(id, files), np.int64, n)
        _, first, fidx = np.unique(ids, return_index=True, return_inverse=True)
        run_files = [files[i] for i in first.tolist()]
        if ((nbytes <= 0) | (offsets < 0)).any() or any(
            f.deleted or f.file_id not in self._files for f in run_files
        ):
            # The scalar loop raises at the op it rejects, after the ops
            # before it took effect.
            self._write_ops(
                files, streams, offsets.tolist(), nbytes.tolist(),
                out_starts, out_nblocks, "write",
            )
            return

        widths = np.array([f.width for f in run_files], dtype=np.int64)
        units, op, group, dstart, dcount = self._write_rows(
            np.array([f.stripe_blocks for f in run_files], dtype=np.int64)[fidx],
            widths[fidx], (np.cumsum(widths) - widths)[fidx], offsets, nbytes,
        )
        # A group is one extent map: (file, slot).
        g_maps = [m for f in run_files for m in f.maps]
        g_targets = [t for f in run_files for t in self._targets_of(f)]
        g_file = [f.file_id for f in run_files for _ in f.maps]
        # The column loop takes an op whose rows are all independent and sit
        # on different maps (so what the policy does for one row cannot
        # reach the op's other rows).
        by_column = (units <= widths[fidx]) & (
            np.bincount(
                op[~self._independent_rows(g_maps, group, dstart, dcount)], minlength=n
            ) == 0
        )

        grp = group.tolist()
        row_at = [0, *np.cumsum(units).tolist()]
        starts, counts = dstart.tolist(), dcount.tolist()
        args = (  # allocate_many's argument columns, one entry per row
            [g_file[g] for g in grp],
            streams if op.shape[0] == n else [streams[j] for j in op.tolist()],
            [g_targets[g] for g in grp],
            starts,
            counts,
        )
        allocate_many = self.policy.allocate_many
        # Pending written runs (row, dlocal, physical, length), pending
        # unwritten ones (group, dlocal, physical, length), buffered rows.
        w_row: list[int] = []
        w_dlocal: list[int] = []
        w_phys: list[int] = []
        w_len: list[int] = []
        extras: list[tuple[int, int, int, int]] = []
        buffered: list[int] = []
        took = np.zeros(n, dtype=bool)
        phys: list[int] = []  # the rows allocate_many answers exactly

        def answered(lo: int) -> int:
            """Pend the rows answered from ``lo`` on; return the stop row."""
            i = lo + len(phys)
            w_row.extend(range(lo, i))
            w_dlocal.extend(starts[lo:i])
            w_phys.extend(phys)
            w_len.extend(counts[lo:i])
            del phys[:]
            return i

        def fold(stop: int) -> None:
            """Pending rows into their maps, and the written runs of the
            ops before ``stop`` out as coalesced requests."""
            if not (w_row or extras):
                return
            row = np.array(w_row, dtype=np.int64)
            table = np.empty((row.shape[0] + len(extras), 4), dtype=np.int64)
            table[: row.shape[0], 0] = w_dlocal
            table[: row.shape[0], 1] = w_phys
            table[: row.shape[0], 2] = w_len
            table[:, 3] = 0
            maps = group[row]
            if extras:
                maps = np.append(maps, [x[0] for x in extras])
                table[row.shape[0] :, :3] = [x[1:] for x in extras]
                table[row.shape[0] :, 3] = 1
            del w_row[:], w_dlocal[:], w_phys[:], w_len[:], extras[:]
            owner = op[row]
            upto = int(np.searchsorted(owner, stop))
            if upto:
                self._emit_written(
                    owner[:upto], row[:upto], dstart[row[:upto]], maps[:upto],
                    *table[:upto, :3].T, g_maps, out_starts, out_nblocks,
                )
            self._extent_histogram().observe_array(table[:, 2])
            order = np.argsort(maps, kind="stable")
            for a, b in _runs_of(maps[order]):
                smap = g_maps[maps[order[a]]]
                rows = table[order[a:b]]
                if b - a < MANY_FROM:
                    for extent in rows.tolist():
                        smap.insert(Extent(*extent))
                else:
                    smap.insert_many(rows)

        column_from = -1  # first op of the column stretch under way
        try:
            for a, b in _runs_of(by_column):
                if not by_column[a]:
                    fold(n)
                    strayed = self._write_ops(
                        files[a:b], streams[a:b], offsets[a:b].tolist(), nbytes[a:b].tolist(),
                        out_starts, out_nblocks, "write",
                    )
                else:
                    strayed = False
                    lo, hi = row_at[a], row_at[b]
                    # Each call resumes after the row the last one stopped at.
                    cols = [iter(c[lo:hi]) for c in args]
                    column_from = a
                    while lo < hi:
                        new = allocate_many(*cols, phys)
                        i = answered(lo)
                        if new is None:
                            break
                        lo = i + 1
                        if not new:
                            buffered.append(i)  # delayed allocation
                            continue
                        ds, dc = starts[i], counts[i]
                        for run in new:
                            if run.unwritten:
                                extras.append((grp[i], run.dlocal, run.physical, run.length))
                                strayed = True
                            else:
                                w_row.append(i)
                                w_dlocal.append(run.dlocal)
                                w_phys.append(run.physical)
                                w_len.append(run.length)
                                if run.dlocal < ds or run.dlocal + run.length > ds + dc:
                                    strayed = True
                        if strayed and hi > row_at[op[i] + 1]:
                            # The op's other rows sit on other maps: finish it.
                            hi = row_at[op[i] + 1]
                            cols = [islice(c, hi - lo) for c in cols]
                    column_from = -1
                    if strayed:
                        b = int(op[hi - 1]) + 1
                    took[a:b] = True
                if strayed and b < n:
                    fold(n)
                    self._write_ops(
                        files[b:], streams[b:], offsets[b:].tolist(), nbytes[b:].tolist(),
                        out_starts, out_nblocks, "write",
                    )
                    break
        finally:
            stop = n
            if column_from >= 0:
                # allocate_many raised: the ops before the row's took effect.
                stop = int(op[answered(lo)])
                took[column_from:stop] = True
            fold(stop)
            counters = self._counters
            if buffered:
                nbuffered = int((op[buffered] < stop).sum())
                if nbuffered:
                    counters["fs.buffered_writes"] += nbuffered
            done = int(took.sum())
            if done:
                counters["fs.writes"] += done
                counters["fs.bytes_written"] += int(nbytes[took].sum())
                top = np.zeros(len(run_files), dtype=np.int64)
                np.maximum.at(top, fidx[took], (offsets + nbytes)[took])
                for f, size in zip(run_files, top.tolist()):
                    if size > f.size_bytes:
                        f.size_bytes = size

    def _write_rows(
        self,
        sb: np.ndarray,
        width: np.ndarray,
        base: np.ndarray,
        offsets: np.ndarray,
        nbytes: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """The allocation segments of a run of writes as rows: per op its
        row count, and per row (in op, then stripe-unit order) its op, its
        group ``base + slot``, ``dstart`` and ``dcount`` — ``sb``,
        ``width`` and ``base`` being each op's file's stripe unit, width
        and first group."""
        bs = self.block_size
        lb = offsets // bs
        end = (offsets + nbytes - 1) // bs + 1
        first = lb // sb
        # One row per op and stripe unit; a width-1 file's units are one
        # dlocal-contiguous segment (:meth:`_segments`): one row.
        units = np.where(width == 1, 1, (end - 1) // sb - first + 1)
        op = np.repeat(np.arange(offsets.shape[0]), units)
        stripe = np.arange(op.shape[0]) + (first - (np.cumsum(units) - units))[op]
        sb, width, end = sb[op], width[op], end[op]
        lo = np.maximum(lb[op], stripe * sb)
        dcount = np.where(width == 1, end, np.minimum(end, (stripe + 1) * sb)) - lo
        dstart = (stripe // width) * sb + (lo - stripe * sb)
        return units, op, base[op] + stripe % width, dstart, dcount

    @staticmethod
    def _independent_rows(
        maps: list, group: np.ndarray, dstart: np.ndarray, dcount: np.ndarray
    ) -> np.ndarray:
        """Which rows ``[dstart, dstart+dcount)`` of extent map
        ``maps[group]`` a write run can map in any order: those overlapping
        no other row of their map that are one whole hole of it."""
        order = np.lexsort((dstart, group))
        g, lo = group[order], dstart[order]
        hi = lo + dcount[order]
        # Keyed by group, one comparison serves every map at once: sorted by
        # start, a row overlaps an earlier one iff it starts below the
        # furthest end so far, a later one iff the next row starts inside it.
        span = int(hi.max()) + 1
        key_lo, key_hi = g * span + lo, g * span + hi
        free = np.ones(g.shape[0], dtype=bool)
        free[1:] = key_lo[1:] >= np.maximum.accumulate(key_hi)[:-1]
        free[:-1] &= key_lo[1:] >= key_hi[:-1]
        for a, b in _runs_of(g):
            smap = maps[g[a]]
            if lo[a] >= smap.size_blocks:
                continue  # every row lies past the map's end
            m = len(smap)
            starts = np.fromiter(map(_LOGICAL, smap), np.int64, m)
            ends = starts + np.fromiter(map(_LENGTH, smap), np.int64, m)
            # The first extent ending past a row's start is the only one
            # that can reach into it.
            reach = np.append(starts, span)[np.searchsorted(ends, lo[a:b], side="right")]
            free[a:b] &= reach >= hi[a:b]
        out = np.empty_like(free)
        out[order] = free
        return out

    def _emit_written(
        self,
        owner: np.ndarray,
        row: np.ndarray,
        row_start: np.ndarray,
        group: np.ndarray,
        dlocal: np.ndarray,
        phys: np.ndarray,
        length: np.ndarray,
        maps: list,
        out_starts: list[int],
        out_nblocks: list[int],
    ) -> None:
        """Append the pending written runs (in arrival order, not yet in
        their maps) as each op's coalesced requests.

        Runs of one row that continue each other are one extent.  The
        scalar mapping takes the policy's runs as they come for a row at or
        past its map's end — the merge counts as coalescing — and re-reads
        any other row from the map, where they are merged already.
        """
        same = (
            (row[1:] == row[:-1])
            & (dlocal[1:] == dlocal[:-1] + length[:-1])
            & (phys[1:] == phys[:-1] + length[:-1])
        )
        if same.any():
            # A map's end when a row was mapped: its size now, or the
            # furthest end among the rows pending on it from before.
            span = int((dlocal + length).max()) + 1
            order = np.argsort(group, kind="stable")
            before = np.zeros_like(dlocal)
            before[order[1:]] = np.maximum.accumulate((group * span + dlocal + length)[order])[:-1]
            size = np.array([m.size_blocks for m in maps], dtype=np.int64)
            map_end = np.maximum(before - group * span, size[group])
            head = np.maximum.accumulate(
                np.where(np.append(True, row[1:] != row[:-1]), np.arange(row.shape[0]), 0)
            )
            keep = np.append(True, ~(same & (row_start < map_end[head])[1:]))
            heads = np.flatnonzero(keep)
            owner, phys, length = owner[heads], phys[heads], np.add.reduceat(length, heads)
        heads = self._request_heads(owner, phys, length)
        out_starts.extend(phys[heads].tolist())
        out_nblocks.extend(np.add.reduceat(length, heads).tolist())

    def read(self, f: RedbudFile, offset: int, nbytes: int) -> list[BlockRequest]:
        """Map a read and return its physical requests (holes read as zeros
        and cost nothing)."""
        starts: list[int] = []
        nblocks: list[int] = []
        self._read_ops(f, (offset,), (nbytes,), starts, nblocks, "read")
        return [BlockRequest(s, n, False) for s, n in zip(starts, nblocks)]

    def _read_ops(
        self,
        f: RedbudFile,
        offsets: Sequence[int],
        nbytes: Sequence[int],
        out_starts: list[int],
        out_nblocks: list[int],
        op: str,
        bounds: list[int] | None = None,
    ) -> None:
        """The scalar read mapping core behind :meth:`read`, :meth:`readv`
        and short :meth:`read_many` runs: validates every range, then maps
        the reads of ``f`` in order, appending their coalesced ``(start,
        nblocks)`` requests as plain ints (and, per read, the row count so
        far onto ``bounds``).  ``op="readv"`` coalesces all the reads' runs
        in one pass (one list request), anything else per read.
        """
        self._check_live(f)
        for offset, n in zip(offsets, nbytes):
            self._check_range(offset, n, op)
        runs: list[tuple[int, int]] = []
        for offset, n in zip(offsets, nbytes):
            lb, nb = block_span(offset, n, self.block_size)
            for slot, dstart, dcount in self._segments(f, lb, nb):
                runs.extend(f.maps[slot].physical_runs(dstart, dcount))
            if op != "readv":
                self._emit_rows(runs, out_starts, out_nblocks)
                runs = []
            if bounds is not None:
                bounds.append(len(out_starts))
        self._emit_rows(runs, out_starts, out_nblocks)
        if offsets:
            counters = self._counters
            counters["fs.reads"] += len(offsets)
            counters["fs.bytes_read"] += sum(nbytes)

    def read_many(
        self, f: RedbudFile, offsets: np.ndarray, nbytes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The in-order loop of :meth:`read` over a run of reads of ``f``
        held as int64 columns: ``(bounds, starts, nblocks)``, op ``i``
        owning request rows ``bounds[i]:bounds[i+1]``.

        Nothing mutates between the ops of a read run, so all of them map
        against the same extent maps: stripe/slot/dlocal are array
        arithmetic (one row per op and stripe unit), each slot's map is
        consulted once (:meth:`ExtentMap.physical_runs_many`) and
        :meth:`_emit_rows`' coalescing is a boundary mask.  Runs shorter
        than :data:`MANY_FROM` loop the scalar mapping.
        A bad range at op ``k`` surfaces after the ops before it were booked.
        """
        bad = (nbytes <= 0) | (offsets < 0)
        if bad.any():
            k = int(np.argmax(bad))
            self.read_many(f, offsets[:k], nbytes[:k])
            self._check_range(int(offsets[k]), int(nbytes[k]), "read")
        n = offsets.shape[0]
        if n >= MANY_FROM:
            self._check_live(f)
            counters = self._counters
            counters["fs.reads"] += n
            counters["fs.bytes_read"] += int(nbytes.sum())
            return self._map_read_columns(f, offsets, nbytes)
        starts: list[int] = []
        nblocks: list[int] = []
        bounds = [0]
        self._read_ops(f, offsets.tolist(), nbytes.tolist(), starts, nblocks, "read", bounds)
        return (
            np.array(bounds, dtype=np.int64),
            np.array(starts, dtype=np.int64),
            np.array(nblocks, dtype=np.int64),
        )

    def _map_read_columns(
        self, f: RedbudFile, offsets: np.ndarray, nbytes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column form of :meth:`_read_ops`' mapping loop."""
        n = offsets.shape[0]
        bs = self.block_size
        sb = f.stripe_blocks
        width = f.width
        lb = offsets // bs
        end = (offsets + nbytes - 1) // bs + 1
        if width == 1:
            # _segments groups a width-1 file's stripe units: dlocal == logical.
            op = np.arange(n)
            slot = None
            dstart, dcount = lb, end - lb
        else:
            # One row per op and stripe unit it touches.
            first = lb // sb
            units = (end - 1) // sb - first + 1
            op = np.repeat(np.arange(n), units)
            stripe = np.arange(op.shape[0]) + np.repeat(
                first - (np.cumsum(units) - units), units
            )
            lo = np.maximum(lb[op], stripe * sb)
            dcount = np.minimum(end[op], (stripe + 1) * sb) - lo
            slot = stripe % width
            dstart = (stripe // width) * sb + (lo - stripe * sb)
        # Each slot's map answers its rows at once; a stable sort by row
        # puts the per-slot answers back in (op, stripe unit) order.
        rows, phys, length = [], [], []
        for s in range(width):
            idx = np.arange(n) if slot is None else np.flatnonzero(slot == s)
            if idx.shape[0] == 0:
                continue
            bounds, p, ln = f.maps[s].physical_runs_many(dstart[idx], dcount[idx])
            rows.append(np.repeat(idx, np.diff(bounds)))
            phys.append(p)
            length.append(ln)
        row = np.concatenate(rows)
        order = np.argsort(row, kind="stable")
        owner = op[row[order]]
        phys = np.concatenate(phys)[order]
        length = np.concatenate(length)[order]
        if phys.shape[0] == 0:
            return np.zeros(n + 1, dtype=np.int64), phys, length
        heads = self._request_heads(owner, phys, length)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[heads], minlength=n), out=bounds[1:])
        return bounds, phys[heads], np.add.reduceat(length, heads)

    def _request_heads(
        self, owner: np.ndarray, phys: np.ndarray, length: np.ndarray
    ) -> np.ndarray:
        """:meth:`_emit_rows` as a mask over the ``(physical, length)`` runs
        of many ops (``owner`` names each run's op): the indices of the runs
        that open a request — every run but those continuing the previous
        run of the same op on the same disk, which are counted coalesced."""
        total = phys.shape[0]
        bpd = self.config.disk.capacity_blocks
        opens = np.ones(total, dtype=bool)
        opens[1:] = (
            (owner[1:] != owner[:-1])
            | (phys[1:] != phys[:-1] + length[:-1])
            | ((phys[1:] + length[1:] - 1) // bpd != phys[:-1] // bpd)
        )
        heads = np.flatnonzero(opens)
        if heads.shape[0] < total:
            self._counters["fs.coalesced_requests"] += total - heads.shape[0]
        return heads

    def readv(
        self, f: RedbudFile, regions: list[tuple[int, int]]
    ) -> list[BlockRequest]:
        """Map one scatter-gather read over ``(offset, nbytes)`` regions.

        Equivalent to the in-order loop of scalar :meth:`read` calls, but
        the whole region list's physical runs feed one :meth:`_emit_rows` pass —
        runs left physically adjacent by the allocator coalesce even when
        their logical regions are far apart, and the caller submits the
        list as a single batch (PVFS list I/O).
        """
        self._check_live(f)
        if not regions:
            raise ReproError("readv of an empty region list")
        starts: list[int] = []
        nblocks: list[int] = []
        self._read_ops(f, *zip(*regions), starts, nblocks, "readv")
        counters = self._counters
        counters["fs.listio_reads"] += 1
        counters["fs.listio_regions"] += len(regions)
        return [BlockRequest(s, n, False) for s, n in zip(starts, nblocks)]

    def fsync(self, f: RedbudFile) -> list[BlockRequest]:
        """Materialize delayed-allocation buffers; returns their writes."""
        self._check_live(f)
        requests: list[BlockRequest] = []
        for target, runs in self.policy.flush(f.file_id):
            self._insert_runs(f.maps[target.slot], runs)
            for run in runs:
                requests.append(BlockRequest(run.physical, run.length, is_write=True))
        if requests:
            self.metrics.incr("fs.delayed_flush_requests", len(requests))
        return requests

    # -- crash recovery -----------------------------------------------------------
    def crash_recover(self) -> int:
        """Simulate a crash and recovery (§III.A durability semantics).

        Persistent state survives: extent maps (they live at the MDS) and
        the blocks they own.  *Volatile* allocator state dies: sequential
        windows' temporary reservations, per-inode reservation pools and
        delayed-allocation buffers are all in-memory, so recovery rebuilds
        the free-space books from the extent maps alone — any block not
        mapped by a file is free again.  Current-window blocks that were
        already handed to files are mapped, hence "persistent across
        reboots" as §III.A requires.

        Returns the number of blocks reclaimed from volatile state.
        """
        free_before = self.fsm.free_blocks
        # Rebuild free space: start fresh, then re-allocate exactly the
        # mapped extents.
        self.fsm = FreeSpaceManager(
            self.config.ndisks,
            self.config.disk.capacity_blocks,
            self.config.pags_per_disk,
            self.metrics,
            self.tracer,
        )
        for f in self._files.values():
            for smap in f.maps:
                for ext in smap:
                    self.fsm.allocate_exact(ext.physical, ext.length)
        # The allocator restarts cold: windows, pools and buffers are gone.
        self.policy = make_policy(self.config.alloc, self.fsm, self.metrics, self.tracer)
        reclaimed = self.fsm.free_blocks - free_before
        self.metrics.incr("fs.crash_recoveries")
        self.metrics.incr("fs.recovered_blocks", max(0, reclaimed))
        return reclaimed

    # -- introspection ----------------------------------------------------------
    def files(self) -> list[RedbudFile]:
        return list(self._files.values())

    def total_extents(self) -> int:
        """Sum of extent counts over live files (Table I)."""
        return sum(f.extent_count for f in self._files.values())

    @property
    def utilization(self) -> float:
        return self.fsm.utilization

    # -- internals ----------------------------------------------------------
    def _targets_of(self, f: RedbudFile) -> list[AllocTarget]:
        """``f``'s allocation targets, one per slot, built once per layout."""
        key = (f.stripe_blocks, *f.layout)
        targets = self._targets.get(key)
        if targets is None:
            targets = self._targets[key] = [
                AllocTarget(
                    group_index=group,
                    slot=slot,
                    width=f.width,
                    stripe_blocks=f.stripe_blocks,
                )
                for slot, group in enumerate(f.layout)
            ]
        return targets

    def _segments(
        self, f: RedbudFile, lb: int, nb: int
    ) -> list[tuple[int, int, int]]:
        """Stripe-unit segments of [lb, lb+nb), grouped per slot.

        Consecutive stripe units landing on the same slot (writes wider
        than one rotation) are dlocal-contiguous and are merged into one
        segment, so the allocation policy sees one large request per PAG
        instead of one per stripe unit — PVFS list I/O's "describe many
        pieces in one request".
        """
        sb = f.stripe_blocks
        stripe, off = divmod(lb, sb)
        if off + nb <= sb:  # inside one stripe unit: one segment, no loop
            return [(stripe % f.width, (stripe // f.width) * sb + off, nb)]
        grouped: list[tuple[int, int, int]] = []
        for slot, dstart, dcount in f.segments(lb, nb):
            if grouped:
                g_slot, g_start, g_count = grouped[-1]
                if g_slot == slot and g_start + g_count == dstart:
                    grouped[-1] = (g_slot, g_start, g_count + dcount)
                    continue
            grouped.append((slot, dstart, dcount))
        return grouped

    def _emit_rows(
        self,
        runs: Sequence[tuple[int, int]],
        out_starts: list[int],
        out_nblocks: list[int],
    ) -> None:
        """Append ``(physical, length)`` runs as coalesced ``(start,
        nblocks)`` rows.

        Adjacent same-disk runs merge before any request exists, so the
        callers hold exactly one row per final request; a merge never
        crosses a disk boundary and total blocks are preserved.
        """
        if not runs:
            return
        bpd = self.config.disk.capacity_blocks
        cur_start, length = runs[0]
        cur_end = cur_start + length
        if len(runs) > 1:
            # First block beyond the current run's disk: one division per
            # output request instead of two per candidate merge.
            disk_end = (cur_start // bpd + 1) * bpd
            merged = 0
            for phys, length in runs[1:]:
                if phys == cur_end and phys + length <= disk_end:
                    cur_end += length
                    merged += 1
                else:
                    out_starts.append(cur_start)
                    out_nblocks.append(cur_end - cur_start)
                    cur_start, cur_end = phys, phys + length
                    disk_end = (cur_start // bpd + 1) * bpd
            if merged:
                self._counters["fs.coalesced_requests"] += merged
        out_starts.append(cur_start)
        out_nblocks.append(cur_end - cur_start)

    def _extent_histogram(self):
        hist = self._extent_hist
        if hist is None:
            hist = self._extent_hist = self.metrics.histogram_ref("fs.extent_blocks")
        return hist

    def _insert_runs(self, smap, runs: list[PhysicalRun]) -> bool:
        """Map a policy's runs; True when one of them is unwritten."""
        hist = self._extent_hist
        if hist is None:
            hist = self._extent_histogram()
        insert = smap.insert
        unwritten = False
        for run in runs:
            hist.observe(run.length)
            if run.unwritten:
                unwritten = True
                insert(Extent(run.dlocal, run.physical, run.length, 1))
            else:
                insert(Extent(run.dlocal, run.physical, run.length, 0))
        return unwritten

    def _slot_share(self, f: RedbudFile, total_blocks: int, slot: int) -> int:
        """Blocks of a ``total_blocks``-file landing on rotation slot ``slot``."""
        sb = f.stripe_blocks
        full_stripes, tail = divmod(total_blocks, sb)
        rounds, extra = divmod(full_stripes, f.width)
        share = rounds * sb
        if slot < extra:
            share += sb
        elif slot == extra:
            share += tail
        return share

    def _check_live(self, f: RedbudFile) -> None:
        if f.deleted or f.file_id not in self._files:
            raise ReproError(f"operation on deleted file: {f.name!r}")
