"""Per-segment, per-extent reference for the data plane's mapping.

The bodies below are the ones ``src/`` ran, until commit f3214f3, under
``FSConfig.execution="legacy"``: ``DataPlane._map_write_legacy`` /
``_map_read_legacy`` (one allocation call per stripe unit, one request per
extent, nothing coalesced before submission — the scheduler merges what is
adjacent), the ungrouped ``_segments`` and the object-form ``_coalesce``.
They are kept verbatim as the oracle the one mapping path is held to
(``tests/test_perf_pipeline.py``, ``tests/test_phase_columns.py``, the
list-I/O suites): same extents, same allocation decisions, same disk work.
:class:`ReferenceDataPlane` wires them under the plane's public surface the
way the ``legacy`` arms of ``_write_ops`` / ``_read_ops`` / ``read_many``
did, over disks that service every batch with the per-request object loop
(``tests/metrics_reference.py``).
"""

from __future__ import annotations

import numpy as np

from repro.disk.model import BlockRequest
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.stream import StreamId
from repro.sim.metrics import Metrics
from repro.units import block_span

from tests.metrics_reference import ReferenceMetrics, object_loop_disks


def reference_coalesce(
    requests: list[BlockRequest], bpd: int, metrics: Metrics
) -> list[BlockRequest]:
    """Merge physically adjacent same-direction requests on one disk of
    ``bpd`` blocks (was ``DataPlane._coalesce``).

    Never merges across a disk boundary or a read/write boundary; total
    blocks are preserved.
    """
    if len(requests) < 2:
        return requests
    out: list[BlockRequest] = []
    prev = requests[0]
    merged = 0
    for req in requests[1:]:
        if (
            req.is_write == prev.is_write
            and prev.end == req.start
            and prev.start // bpd == (req.end - 1) // bpd
        ):
            prev = BlockRequest(prev.start, prev.nblocks + req.nblocks, prev.is_write)
            merged += 1
        else:
            out.append(prev)
            prev = req
    out.append(prev)
    if merged:
        metrics.incr("fs.coalesced_requests", merged)
    return out


class ReferenceDataPlane(DataPlane):
    """``DataPlane`` mapping every op segment by segment, extent by extent."""

    def __init__(self, config, metrics=None, tracer=None) -> None:
        super().__init__(
            config, metrics if metrics is not None else ReferenceMetrics(), tracer
        )
        object_loop_disks(self.array)

    def _segments(self, f: RedbudFile, lb: int, nb: int) -> list[tuple[int, int, int]]:
        """One ``(slot, dlocal, length)`` segment per stripe unit, never
        grouped (was ``RedbudFile.segments``)."""
        sb, width = f.stripe_blocks, f.width
        out: list[tuple[int, int, int]] = []
        end = lb + nb
        while lb < end:
            stripe, offset = divmod(lb, sb)
            chunk = min(end, (stripe + 1) * sb) - lb
            out.append((stripe % width, (stripe // width) * sb + offset, chunk))
            lb += chunk
        return out

    def _map_write_legacy(
        self,
        f: RedbudFile,
        stream: StreamId,
        lb: int,
        nb: int,
        requests: list[BlockRequest],
    ) -> None:
        """Legacy per-segment write mapping; appends onto ``requests``."""
        for slot, dstart, dcount in self._segments(f, lb, nb):
            smap = f.maps[slot]
            if self.policy.cow:
                # Copy-on-write: overwrites are relocated — unmap and free
                # any written blocks in range so they reallocate below.
                for ext in smap.remove_range(dstart, dcount):
                    self.fsm.free(ext.physical, ext.length)
                    self.metrics.incr("fs.cow_relocated_blocks", ext.length)
            holes = smap.holes_in_range(dstart, dcount)
            smap.mark_written(dstart, dcount)
            buffered = False
            for h_start, h_count in holes:
                runs = self.policy.allocate(
                    f.file_id, stream, self._targets_of(f)[slot], h_start, h_count
                )
                if not runs:
                    buffered = True  # delayed allocation
                    continue
                self._insert_runs(smap, runs)
            for ext in smap.lookup_range(dstart, dcount):
                if not ext.unwritten:
                    requests.append(BlockRequest(ext.physical, ext.length, is_write=True))
            if buffered:
                self.metrics.incr("fs.buffered_writes")

    def _map_read_legacy(
        self, f: RedbudFile, lb: int, nb: int, requests: list[BlockRequest]
    ) -> None:
        """Legacy per-extent read mapping; appends onto ``requests``."""
        for slot, dstart, dcount in self._segments(f, lb, nb):
            for ext in f.maps[slot].lookup_range(dstart, dcount):
                if not ext.unwritten:
                    requests.append(BlockRequest(ext.physical, ext.length, is_write=False))

    # -- the legacy arms of the mapping cores -------------------------------
    def _write_ops(self, files, streams, offsets, nbytes, out_starts, out_nblocks, op):
        bs = self.block_size
        f = None
        done = total = end_max = 0
        try:
            for g, stream, offset, n in zip(files, streams, offsets, nbytes):
                if g is not f:
                    self._check_live(g)
                    if f is not None and end_max > f.size_bytes:
                        f.size_bytes = end_max
                    f = g
                    end_max = 0
                if n <= 0 or offset < 0:
                    self._check_range(offset, n, op)
                lb = offset // bs
                nb = (offset + n - 1) // bs - lb + 1
                requests: list[BlockRequest] = []
                self._map_write_legacy(f, stream, lb, nb, requests)
                out_starts.extend(r.start for r in requests)
                out_nblocks.extend(r.nblocks for r in requests)
                done += 1
                total += n
                if offset + n > end_max:
                    end_max = offset + n
        finally:
            if f is not None and end_max > f.size_bytes:
                f.size_bytes = end_max
            counters = self._counters
            if done:
                counters["fs.writes"] += done
                counters["fs.bytes_written"] += total

    def _read_ops(self, f, offsets, nbytes, out_starts, out_nblocks, op, bounds=None):
        self._check_live(f)
        for offset, n in zip(offsets, nbytes):
            self._check_range(offset, n, op)
        for offset, n in zip(offsets, nbytes):
            lb, nb = block_span(offset, n, self.block_size)
            requests: list[BlockRequest] = []
            self._map_read_legacy(f, lb, nb, requests)
            out_starts.extend(r.start for r in requests)
            out_nblocks.extend(r.nblocks for r in requests)
            if bounds is not None:
                bounds.append(len(out_starts))
        if offsets:
            counters = self._counters
            counters["fs.reads"] += len(offsets)
            counters["fs.bytes_read"] += sum(nbytes)

    def read_many(self, f, offsets, nbytes):
        bad = (nbytes <= 0) | (offsets < 0)
        if bad.any():
            k = int(np.argmax(bad))
            self.read_many(f, offsets[:k], nbytes[:k])
            self._check_range(int(offsets[k]), int(nbytes[k]), "read")
        starts: list[int] = []
        nblocks: list[int] = []
        bounds = [0]
        self._read_ops(f, offsets.tolist(), nbytes.tolist(), starts, nblocks, "read", bounds)
        return (
            np.array(bounds, dtype=np.int64),
            np.array(starts, dtype=np.int64),
            np.array(nblocks, dtype=np.int64),
        )
