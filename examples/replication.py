"""Data replication for interference removal (§II.B related work).

"Zhang proposed to remove interference by replicating data in IO servers
of parallel file systems.  Since replication is not free at runtime, false
predication of last IO timing still lead to the severe intra-file
interference using these approaches."  (InterferenceRemoval, ICS'10; also
BORG and FS2 reorganize/replicate by detected access pattern.)

The manager watches per-file read traffic; when a file's observed
*fragmentation ratio* (physical runs per read request) stays above a
threshold for enough requests, it builds a logically-ordered contiguous
replica and redirects subsequent reads to it.  Both costs the paper points
at are modelled:

- the replica is **not free**: building it reads the fragmented original
  and writes the full copy (charged to the caller as disk requests);
- a **mispredicted** replication (triggered right before the reads stop)
  pays the copy and reclaims nothing.

Writes invalidate the replica (write-through would double every write).

No runner or claim of the package uses it: it is an example-side model
built on the library's :class:`~repro.fs.dataplane.DataPlane`, imported by
the ``ablations/`` related-work sweep and ``tests/test_fs_replication.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.disk.model import BlockRequest
from repro.errors import ReproError
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.units import block_span


@dataclass
class ReplicaState:
    """Replication bookkeeping for one file."""

    #: Per-slot physical runs of the replica, parallel to ``RedbudFile.maps``
    #: (dlocal-ordered, so replica reads are sequential).
    slot_runs: list[list[tuple[int, int, int]]] = field(default_factory=list)
    reads_observed: int = 0
    fragments_observed: int = 0
    active: bool = False

    @property
    def fragmentation_ratio(self) -> float:
        if self.reads_observed == 0:
            return 0.0
        return self.fragments_observed / self.reads_observed


class ReplicationManager:
    """Detect fragmented read traffic and serve it from contiguous replicas."""

    def __init__(
        self,
        plane: DataPlane,
        trigger_ratio: float = 4.0,
        min_reads: int = 32,
    ) -> None:
        if trigger_ratio <= 1.0:
            raise ReproError(f"trigger_ratio must exceed 1: {trigger_ratio}")
        if min_reads <= 0:
            raise ReproError(f"min_reads must be positive: {min_reads}")
        self.plane = plane
        self.trigger_ratio = trigger_ratio
        self.min_reads = min_reads
        self._states: dict[int, ReplicaState] = {}

    # -- read path ----------------------------------------------------------
    def read(self, f: RedbudFile, offset: int, nbytes: int) -> list[BlockRequest]:
        """Read through the manager: replica if active, original otherwise.

        Observes fragmentation and triggers replication when the pattern
        qualifies; the copy cost is returned *with* the triggering read's
        requests (the paper's "replication is not free at runtime").
        """
        state = self._states.setdefault(f.file_id, ReplicaState())
        if state.active:
            self.plane.metrics.incr("replica.reads")
            return self._replica_requests(f, state, offset, nbytes)
        requests = self.plane.read(f, offset, nbytes)
        state.reads_observed += 1
        state.fragments_observed += len(requests)
        if (
            state.reads_observed >= self.min_reads
            and state.fragmentation_ratio >= self.trigger_ratio
        ):
            requests = requests + self.replicate(f)
        return requests

    def write(self, f: RedbudFile, stream: int, offset: int, nbytes: int) -> list[BlockRequest]:
        """Writes go to the original and invalidate any replica."""
        state = self._states.get(f.file_id)
        if state is not None and state.active:
            self.drop_replica(f)
            self.plane.metrics.incr("replica.invalidations")
        return self.plane.write(f, stream, offset, nbytes)

    # -- replica lifecycle ------------------------------------------------------
    def replicate(self, f: RedbudFile) -> list[BlockRequest]:
        """Build a contiguous, logically-ordered replica of ``f``.

        Returns the requests of the copy itself: a read of every original
        extent plus a sequential write of the replica.
        """
        state = self._states.setdefault(f.file_id, ReplicaState())
        if state.active:
            return []
        requests: list[BlockRequest] = []
        slot_runs: list[list[tuple[int, int, int]]] = []
        for slot, smap in enumerate(f.maps):
            runs: list[tuple[int, int, int]] = []
            extents = [e for e in smap.extents() if not e.unwritten]
            total = sum(e.length for e in extents)
            if total == 0:
                slot_runs.append(runs)
                continue
            # Read the fragmented original...
            for e in extents:
                requests.append(BlockRequest(e.physical, e.length, is_write=False))
            # ...and write one contiguous copy in dlocal order.
            remaining = total
            hint = None
            ordered = sorted(extents, key=lambda e: e.logical)
            flat: list[tuple[int, int]] = [(e.logical, e.length) for e in ordered]
            while remaining > 0:
                start, got = self.plane.fsm.allocate_in_group(
                    f.layout[slot], remaining, hint=hint, minimum=1
                )
                requests.append(BlockRequest(start, got, is_write=True))
                # Record which dlocal range this physical run backs.
                take = got
                while take > 0 and flat:
                    dlocal, length = flat[0]
                    piece = min(take, length)
                    runs.append((dlocal, start + (got - take), piece))
                    if piece == length:
                        flat.pop(0)
                    else:
                        flat[0] = (dlocal + piece, length - piece)
                    take -= piece
                hint = start + got
                remaining -= got
            slot_runs.append(_coalesce_runs(runs))
        state.slot_runs = slot_runs
        state.active = True
        self.plane.metrics.incr("replica.built")
        self.plane.metrics.incr(
            "replica.copied_blocks", sum(r.nblocks for r in requests if r.is_write)
        )
        return requests

    def drop_replica(self, f: RedbudFile) -> None:
        """Free the replica's blocks (invalidation or file delete)."""
        state = self._states.get(f.file_id)
        if state is None or not state.active:
            return
        freed: list[tuple[int, int]] = []
        for runs in state.slot_runs:
            for _dlocal, physical, length in runs:
                freed.append((physical, length))
        # Coalesce adjacent pieces before freeing (they were allocated as
        # larger runs and split during mapping).
        for start, length in _coalesce_physical(freed):
            self.plane.fsm.free(start, length)
        self._states[f.file_id] = ReplicaState()

    def is_replicated(self, f: RedbudFile) -> bool:
        state = self._states.get(f.file_id)
        return state is not None and state.active

    # -- internals ----------------------------------------------------------
    def _replica_requests(
        self, f: RedbudFile, state: ReplicaState, offset: int, nbytes: int
    ) -> list[BlockRequest]:
        lb, nb = block_span(offset, nbytes, self.plane.block_size)
        requests: list[BlockRequest] = []
        for slot, dstart, dcount in f.segments(lb, nb):
            for dlocal, physical, length in state.slot_runs[slot]:
                lo = max(dlocal, dstart)
                hi = min(dlocal + length, dstart + dcount)
                if lo < hi:
                    requests.append(
                        BlockRequest(physical + (lo - dlocal), hi - lo, is_write=False)
                    )
        self.plane.metrics.incr("fs.reads")
        self.plane.metrics.incr("fs.bytes_read", nbytes)
        return requests


def _coalesce_runs(
    runs: list[tuple[int, int, int]]
) -> list[tuple[int, int, int]]:
    """Merge replica mapping pieces adjacent in both dlocal and physical."""
    if not runs:
        return []
    ordered = sorted(runs)
    out = [ordered[0]]
    for dlocal, physical, length in ordered[1:]:
        ld, lp, ll = out[-1]
        if dlocal == ld + ll and physical == lp + ll:
            out[-1] = (ld, lp, ll + length)
        else:
            out.append((dlocal, physical, length))
    return out


def _coalesce_physical(pieces: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge physically adjacent (start, length) pieces."""
    if not pieces:
        return []
    ordered = sorted(pieces)
    out = [ordered[0]]
    for start, length in ordered[1:]:
        last_start, last_len = out[-1]
        if start == last_start + last_len:
            out[-1] = (last_start, last_len + length)
        else:
            out.append((start, length))
    return out
