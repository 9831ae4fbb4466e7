"""Allocation policy interface.

A policy answers one question for the file system's write path: *which
physical blocks back this extending write, and what extra blocks (if any)
are persistently preallocated around it?*

Policies work in a per-allocator logical space ("dlocal"): the file system
splits every write into stripe-unit segments, compacts each target PAG's
stripes into a dense local coordinate, and calls the policy per segment.  A
sequential client stream therefore appears to each PAG's allocator as a
sequential dlocal stream — the exact setting of §III's algorithm — and the
file system translates the returned physical runs back to file-logical
extents.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable

from repro.block.freespace import FreeSpaceManager
from repro.config import AllocPolicyParams
from repro.errors import AllocationError, NoSpaceError
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics


class AllocTarget:
    """Where a write segment lands: one PAG (``group_index``), the rotation
    slot ``slot`` of the file's stripe layout.

    A plain slots class (the plane builds one per slot of each layout);
    value semantics stay dataclass-compatible.
    """

    __slots__ = ("group_index", "slot")

    def __init__(self, group_index: int, slot: int) -> None:
        if group_index < 0 or slot < 0:
            raise AllocationError(f"invalid target ids: group={group_index} slot={slot}")
        self.group_index = group_index
        self.slot = slot

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AllocTarget:
            return NotImplemented
        return (self.group_index, self.slot) == (other.group_index, other.slot)

    def __hash__(self) -> int:
        return hash((self.group_index, self.slot))

    def __repr__(self) -> str:
        return f"AllocTarget(group_index={self.group_index}, slot={self.slot})"


class PhysicalRun:
    """A contiguous physical allocation returned by a policy.

    ``dlocal`` is the allocator-local logical start the run backs;
    ``unwritten`` marks persistent preallocation beyond the written range.
    A plain slots class (policies build one per returned run); value
    semantics stay dataclass-compatible.
    """

    __slots__ = ("dlocal", "physical", "length", "unwritten")

    def __init__(
        self, dlocal: int, physical: int, length: int, unwritten: bool = False
    ) -> None:
        if dlocal < 0 or physical < 0 or length <= 0:
            raise AllocationError(
                f"invalid run: dlocal={dlocal} physical={physical} length={length}"
            )
        self.dlocal = dlocal
        self.physical = physical
        self.length = length
        self.unwritten = unwritten

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PhysicalRun:
            return NotImplemented
        return (
            self.dlocal == other.dlocal
            and self.physical == other.physical
            and self.length == other.length
            and self.unwritten == other.unwritten
        )

    def __hash__(self) -> int:
        return hash((self.dlocal, self.physical, self.length, self.unwritten))

    def __repr__(self) -> str:
        return (
            f"PhysicalRun(dlocal={self.dlocal}, physical={self.physical}, "
            f"length={self.length}, unwritten={self.unwritten})"
        )


class AllocationPolicy(abc.ABC):
    """Base class for the §III policies and §II.B related-work baselines."""

    #: Registry name, overridden by subclasses.
    name = "abstract"
    #: Copy-on-write semantics: the file system reallocates overwritten
    #: ranges through :meth:`allocate` instead of writing in place.
    cow = False

    def __init__(
        self,
        params: AllocPolicyParams,
        fsm: FreeSpaceManager,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.params = params
        self.fsm = fsm
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Per-request counter bumps inline on this mapping in the hot
        # allocate loops (see Metrics.raw_counters).
        self._counters = self.metrics.raw_counters()

    # -- the one required operation ------------------------------------------
    @abc.abstractmethod
    def allocate(
        self,
        file_id: int,
        stream_id: int,
        target: AllocTarget,
        dlocal: int,
        count: int,
    ) -> list[PhysicalRun]:
        """Back the hole [dlocal, dlocal+count) with physical blocks.

        Returns runs covering exactly the requested range (``unwritten=False``)
        plus, for preallocating policies, extra ``unwritten=True`` runs.
        An empty list means the write was *buffered* (delayed allocation) and
        will be produced by :meth:`flush` later.
        """

    def allocate_many(
        self,
        file_ids: Iterable[int],
        streams: Iterable[int],
        targets: Iterable[AllocTarget],
        dstarts: Iterable[int],
        dcounts: Iterable[int],
        out_physical: list[int],
    ) -> list[PhysicalRun] | None:
        """The loop of :meth:`allocate` over rows (one hole each), in
        arrival order: a row backed by exactly one written run appends its
        physical start onto ``out_physical``; the first row answered any
        other way stops the call (the rows after it are not read) and its
        runs are returned.  ``None``: every row was answered.  A policy
        overrides this to answer its no-trigger rows in place, with the
        same state, metrics and trace rows as the loop, also when it raises.
        """
        for row in zip(file_ids, streams, targets, dstarts, dcounts):
            new = self.allocate(*row)
            if not _backs_exactly(new, row[3], row[4]):
                return new
            out_physical.append(new[0].physical)
        return None

    # -- optional hooks ----------------------------------------------------
    def prepare(
        self, file_id: int, target: AllocTarget, dlocal_blocks: int
    ) -> list[PhysicalRun]:
        """Persistently preallocate ``dlocal_blocks`` for a new file on this
        target (fallocate).  Only the static policy implements it."""
        return []

    def flush(self, file_id: int) -> list[tuple[AllocTarget, list[PhysicalRun]]]:
        """Materialize buffered writes (delayed allocation).  Other policies
        have nothing buffered and return []."""
        return []

    def release(self, file_id: int) -> int:
        """Drop all temporary reservations held for ``file_id``, returning
        the blocks to free space.  Returns the number of blocks released.
        Called on close and on delete."""
        return 0

    def on_delete(self, file_id: int) -> None:
        """Forget per-file state (reservations are released separately)."""
        self.release(file_id)

    # -- shared helpers -----------------------------------------------------
    def _plain_allocate(
        self, target: AllocTarget, hint: int | None, count: int
    ) -> list[tuple[int, int]]:
        """Contiguous-best-effort allocation of exactly ``count`` blocks,
        possibly as several runs.  Used as every policy's fallback path.

        Atomic: either the full count is allocated or, on
        :class:`~repro.errors.NoSpaceError`, every partial run is returned
        to free space before the error propagates.
        """
        runs: list[tuple[int, int]] = []
        remaining = count
        next_hint = hint
        try:
            while remaining > 0:
                start, got = self.fsm.allocate_in_group(
                    target.group_index, remaining, hint=next_hint, minimum=1
                )
                runs.append((start, got))
                remaining -= got
                next_hint = start + got
        except NoSpaceError:
            for start, got in runs:
                self.fsm.free(start, got)
            raise
        return runs


def _backs_exactly(runs: list[PhysicalRun], dlocal: int, count: int) -> bool:
    """Is ``runs`` one written run backing exactly [dlocal, dlocal+count)?"""
    run = runs[0] if len(runs) == 1 else None
    return run is not None and run.dlocal == dlocal and run.length == count and not run.unwritten
