"""The per-disk fault injector.

Attached to a :class:`~repro.disk.disk.SimulatedDisk`, the injector sees
every scheduler-arranged batch just before it is serviced and applies the
plan request by request:

- **Crash points** fire once ``crash_after_requests`` requests have been
  serviced; the injector disarms itself so recovery code can run against
  the same disk without re-crashing.
- **Latent sector errors** make reads of affected blocks raise; a write
  covering a bad block heals it (the drive remaps the sector on overwrite).
- **Torn writes** truncate every Nth multi-block write to a strict prefix —
  the classic torn commit record of the journaling literature.  Single-
  block writes stay atomic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CrashError, FaultError, LatentSectorError
from repro.fault.plan import FaultPlan
from repro.sim.metrics import Metrics


class FaultInjector:
    """Applies one :class:`FaultPlan` beneath a disk's request loop."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.armed = True
        self.requests_seen = 0
        self.torn_writes = 0
        self.lse_errors = 0
        self.crashes = 0
        self._writes_seen = 0
        self._bad_blocks = plan.lse_blocks()
        #: Blocks actually persisted through this injector (torn prefixes
        #: included, truncated tails excluded) — the candidate set for
        #: :meth:`develop_lse`.
        self.written: set[int] = set()
        self.metrics: Metrics | None = None
        self.disk_name = "disk"

    def bind(self, metrics: Metrics, name: str) -> None:
        """Count into a disk's metrics under its name (done by
        :meth:`SimulatedDisk.attach_injector`; the disk emits the trace
        rows, see :meth:`filter_arrays`)."""
        self.metrics = metrics
        self.disk_name = name

    def disarm(self) -> None:
        """Stop injecting (recovery phases run against a quiet disk)."""
        self.armed = False

    @property
    def bad_blocks(self) -> frozenset[int]:
        """Unhealed latent-sector-error blocks."""
        return frozenset(self._bad_blocks)

    def develop_lse(self, blocks) -> int:
        """Mark ``blocks`` as latent sector errors *after* the fact.

        Real LSEs develop on media that already holds data — an error baked
        into the plan before the workload writes would be healed by the very
        write that put the data there.  Campaigns call this between their
        write and scrub phases with a seeded sample of :attr:`written`.
        Returns the number of newly-bad blocks.
        """
        added = set(blocks) - self._bad_blocks
        self._bad_blocks |= added
        if added:
            self._incr("fault.lse_developed", len(added))
        return len(added)

    def _incr(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, amount)

    # -- the hook ----------------------------------------------------------
    def filter_arrays(
        self, starts: np.ndarray, nblocks: np.ndarray, is_write: np.ndarray
    ) -> tuple[int, np.ndarray, FaultError | None, list[tuple[int, str, dict]]]:
        """Inspect one *arranged* batch held as columns, in service order.

        Returns ``(serviced, nblocks, fault, marks)``: the disk services
        requests ``[0, serviced)`` with the returned ``nblocks`` (a torn
        write's entry is the prefix that persisted), then raises ``fault``
        unless it is ``None``.  ``marks`` are the ``fault`` trace rows the
        walk produced, as ``(index, op, attrs)``: each goes in front of
        request ``index``'s own row (docs/FAULTS.md).  A plain in-order
        walk: heals, tears and the crash point depend on every request
        before them in the batch.
        """
        n = starts.shape[0]
        marks: list[tuple[int, str, dict]] = []
        if not self.armed:
            return n, nblocks, None, marks
        crash_after = self.plan.crash_after_requests
        torn_every = self.plan.torn_every
        bad = self._bad_blocks
        name = self.disk_name
        first = self.requests_seen
        serviced, fault = n, None
        torn: dict[int, int] = {}
        rows = zip(starts.tolist(), nblocks.tolist(), is_write.tolist())
        for i, (start, count, write) in enumerate(rows):
            if crash_after is not None and self.requests_seen >= crash_after:
                self.crashes += 1
                self.disarm()
                self._incr("fault.crashes")
                marks.append((i, "crash", {"disk": name, "after": self.requests_seen}))
                serviced, fault = i, CrashError(
                    f"{name}: injected crash after {self.requests_seen} requests"
                )
                break
            self.requests_seen += 1
            if not write:
                hit = next((b for b in range(start, start + count) if b in bad), None)
                if hit is not None:
                    self.lse_errors += 1
                    self._incr("fault.lse_errors")
                    marks.append((i, "lse", {"disk": name, "block": hit}))
                    serviced, fault = i, LatentSectorError(
                        f"{name}: latent sector error at block {hit}"
                    )
                    break
                continue
            # Writes heal any bad sectors they overwrite (drive remap).
            healed = bad.intersection(range(start, start + count))
            if healed:
                bad -= healed
                self._incr("fault.lse_healed", len(healed))
            if torn_every > 0 and count >= 2:
                self._writes_seen += 1
                if self._writes_seen % torn_every == 0:
                    keep = max(1, count // 2)
                    self.torn_writes += 1
                    self._incr("fault.torn_writes")
                    marks.append((
                        i, "torn_write",
                        {"disk": name, "start": start, "nblocks": count, "kept": keep},
                    ))
                    torn[i] = count = keep
            self.written.update(range(start, start + count))
        if self.requests_seen > first:
            self._incr("fault.requests", self.requests_seen - first)
        if torn:
            nblocks = nblocks.copy()
            nblocks[list(torn)] = list(torn.values())
        return serviced, nblocks, fault, marks
