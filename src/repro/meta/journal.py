"""Metadata journal.

"To maintain the metadata integrity, journal was first sequentially done on
the disk, the reduction of disk access counts mainly comes from the
checkpoint operations" (§V.D.1).  The journal is a circular sequential
region: every metadata operation appends a commit block; dirty *home*
blocks accumulate separately and are flushed by periodic checkpoints (see
:class:`~repro.meta.mds.MetadataServer`).
"""

from __future__ import annotations

from repro.errors import MetadataError


class JournalRecord:
    """One write-ahead record: which home blocks an operation dirties.

    ``block`` is the journal block where the commit record starts.  A
    record only becomes ``committed`` once its journal write reached the
    platter intact; torn or crashed commit writes leave it uncommitted and
    replay discards it (the operation never happened, durably).

    A plain slots class rather than a dataclass: every mutating metadata
    operation builds one.  ``==`` and ``repr`` are the dataclass's; like a
    mutable dataclass it is unhashable.
    """

    __slots__ = ("seq", "block", "dirties", "committed")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self, seq: int, block: int, dirties: tuple[int, ...], committed: bool = False
    ) -> None:
        self.seq = seq
        self.block = block
        self.dirties = dirties
        self.committed = committed

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not JournalRecord:
            return NotImplemented
        return (self.seq, self.block, self.dirties, self.committed) == (
            other.seq, other.block, other.dirties, other.committed
        )

    def __repr__(self) -> str:
        return (
            f"JournalRecord(seq={self.seq!r}, block={self.block!r}, "
            f"dirties={self.dirties!r}, committed={self.committed!r})"
        )


class Journal:
    """Circular append-only commit region on the MDS disk.

    Two cooperating layers: :meth:`append` models the raw block traffic of
    commit records (the request sequences benchmarks time), while
    :meth:`log` / :meth:`commit` / :meth:`replay` implement write-ahead
    semantics over it for crash recovery.
    """

    def __init__(self, base_block: int, nblocks: int) -> None:
        if base_block < 0 or nblocks <= 0:
            raise MetadataError(f"invalid journal region: base={base_block} n={nblocks}")
        self.base_block = base_block
        self.nblocks = nblocks
        self._head = 0
        self.records_written = 0
        self._records: list[JournalRecord] = []
        self._seq = 0

    @property
    def head_block(self) -> int:
        """Next block the journal will write."""
        return self.base_block + self._head

    def append(self, nblocks: int = 1) -> list[tuple[int, int]]:
        """Append ``nblocks`` of commit records; returns the writes as
        ``(start, nblocks)`` pairs.

        Wrapping produces two writes (tail + restart at base).
        """
        if nblocks <= 0:
            raise MetadataError(f"journal append of {nblocks} blocks")
        if nblocks > self.nblocks:
            raise MetadataError(
                f"journal append of {nblocks} exceeds region of {self.nblocks}"
            )
        requests: list[tuple[int, int]] = []
        remaining = nblocks
        while remaining > 0:
            chunk = min(remaining, self.nblocks - self._head)
            requests.append((self.base_block + self._head, chunk))
            self._head = (self._head + chunk) % self.nblocks
            remaining -= chunk
        self.records_written += nblocks
        return requests

    # -- write-ahead records --------------------------------------------------
    def log(
        self, dirties: list[int] | tuple[int, ...], nblocks: int = 1
    ) -> tuple[JournalRecord, list[tuple[int, int]]]:
        """Start a write-ahead record for an operation dirtying ``dirties``.

        Returns the (uncommitted) record plus the commit-block writes as
        ``(start, nblocks)`` pairs; the caller submits the writes and, if
        they all reached the disk intact, acknowledges with :meth:`commit`.
        """
        record = JournalRecord(self._seq, self.head_block, tuple(dirties))
        self._seq += 1
        self._records.append(record)
        return (record, self.append(nblocks))

    def log_one(
        self, dirties: list[int] | tuple[int, ...], nblocks: int
    ) -> JournalRecord | None:
        """:meth:`log` for a record that does not wrap — every synchronous
        commit but one per lap of the region — in one straight line.

        The record's one commit write is ``(record.block, nblocks)``.
        Answers ``None``, with nothing changed, when ``nblocks`` wraps or
        is not a valid size: the caller falls back to :meth:`log`.
        """
        head = self._head
        if not 0 < nblocks <= self.nblocks - head:
            return None
        record = JournalRecord(self._seq, self.base_block + head, tuple(dirties))
        self._seq += 1
        self._records.append(record)
        self._head = (head + nblocks) % self.nblocks
        self.records_written += nblocks
        return record

    def log_batch(
        self, entries
    ) -> tuple[list[JournalRecord], list[tuple[int, int]], list[tuple[int, int]]]:
        """Group commit: write-ahead records for a batch of operations.

        ``entries`` is a sequence of ``(dirties, nblocks)`` pairs, one per
        operation.  Returns ``(records, requests, spans)``: the records in
        entry order, the flat ``(start, nblocks)`` commit writes of the
        whole group, and ``spans[i] = (lo, hi)`` slicing the writes
        belonging to ``records[i]``.

        Each operation's commit blocks pack into the shared circular
        region exactly as per-record :meth:`log` calls would — group
        commit batches the bookkeeping, it never merges or reorders commit
        writes *across* records.  That keeps torn-commit semantics
        per-record: the caller submits each record's request span and
        acknowledges :meth:`commit` only for records whose span reached
        the platter intact, so replay/truncate behavior is identical to
        the per-record path at every crash point.
        """
        records: list[JournalRecord] = []
        requests: list[tuple[int, int]] = []
        spans: list[tuple[int, int]] = []
        log_one = self.log_one
        for dirties, nblocks in entries:
            lo = len(requests)
            record = log_one(dirties, nblocks)
            if record is not None:
                requests.append((record.block, nblocks))
            else:
                record, reqs = self.log(dirties, nblocks)
                requests += reqs
            records.append(record)
            spans.append((lo, len(requests)))
        return (records, requests, spans)

    def commit(self, record: JournalRecord) -> None:
        """Mark ``record`` durable (its commit write hit the platter)."""
        record.committed = True

    def replay(self) -> list[JournalRecord]:
        """Committed records since the last truncation, in commit order.

        Uncommitted (torn / crashed) records are *not* returned: their
        operations never became durable, so recovery must not redo them.
        """
        return [r for r in self._records if r.committed]

    def pending_records(self) -> list[JournalRecord]:
        """Records whose commit write never completed intact."""
        return [r for r in self._records if not r.committed]

    def truncate(self) -> None:
        """Drop all records (checkpoint made their effects durable)."""
        self._records.clear()
