"""Directory layout interface.

A layout decides *where directory entries, inodes and layout mappings live
on the MDS disk* and therefore which blocks each metadata operation reads
and dirties.  Operations return an :class:`AccessPlan` — the block-level
footprint — which the :class:`~repro.meta.mds.MetadataServer` executes
against the cache, journal and checkpoint machinery.  Keeping layouts free
of timing makes the two implementations directly comparable: identical
operations, different footprints.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.config import MetaParams
from repro.errors import FileNotFound
from repro.meta.inode import Inode
from repro.meta.mfs import MetadataFS
from repro.obs.trace import NULL_TRACER


@dataclass
class AccessPlan:
    """Block-level footprint of one metadata operation.

    ``reads`` are (absolute block, count) runs to read through the cache,
    in access order.  ``dirties`` are home blocks the operation modifies
    (flushed by checkpoints).  ``cpu_s`` charges in-memory work (entry
    comparisons, hash lookups).  ``journal_records`` scales the sequential
    journal append.
    """

    reads: list[tuple[int, int]] = field(default_factory=list)
    dirties: list[int] = field(default_factory=list)
    cpu_s: float = 0.0
    journal_records: int = 1

    def merge(self, other: "AccessPlan") -> "AccessPlan":
        """Combine two sub-plans into one operation (aggregated op pairs)."""
        return AccessPlan(
            reads=self.reads + other.reads,
            dirties=self.dirties + other.dirties,
            cpu_s=self.cpu_s + other.cpu_s,
            journal_records=max(self.journal_records, other.journal_records),
        )

    def read_block_count(self) -> int:
        return sum(c for _, c in self.reads)

    def coalesce(self) -> "AccessPlan":
        """Dedup and merge the read footprint of one operation.

        The MDS assembles a whole plan before touching the disk, so reads
        the plan repeats (the same itable block for adjacent entries) or
        issues back-to-back (consecutive spill blocks) collapse into one
        sweep — §IV.A's "all disk accesses can be combined in the same
        disk request".  Three rules, applied in access order:

        - a span identical to an earlier span in the plan is dropped;
        - a span fully contained in the *immediately preceding* span is
          dropped;
        - a span starting exactly where the preceding span ends extends it.

        Reads are never reordered.  The plan is rewritten **in place** and
        returned: its one caller, ``MetadataServer._run``, owns the
        plan the layout just built for it, so no second plan is made per
        operation (and skips the call for a plan of one read, which has
        nothing to combine).
        """
        reads = self.reads
        if len(reads) <= 1:
            return self
        if len(reads) == 2:
            # The dominant plan shape (content span + home block) inlined:
            # the general loop's set/list machinery costs more than the
            # whole comparison.
            (s0, c0), (s1, c1) = reads
            e0 = s0 + c0
            if s0 <= s1 and s1 + c1 <= e0:
                self.reads = [reads[0]]
            elif s1 == e0 and c1 > 0:
                self.reads = [(s0, c0 + c1)]
            return self
        out: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        prev_start = prev_end = -1
        for span in reads:
            if span in seen:
                continue
            seen.add(span)
            start, count = span
            if prev_start <= start and start + count <= prev_end:
                continue
            if start == prev_end and count > 0:
                prev_start, prev_end = out[-1][0], prev_end + count
                out[-1] = (prev_start, prev_end - prev_start)
                continue
            out.append(span)
            prev_start, prev_end = start, start + count
        self.reads = out
        return self


class DirectoryLayout(abc.ABC):
    """Base class for the normal and embedded directory layouts."""

    name = "abstract"
    #: Observability hooks, set by the owning MetadataServer after
    #: construction; layouts stay timing-free but may emit structural
    #: events (e.g. inode spills).
    tracer = NULL_TRACER
    metrics = None

    def __init__(self, params: MetaParams, mfs: MetadataFS) -> None:
        self.params = params
        self.mfs = mfs
        self._inodes: dict[int, Inode] = {}
        self._dirs: dict[int, Any] = {}  # narrowed per layout in subclasses
        self.root: Any = None  # set by make_root()

    # -- required operations -------------------------------------------------
    @abc.abstractmethod
    def make_root(self) -> Any:
        """Create the root directory handle (no plan; mkfs time)."""

    @abc.abstractmethod
    def create_dir(self, parent: Any, name: str, now: float) -> tuple[Any, AccessPlan]:
        ...

    @abc.abstractmethod
    def create_file(self, parent: Any, name: str, now: float) -> tuple[Inode, AccessPlan]:
        ...

    @abc.abstractmethod
    def delete_file(self, parent: Any, name: str) -> AccessPlan:
        ...

    @abc.abstractmethod
    def stat(self, parent: Any, name: str) -> tuple[Inode, AccessPlan]:
        ...

    @abc.abstractmethod
    def utime(self, parent: Any, name: str, now: float) -> AccessPlan:
        ...

    @abc.abstractmethod
    def readdir(self, parent: Any) -> tuple[list[str], AccessPlan]:
        ...

    @abc.abstractmethod
    def readdir_stat(self, parent: Any) -> tuple[list[Inode], AccessPlan]:
        ...

    @abc.abstractmethod
    def getlayout(self, parent: Any, name: str) -> tuple[Inode, AccessPlan]:
        """Read a file's inode plus all of its layout-mapping blocks
        (the open-getlayout aggregated pair's disk half)."""

    @abc.abstractmethod
    def set_extent_records(self, parent: Any, name: str, count: int) -> AccessPlan:
        """Update a file's layout-mapping record count (extend/truncate),
        spilling to extra blocks when the inode tail overflows."""

    @abc.abstractmethod
    def rename(
        self, src_dir: Any, src_name: str, dst_dir: Any, dst_name: str, now: float
    ) -> AccessPlan:
        ...

    # -- shared helpers --------------------------------------------------------
    def inode_by_number(self, ino: int) -> Inode:
        try:
            return self._inodes[ino]
        except KeyError:
            raise FileNotFound(f"no inode {ino}") from None

    def dirs(self) -> list[Any]:
        """Live directory handles (observability accessor, creation order)."""
        return list(self._dirs.values())

    def lookup_inode(self, ino: int) -> Inode | None:
        """Inode by number, or ``None`` — non-raising observability lookup."""
        return self._inodes.get(ino)

    def _lookup_cpu(self, entries_scanned: int) -> float:
        """CPU cost of a directory search: Htree hash lookup (ext4/Lustre)
        or linear scan (ext3/Redbud) — the effect behind Fig. 9's note that
        "Lustre file system outperforms the Redbud using ext3"."""
        if self.params.htree_index:
            return self.params.htree_lookup_cpu_s
        return entries_scanned * self.params.lookup_cpu_s_per_entry
