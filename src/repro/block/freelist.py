"""Free-space tracking as a sorted set of free extents.

This is the allocator's working structure (XFS keeps the same information in
its by-block-number B+tree).  Operations are O(log n) lookups plus O(k)
splicing on a sorted list of ``(start, length)`` runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.errors import AllocationError, NoSpaceError


class FreeExtentSet:
    """Sorted, coalesced set of free block runs within [base, base+size)."""

    def __init__(self, base: int, size: int) -> None:
        if base < 0 or size <= 0:
            raise AllocationError(f"invalid region: base={base} size={size}")
        self.base = base
        self.size = size
        self._starts: list[int] = [base]
        self._lengths: list[int] = [size]
        # Incremental total: maintained by allocate_exact/free so the hot
        # free-space queries never re-sum the run list.
        self._free_total = size

    # -- queries ------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Total free blocks (O(1); maintained incrementally)."""
        return self._free_total

    @property
    def used_blocks(self) -> int:
        return self.size - self.free_blocks

    @property
    def run_count(self) -> int:
        """Number of free runs (free-space fragmentation indicator)."""
        return len(self._starts)

    @property
    def largest_run(self) -> int:
        """Length of the largest free run (0 when full)."""
        return max(self._lengths, default=0)

    def runs(self) -> list[tuple[int, int]]:
        """Snapshot of free runs as (start, length) pairs."""
        return list(zip(self._starts, self._lengths))

    def is_free(self, start: int, count: int) -> bool:
        """True when [start, start+count) is entirely free."""
        if count <= 0:
            raise AllocationError(f"count must be positive: {count}")
        i = bisect_right(self._starts, start) - 1
        if i < 0:
            return False
        return self._starts[i] <= start and start + count <= self._starts[i] + self._lengths[i]

    # -- allocation -----------------------------------------------------------
    def allocate_exact(self, start: int, count: int) -> None:
        """Allocate exactly [start, start+count); raises if any block is used."""
        if not self.is_free(start, count):
            raise NoSpaceError(f"range [{start}, {start + count}) not free")
        i = bisect_right(self._starts, start) - 1
        run_start, run_len = self._starts[i], self._lengths[i]
        pieces_starts: list[int] = []
        pieces_lengths: list[int] = []
        if run_start < start:
            pieces_starts.append(run_start)
            pieces_lengths.append(start - run_start)
        tail = (run_start + run_len) - (start + count)
        if tail > 0:
            pieces_starts.append(start + count)
            pieces_lengths.append(tail)
        self._starts[i : i + 1] = pieces_starts
        self._lengths[i : i + 1] = pieces_lengths
        self._free_total -= count

    def allocate_near(self, hint: int, count: int, minimum: int | None = None) -> tuple[int, int]:
        """Allocate a contiguous run of up to ``count`` blocks near ``hint``.

        Search order: the run containing/after the hint, then earlier runs.
        If no run holds ``count`` blocks, the largest run of at least
        ``minimum`` (default 1) blocks is returned instead — allocation
        degrades gracefully rather than failing, as real allocators do.

        Returns ``(start, got)``; raises :class:`NoSpaceError` when nothing
        of at least ``minimum`` blocks exists.
        """
        if count <= 0:
            raise AllocationError(f"count must be positive: {count}")
        floor = 1 if minimum is None else max(1, minimum)
        if not self._starts:
            raise NoSpaceError("no free space")

        # Pass 1: the hint lies inside a free run with enough room after it.
        i = bisect_right(self._starts, hint) - 1
        if i >= 0:
            run_end = self._starts[i] + self._lengths[i]
            if self._starts[i] <= hint < run_end and run_end - hint >= count:
                self.allocate_exact(hint, count)
                return (hint, count)
        # Pass 2: first run starting at/after the hint with the full count.
        for j in range(bisect_left(self._starts, hint), len(self._starts)):
            if self._lengths[j] >= count:
                start = self._starts[j]
                self.allocate_exact(start, count)
                return (start, count)
        # Pass 3: any run with the full count (wrap below the hint).
        for j in range(len(self._starts)):
            if self._lengths[j] >= count:
                start = self._starts[j]
                self.allocate_exact(start, count)
                return (start, count)
        # Pass 4: largest available run, if it meets the minimum.
        best = max(range(len(self._starts)), key=lambda j: self._lengths[j], default=-1)
        if best >= 0 and self._lengths[best] >= floor:
            start, got = self._starts[best], self._lengths[best]
            self.allocate_exact(start, got)
            return (start, got)
        raise NoSpaceError(
            f"no free run of >= {floor} blocks (largest: {self.largest_run})"
        )

    # -- free -------------------------------------------------------------------
    def free(self, start: int, count: int) -> None:
        """Return [start, start+count) to the free set, coalescing."""
        if count <= 0:
            raise AllocationError(f"count must be positive: {count}")
        if start < self.base or start + count > self.base + self.size:
            raise AllocationError(
                f"free [{start}, {start + count}) outside region "
                f"[{self.base}, {self.base + self.size})"
            )
        i = bisect_left(self._starts, start)
        # Overlap checks against neighbours.
        if i > 0 and self._starts[i - 1] + self._lengths[i - 1] > start:
            raise AllocationError(f"double free at block {start}")
        if i < len(self._starts) and self._starts[i] < start + count:
            raise AllocationError(f"double free at block {self._starts[i]}")
        self._free_total += count
        # Coalesce with the left neighbour.
        if i > 0 and self._starts[i - 1] + self._lengths[i - 1] == start:
            self._lengths[i - 1] += count
            # And possibly with the right neighbour too.
            if i < len(self._starts) and self._starts[i] == start + count:
                self._lengths[i - 1] += self._lengths[i]
                del self._starts[i]
                del self._lengths[i]
            return
        # Coalesce with the right neighbour.
        if i < len(self._starts) and self._starts[i] == start + count:
            self._starts[i] = start
            self._lengths[i] += count
            return
        self._starts.insert(i, start)
        self._lengths.insert(i, count)

    def validate(self) -> None:
        """Check invariants: sorted, in-range, coalesced, positive lengths,
        and the incremental free total matching the run lengths."""
        prev_end = None
        for s, n in zip(self._starts, self._lengths):
            if n <= 0:
                raise AllocationError(f"non-positive run length at {s}")
            if s < self.base or s + n > self.base + self.size:
                raise AllocationError(f"run [{s}, {s + n}) out of region")
            if prev_end is not None and s <= prev_end:
                raise AllocationError(f"overlapping/uncoalesced runs at {s}")
            prev_end = s + n
        if self._free_total != sum(self._lengths):
            raise AllocationError(
                f"free total drifted: cached {self._free_total}, "
                f"actual {sum(self._lengths)}"
            )
