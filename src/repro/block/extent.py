"""Extents and per-file extent maps.

Redbud's "basic element of file layout is extent, which is identified by a
tuple of [file offset, group offset, length, flags]" (§V.A).  The extent map
is the logical→physical indirection whose fragmentation the paper measures:
Table I's "Seg Counts" column is exactly ``ExtentMap.extent_count`` after
each run.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from itertools import chain
from operator import attrgetter

import numpy as np

from repro.errors import ExtentError


_LENGTH = attrgetter("length")
_PHYSICAL = attrgetter("physical")
_FLAGS = attrgetter("flags")
_LOGICAL = attrgetter("logical")
_EXTENTS = attrgetter("_extents")
_STARTS = attrgetter("_starts")


class ExtentFlags(enum.IntFlag):
    """Extent state flags."""

    NONE = 0
    #: Preallocated but not yet written (fallocate-style unwritten extent).
    UNWRITTEN = 1


class Extent:
    """A contiguous mapping of file logical blocks to physical blocks.

    ``logical`` is the file block offset, ``physical`` the global disk block
    (PAG-resolved "group offset"), ``length`` the run length in blocks.

    A plain slots class rather than a frozen dataclass: extent maps build
    and merge extents on every write, and the frozen init path costs ~3x a
    plain one.  Instances are treated as immutable by convention; value
    semantics (eq/hash/repr) stay dataclass-compatible.
    """

    __slots__ = ("logical", "physical", "length", "flags")

    def __init__(
        self,
        logical: int,
        physical: int,
        length: int,
        flags: ExtentFlags | int = 0,
    ) -> None:
        if logical < 0 or physical < 0:
            raise ExtentError(
                f"negative extent coordinates: logical={logical} physical={physical}"
            )
        if length <= 0:
            raise ExtentError(f"extent length must be positive: {length}")
        self.logical = logical
        self.physical = physical
        self.length = length
        # Store flags as a plain int: IntFlag's operators rebuild enum
        # members on every `&`, which dominates the hot ``unwritten`` check;
        # int comparisons against ExtentFlags members still work.
        self.flags = flags if type(flags) is int else int(flags)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Extent:
            return NotImplemented
        return (
            self.logical == other.logical
            and self.physical == other.physical
            and self.length == other.length
            and self.flags == other.flags
        )

    def __hash__(self) -> int:
        return hash((self.logical, self.physical, self.length, self.flags))

    def __repr__(self) -> str:
        return (
            f"Extent(logical={self.logical}, physical={self.physical}, "
            f"length={self.length}, flags={self.flags})"
        )

    @property
    def logical_end(self) -> int:
        return self.logical + self.length

    @property
    def physical_end(self) -> int:
        return self.physical + self.length

    @property
    def unwritten(self) -> bool:
        return bool(self.flags & 1)  # ExtentFlags.UNWRITTEN

    def physical_for(self, logical: int) -> int:
        """Physical block backing file block ``logical`` (must be inside)."""
        if not (self.logical <= logical < self.logical_end):
            raise ExtentError(f"logical block {logical} outside {self}")
        return self.physical + (logical - self.logical)

    def abuts(self, other: "Extent") -> bool:
        """True when ``other`` continues this extent both logically and
        physically with identical flags (mergeable)."""
        length = self.length
        return (
            other.logical == self.logical + length
            and other.physical == self.physical + length
            and other.flags == self.flags
        )


class ExtentMap:
    """Sorted, non-overlapping logical→physical mapping for one file.

    Adjacent extents that continue each other both logically and physically
    are merged on insert, so ``extent_count`` reflects true fragmentation:
    interleaved allocation from concurrent streams produces logical-adjacent
    but physical-scattered blocks that cannot merge.
    """

    def __init__(self) -> None:
        self._extents: list[Extent] = []  # sorted by logical start
        # Parallel list of logical starts, kept in lockstep with _extents so
        # the hot bisects run keyless over plain ints instead of paying an
        # attribute-access lambda per probe.
        self._starts: list[int] = []

    # -- queries ------------------------------------------------------------
    @property
    def extent_count(self) -> int:
        """Number of extents ("segments" in Table I)."""
        return len(self._extents)

    @property
    def mapped_blocks(self) -> int:
        """Total blocks with a mapping (written or preallocated)."""
        return sum(e.length for e in self._extents)

    @property
    def written_blocks(self) -> int:
        """Blocks holding real data (excludes unwritten preallocation)."""
        return sum(e.length for e in self._extents if not e.unwritten)

    @property
    def size_blocks(self) -> int:
        """One past the highest mapped logical block (0 when empty)."""
        if not self._extents:
            return 0
        return self._extents[-1].logical_end

    def extents(self) -> list[Extent]:
        """Snapshot of all extents in logical order."""
        return list(self._extents)

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self):
        return iter(self._extents)

    def _index_for(self, logical: int) -> int:
        """Index of the extent containing ``logical``, or -1."""
        i = bisect_right(self._starts, logical) - 1
        if i >= 0 and self._extents[i].logical <= logical < self._extents[i].logical_end:
            return i
        return -1

    def lookup_block(self, logical: int) -> Extent | None:
        """Extent containing file block ``logical``, or None (hole)."""
        i = self._index_for(logical)
        return self._extents[i] if i >= 0 else None

    def lookup_range(self, logical: int, count: int) -> list[Extent]:
        """All extent fragments overlapping [logical, logical+count), clipped
        to the range.  Holes are simply absent from the result."""
        if count <= 0:
            raise ExtentError(f"range count must be positive: {count}")
        out: list[Extent] = []
        end = logical + count
        i = bisect_right(self._starts, logical) - 1
        if i < 0:
            i = 0
        while i < len(self._extents):
            ext = self._extents[i]
            if ext.logical >= end:
                break
            lo = max(ext.logical, logical)
            hi = min(ext.logical_end, end)
            if lo < hi:
                out.append(
                    Extent(
                        logical=lo,
                        physical=ext.physical + (lo - ext.logical),
                        length=hi - lo,
                        flags=ext.flags,
                    )
                )
            i += 1
        return out

    def physical_runs(self, logical: int, count: int) -> list[tuple[int, int]]:
        """``(physical, length)`` for every *written* run overlapping
        [logical, logical+count), clipped to the range.

        The I/O-emission variant of :meth:`lookup_range`: same runs, minus
        unwritten extents, returned as plain tuples so the hot read/write
        paths skip per-fragment :class:`Extent` construction.
        """
        if count <= 0:
            raise ExtentError(f"range count must be positive: {count}")
        end = logical + count
        i = bisect_right(self._starts, logical) - 1
        if i < 0:
            i = 0
        extents = self._extents
        if i < len(extents):
            # Fast path: one written extent covers the whole range.
            ext = extents[i]
            el = ext.logical
            if el <= logical and el + ext.length >= end and not (ext.flags & 1):
                return [(ext.physical + (logical - el), count)]
        out: list[tuple[int, int]] = []
        for i in range(i, len(extents)):
            ext = extents[i]
            el = ext.logical
            if el >= end:
                break
            if ext.flags & 1:  # ExtentFlags.UNWRITTEN
                continue
            ee = el + ext.length
            lo = el if el > logical else logical
            hi = ee if ee < end else end
            if lo < hi:
                out.append((ext.physical + (lo - el), hi - lo))
        return out

    def physical_runs_many(
        self, los: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`physical_runs` of many ranges ``[los[i], los[i]+counts[i])``
        against this one map: ``(bounds, physical, length)`` int64 columns,
        range ``i`` owning rows ``bounds[i]:bounds[i+1]`` in logical order.

        The extents are gathered into columns once per call (O(extents)),
        so this pays only for many ranges at a time; callers with a few
        loop the scalar form.
        """
        if (counts <= 0).any():
            raise ExtentError(f"range count must be positive: {int(counts.min())}")
        n = los.shape[0]
        extents = self._extents
        m = len(extents)
        starts = np.array(self._starts, dtype=np.int64)
        ends = starts + np.fromiter(map(_LENGTH, extents), np.int64, m)
        his = los + counts
        # Extents overlapping range i: from the first one ending past lo
        # up to the first one starting at or past hi.
        first = np.searchsorted(ends, los, side="right")
        hits = np.maximum(np.searchsorted(starts, his, side="left") - first, 0)
        rows = np.repeat(np.arange(n), hits)
        total = rows.shape[0]
        ext = np.arange(total) + np.repeat(first - (np.cumsum(hits) - hits), hits)
        written = np.fromiter(map(_FLAGS, extents), np.int64, m)[ext] & 1 == 0
        rows = rows[written]
        ext = ext[written]
        el = starts[ext]
        lo = np.maximum(el, los[rows])
        physical = np.fromiter(map(_PHYSICAL, extents), np.int64, m)[ext] + (lo - el)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=bounds[1:])
        return bounds, physical, np.minimum(ends[ext], his[rows]) - lo

    def scan_write_range(
        self, logical: int, count: int
    ) -> tuple[list[tuple[int, int]], bool, list[tuple[int, int]] | None]:
        """One pass over [logical, logical+count) for the batched write path.

        Returns ``(holes, has_unwritten, runs)``: ``holes`` the unmapped
        ``(start, length)`` gaps, ``has_unwritten`` whether any unwritten
        extent overlaps the range (i.e. :meth:`mark_written` would change
        something), and ``runs`` is the :meth:`physical_runs` result when
        the range is fully written — or None when holes/unwritten extents
        mean the caller must allocate and re-scan first.
        """
        if count <= 0:
            raise ExtentError(f"range count must be positive: {count}")
        holes: list[tuple[int, int]] = []
        runs: list[tuple[int, int]] = []
        has_unwritten = False
        cursor = logical
        end = logical + count
        i = bisect_right(self._starts, logical) - 1
        if i < 0:
            i = 0
        extents = self._extents
        for i in range(i, len(extents)):
            ext = extents[i]
            el = ext.logical
            if el >= end:
                break
            ee = el + ext.length
            if ee <= cursor:
                continue
            if el > cursor:
                holes.append((cursor, el - cursor))
            if ext.flags & 1:  # ExtentFlags.UNWRITTEN
                has_unwritten = True
            else:
                lo = el if el > cursor else cursor
                hi = ee if ee < end else end
                runs.append((ext.physical + (lo - el), hi - lo))
            cursor = ee if ee < end else end
        if cursor < end:
            holes.append((cursor, end - cursor))
        if holes or has_unwritten:
            return holes, has_unwritten, None
        return holes, False, runs

    def holes_in_range(self, logical: int, count: int) -> list[tuple[int, int]]:
        """Unmapped (start, length) gaps inside [logical, logical+count)."""
        return self.scan_write_range(logical, count)[0]

    # -- mutation -------------------------------------------------------------
    def insert(self, extent: Extent) -> None:
        """Insert a new mapping; overlap with an existing extent is an error."""
        extents = self._extents
        if extents:
            # Fast path: appending at the end (sequential growth), the
            # overwhelmingly common case on the write path.
            prev = extents[-1]
            pe = prev.logical + prev.length
            if pe <= extent.logical:
                if (
                    pe == extent.logical
                    and prev.physical + prev.length == extent.physical
                    and prev.flags == extent.flags
                ):
                    extents[-1] = Extent(
                        prev.logical,
                        prev.physical,
                        prev.length + extent.length,
                        prev.flags,
                    )
                else:
                    extents.append(extent)
                    self._starts.append(extent.logical)
                return
        i = bisect_right(self._starts, extent.logical)
        if i > 0 and self._extents[i - 1].logical_end > extent.logical:
            raise ExtentError(f"overlap: {extent} vs {self._extents[i - 1]}")
        if i < len(self._extents) and self._extents[i].logical < extent.logical_end:
            raise ExtentError(f"overlap: {extent} vs {self._extents[i]}")
        # Try merging with neighbours.
        if i > 0 and self._extents[i - 1].abuts(extent):
            prev = self._extents[i - 1]
            extent = Extent(prev.logical, prev.physical, prev.length + extent.length, prev.flags)
            self._extents.pop(i - 1)
            self._starts.pop(i - 1)
            i -= 1
        if i < len(self._extents) and extent.abuts(self._extents[i]):
            nxt = self._extents[i]
            extent = Extent(extent.logical, extent.physical, extent.length + nxt.length, extent.flags)
            self._extents.pop(i)
            self._starts.pop(i)
        self._extents.insert(i, extent)
        self._starts.insert(i, extent.logical)

    def insert_many(self, rows) -> None:
        """Insert many mappings at once: ``rows`` holds one ``(logical,
        physical, length, flags)`` int64 row per new extent, in any order.

        Leaves the map as the loop of :meth:`insert` over the rows would
        (the map is maximally merged, so the result does not depend on the
        order), except that an overlap — with the map or between rows —
        raises :class:`~repro.errors.ExtentError` before anything changed.
        The map's extents are gathered into columns once per call
        (O(extents)), so this pays only for many rows at a time.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        if rows.shape[0] == 0:
            return
        if (rows[:, :2] < 0).any() or (rows[:, 2] <= 0).any():
            raise ExtentError("negative extent coordinates or non-positive length in rows")
        old = self._extents
        m = len(old)
        total = m + rows.shape[0]
        cols = np.empty((total, 4), dtype=np.int64)
        cols[:m, 0] = self._starts
        cols[:m, 1] = np.fromiter(map(_PHYSICAL, old), np.int64, m)
        cols[:m, 2] = np.fromiter(map(_LENGTH, old), np.int64, m)
        cols[:m, 3] = np.fromiter(map(_FLAGS, old), np.int64, m)
        cols[m:] = rows
        order = np.argsort(cols[:, 0], kind="stable")
        logical, physical, length, flags = cols[order].T
        end = logical + length
        clash = np.flatnonzero(logical[1:] < end[:-1])
        if clash.shape[0]:
            a, b = (Extent(*cols[order[j]].tolist()) for j in (clash[0], clash[0] + 1))
            raise ExtentError(f"overlap: {b} vs {a}")
        # An extent opens unless it continues its left neighbour logically
        # and physically with the same flags; the rest merge into it.
        opens = np.ones(total, dtype=bool)
        opens[1:] = (
            (logical[1:] != end[:-1])
            | (physical[1:] != physical[:-1] + length[:-1])
            | (flags[1:] != flags[:-1])
        )
        heads = np.flatnonzero(opens)
        source = order[heads]
        # An old extent that merged with nothing keeps its object.
        kept = (np.diff(heads, append=total) == 1) & (source < m)
        starts = logical[heads].tolist()
        self._extents = [
            old[i] if keep else Extent(lo, phys, n, flag)
            for keep, i, lo, phys, n, flag in zip(
                kept.tolist(), source.tolist(), starts, physical[heads].tolist(),
                np.add.reduceat(length, heads).tolist(), flags[heads].tolist(),
            )
        ]
        self._starts = starts

    def mark_written(self, logical: int, count: int) -> None:
        """Convert unwritten (preallocated) blocks in the range to written,
        splitting extents as needed."""
        if count <= 0:
            raise ExtentError(f"count must be positive: {count}")
        end = logical + count
        i = bisect_right(self._starts, logical) - 1
        if i < 0:
            i = 0
        while i < len(self._extents):
            ext = self._extents[i]
            if ext.logical >= end:
                break
            if not ext.unwritten or ext.logical_end <= logical:
                i += 1
                continue
            lo = max(ext.logical, logical)
            hi = min(ext.logical_end, end)
            pieces: list[Extent] = []
            if ext.logical < lo:
                pieces.append(
                    Extent(ext.logical, ext.physical, lo - ext.logical, ext.flags)
                )
            pieces.append(
                Extent(lo, ext.physical + (lo - ext.logical), hi - lo, ExtentFlags.NONE)
            )
            if hi < ext.logical_end:
                pieces.append(
                    Extent(hi, ext.physical + (hi - ext.logical), ext.logical_end - hi, ext.flags)
                )
            self._extents[i : i + 1] = pieces
            self._starts[i : i + 1] = [p.logical for p in pieces]
            # Re-merge the written piece with its neighbours where possible.
            j = i + (1 if ext.logical < lo else 0)
            self._remerge_around(j)
            i = j + 1
        return None

    def _remerge_around(self, i: int) -> None:
        """Merge extent at index ``i`` with abutting neighbours."""
        if not (0 <= i < len(self._extents)):
            return
        # merge left
        if i > 0 and self._extents[i - 1].abuts(self._extents[i]):
            prev, cur = self._extents[i - 1], self._extents[i]
            self._extents[i - 1 : i + 1] = [
                Extent(prev.logical, prev.physical, prev.length + cur.length, prev.flags)
            ]
            del self._starts[i]
            i -= 1
        # merge right
        if i + 1 < len(self._extents) and self._extents[i].abuts(self._extents[i + 1]):
            cur, nxt = self._extents[i], self._extents[i + 1]
            self._extents[i : i + 2] = [
                Extent(cur.logical, cur.physical, cur.length + nxt.length, cur.flags)
            ]
            del self._starts[i + 1]

    def remove_range(self, logical: int, count: int) -> list[Extent]:
        """Unmap [logical, logical+count); returns the removed fragments
        (for the caller to free their physical blocks)."""
        removed = self.lookup_range(logical, count)
        if not removed:
            return []
        end = logical + count
        kept: list[Extent] = []
        for ext in self._extents:
            if ext.logical_end <= logical or ext.logical >= end:
                kept.append(ext)
                continue
            if ext.logical < logical:
                kept.append(
                    Extent(ext.logical, ext.physical, logical - ext.logical, ext.flags)
                )
            if ext.logical_end > end:
                kept.append(
                    Extent(end, ext.physical + (end - ext.logical), ext.logical_end - end, ext.flags)
                )
        self._extents = kept
        self._starts = [e.logical for e in kept]
        return removed

    def clear(self) -> list[Extent]:
        """Unmap everything; returns the removed extents."""
        removed = self._extents
        self._extents = []
        self._starts = []
        return removed


def extent_columns(maps) -> tuple[list[Extent], np.ndarray, np.ndarray, list]:
    """Gather ``maps`` flat, in map order, and find the broken ones in one
    numpy pass: ``(extents, owner, cols, invalid)``, where row ``r`` is
    ``extents[r]``, held by map ``owner[r]``, ``cols[:, r]`` is its
    ``(logical, physical, length, flags)`` and ``invalid`` lists ``(map
    index, message)``.  A map's first adjacent pair that overlaps (or is out
    of order) or abuts unmerged names its fault; a map whose pairs are sound
    is still broken when its start index is out of step with its extents."""
    lists = list(map(_EXTENTS, maps))
    extents = list(chain.from_iterable(lists))
    n = len(extents)
    counts = np.fromiter(map(len, lists), np.int64, len(lists))
    owner = np.repeat(np.arange(len(lists)), counts)
    cols = np.stack([
        np.fromiter(map(get, extents), np.int64, n)
        for get in (_LOGICAL, _PHYSICAL, _LENGTH, _FLAGS)
    ])
    logical, physical, length, flags = cols
    end = logical + length
    overlap = end[:-1] > logical[1:]
    bad = (owner[:-1] == owner[1:]) & (overlap | (
        (logical[1:] == end[:-1])
        & (physical[1:] == physical[:-1] + length[:-1])
        & (flags[1:] == flags[:-1])
    ))
    pairs = np.flatnonzero(bad)
    hit, first = np.unique(owner[pairs], return_index=True)
    invalid = {
        m: f"{'overlapping' if overlap[i] else 'unmerged abutting'} extents: "
        f"{extents[i]} / {extents[i + 1]}"
        for m, i in zip(hit.tolist(), pairs[first].tolist())
    }
    # A start index of the wrong length is stale outright; the others line
    # up row for row with the extents.
    starts = list(map(_STARTS, maps))
    scounts = np.fromiter(map(len, starts), np.int64, len(starts))
    flat = np.fromiter(chain.from_iterable(starts), np.int64, int(scounts.sum()))
    same = scounts == counts
    stale = ~same
    rows = same[owner]
    stale[owner[rows][flat[np.repeat(same, scounts)] != logical[rows]]] = True
    for m in np.flatnonzero(stale).tolist():
        invalid.setdefault(m, "start index out of sync with extents")
    return extents, owner, cols, sorted(invalid.items())
