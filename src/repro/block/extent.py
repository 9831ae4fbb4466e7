"""Extents and per-file extent maps.

Redbud's "basic element of file layout is extent, which is identified by a
tuple of [file offset, group offset, length, flags]" (§V.A).  The extent map
is the logical→physical indirection whose fragmentation the paper measures:
Table I's "Seg Counts" column is exactly ``ExtentMap.extent_count`` after
each run.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from itertools import chain

import numpy as np

from repro.errors import ExtentError


class ExtentFlags(enum.IntFlag):
    """Extent state flags."""

    NONE = 0
    #: Preallocated but not yet written (fallocate-style unwritten extent).
    UNWRITTEN = 1


class Extent:
    """A contiguous mapping of file logical blocks to physical blocks.

    ``logical`` is the file block offset, ``physical`` the global disk block
    (PAG-resolved "group offset"), ``length`` the run length in blocks.

    An :class:`ExtentMap` stores columns, not extents: this is the value
    its callers hand in and get back.  A plain slots class rather than a
    frozen dataclass: the write path builds one per insert, and the frozen
    init path costs ~3x a plain one.  Instances are treated as immutable by convention; value
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

    The map is the paper's extent tuple as four ``list[int]`` columns —
    ``_logical``, ``_physical``, ``_length``, ``_flags`` — sorted by logical
    start, so the hot scalar lookups bisect a plain list; :class:`Extent`
    values are built only for the callers that ask for them.

    Adjacent extents that continue each other both logically and physically
    are merged on insert, so ``extent_count`` reflects true fragmentation:
    interleaved allocation from concurrent streams produces logical-adjacent
    but physical-scattered blocks that cannot merge.
    """

    # A file holds one map per stripe slot, most of them empty on a wide
    # layout: slots keep an empty map four empty lists and nothing more.
    __slots__ = ("_logical", "_physical", "_length", "_flags")

    def __init__(self) -> None:
        self._logical: list[int] = []
        self._physical: list[int] = []
        self._length: list[int] = []
        self._flags: list[int] = []

    # -- queries ------------------------------------------------------------
    @property
    def extent_count(self) -> int:
        """Number of extents ("segments" in Table I)."""
        return len(self._logical)

    @property
    def mapped_blocks(self) -> int:
        """Total blocks with a mapping (written or preallocated)."""
        return sum(self._length)

    @property
    def written_blocks(self) -> int:
        """Blocks holding real data (excludes unwritten preallocation)."""
        return sum(n for n, flags in zip(self._length, self._flags) if not flags & 1)

    @property
    def size_blocks(self) -> int:
        """One past the highest mapped logical block (0 when empty)."""
        if not self._logical:
            return 0
        return self._logical[-1] + self._length[-1]

    def columns(self) -> np.ndarray:
        """The map as a ``(4, extents)`` int64 array: rows ``logical``,
        ``physical``, ``length`` and ``flags``, extents in logical order."""
        return np.array(
            (self._logical, self._physical, self._length, self._flags), dtype=np.int64
        )

    def _extent(self, i: int) -> Extent:
        return Extent(self._logical[i], self._physical[i], self._length[i], self._flags[i])

    def extents(self) -> list[Extent]:
        """Snapshot of all extents in logical order."""
        return list(self)

    def __len__(self) -> int:
        return len(self._logical)

    def __iter__(self):
        return map(Extent, self._logical, self._physical, self._length, self._flags)

    def lookup_block(self, logical: int) -> Extent | None:
        """Extent containing file block ``logical``, or None (hole)."""
        i = bisect_right(self._logical, logical) - 1
        if i >= 0 and logical < self._logical[i] + self._length[i]:
            return self._extent(i)
        return None

    def lookup_range(self, logical: int, count: int) -> list[Extent]:
        """All extent fragments overlapping [logical, logical+count), clipped
        to the range.  Holes are simply absent from the result."""
        if count <= 0:
            raise ExtentError(f"range count must be positive: {count}")
        out: list[Extent] = []
        end = logical + count
        starts, physical, length, flags = self._logical, self._physical, self._length, self._flags
        for i in range(max(bisect_right(starts, logical) - 1, 0), len(starts)):
            el = starts[i]
            if el >= end:
                break
            lo = max(el, logical)
            hi = min(el + length[i], end)
            if lo < hi:
                out.append(Extent(lo, physical[i] + (lo - el), hi - lo, flags[i]))
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
        starts, physical, length, flags = self._logical, self._physical, self._length, self._flags
        i = bisect_right(starts, logical) - 1
        if i < 0:
            i = 0
        elif starts[i] + length[i] >= end and not flags[i] & 1:
            # Fast path: one written extent covers the whole range.
            return [(physical[i] + (logical - starts[i]), count)]
        out: list[tuple[int, int]] = []
        for i in range(i, len(starts)):
            el = starts[i]
            if el >= end:
                break
            if flags[i] & 1:  # ExtentFlags.UNWRITTEN
                continue
            ee = el + length[i]
            lo = el if el > logical else logical
            hi = ee if ee < end else end
            if lo < hi:
                out.append((physical[i] + (lo - el), hi - lo))
        return out

    def physical_runs_many(
        self, los: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`physical_runs` of many ranges ``[los[i], los[i]+counts[i])``
        against this one map: ``(bounds, physical, length)`` int64 columns,
        range ``i`` owning rows ``bounds[i]:bounds[i+1]`` in logical order.

        The map's columns become arrays once per call (O(extents)), so this
        pays only for many ranges at a time; callers with a few loop the
        scalar form.
        """
        if (counts <= 0).any():
            raise ExtentError(f"range count must be positive: {int(counts.min())}")
        n = los.shape[0]
        starts, physical, length, flags = self.columns()
        ends = starts + length
        his = los + counts
        # Extents overlapping range i: from the first one ending past lo
        # up to the first one starting at or past hi.
        first = np.searchsorted(ends, los, side="right")
        hits = np.maximum(np.searchsorted(starts, his, side="left") - first, 0)
        rows = np.repeat(np.arange(n), hits)
        total = rows.shape[0]
        ext = np.arange(total) + np.repeat(first - (np.cumsum(hits) - hits), hits)
        written = flags[ext] & 1 == 0
        rows = rows[written]
        ext = ext[written]
        el = starts[ext]
        lo = np.maximum(el, los[rows])
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=bounds[1:])
        return bounds, physical[ext] + (lo - el), np.minimum(ends[ext], his[rows]) - lo

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
        starts, physical, length, flags = self._logical, self._physical, self._length, self._flags
        i = bisect_right(starts, logical) - 1
        if i < 0:
            i = 0
        for i in range(i, len(starts)):
            el = starts[i]
            if el >= end:
                break
            ee = el + length[i]
            if ee <= cursor:
                continue
            if el > cursor:
                holes.append((cursor, el - cursor))
            if flags[i] & 1:  # ExtentFlags.UNWRITTEN
                has_unwritten = True
            else:
                lo = el if el > cursor else cursor
                hi = ee if ee < end else end
                runs.append((physical[i] + (lo - el), hi - lo))
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
        starts, length = self._logical, self._length
        logical = extent.logical
        if starts:
            # Fast path: appending at the end (sequential growth), the
            # overwhelmingly common case on the write path.
            pe = starts[-1] + length[-1]
            if pe <= logical:
                if (
                    pe == logical
                    and self._physical[-1] + length[-1] == extent.physical
                    and self._flags[-1] == extent.flags
                ):
                    length[-1] += extent.length
                else:
                    starts.append(logical)
                    self._physical.append(extent.physical)
                    length.append(extent.length)
                    self._flags.append(extent.flags)
                return
        a = b = bisect_right(starts, logical)
        if a > 0 and starts[a - 1] + length[a - 1] > logical:
            raise ExtentError(f"overlap: {extent} vs {self._extent(a - 1)}")
        physical, n, flags = extent.physical, extent.length, extent.flags
        end = logical + n
        if b < len(starts) and starts[b] < end:
            raise ExtentError(f"overlap: {extent} vs {self._extent(b)}")
        # Merge with the neighbours the new extent continues (or that
        # continue it) logically and physically with the same flags.
        phys, flag = self._physical, self._flags
        if a > 0 and starts[a - 1] + length[a - 1] == logical and (
            phys[a - 1] + length[a - 1] == physical and flag[a - 1] == flags
        ):
            a -= 1
            logical, physical, n = starts[a], phys[a], n + length[a]
        if b < len(starts) and starts[b] == end and phys[b] == physical + n and flag[b] == flags:
            n += length[b]
            b += 1
        if a == b:
            starts.insert(a, logical)
            phys.insert(a, physical)
            length.insert(a, n)
            flag.insert(a, flags)
        else:
            starts[a:b] = (logical,)
            phys[a:b] = (physical,)
            length[a:b] = (n,)
            flag[a:b] = (flags,)

    def insert_many(self, rows) -> None:
        """Insert many mappings at once: ``rows`` holds one ``(logical,
        physical, length, flags)`` int64 row per new extent, in any order.

        Leaves the map as the loop of :meth:`insert` over the rows would
        (the map is maximally merged, so the result does not depend on the
        order), except that an overlap — with the map or between rows —
        raises :class:`~repro.errors.ExtentError` before anything changed.
        The map's columns become arrays once per call (O(extents)), so this
        pays only for many rows at a time.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        if rows.shape[0] == 0:
            return
        if (rows[:, :2] < 0).any() or (rows[:, 2] <= 0).any():
            raise ExtentError("negative extent coordinates or non-positive length in rows")
        cols = np.concatenate((self.columns(), rows.T), axis=1)
        order = np.argsort(cols[0], kind="stable")
        cols = cols[:, order]
        logical, physical, length, flags = cols
        end = logical + length
        clash = np.flatnonzero(logical[1:] < end[:-1])
        if clash.shape[0]:
            a, b = (Extent(*cols[:, j].tolist()) for j in (clash[0], clash[0] + 1))
            raise ExtentError(f"overlap: {b} vs {a}")
        # An extent opens unless it continues its left neighbour logically
        # and physically with the same flags; the rest merge into it.
        opens = np.ones(logical.shape[0], dtype=bool)
        opens[1:] = (
            (logical[1:] != end[:-1])
            | (physical[1:] != physical[:-1] + length[:-1])
            | (flags[1:] != flags[:-1])
        )
        heads = np.flatnonzero(opens)
        self._logical = logical[heads].tolist()
        self._physical = physical[heads].tolist()
        self._length = np.add.reduceat(length, heads).tolist()
        self._flags = flags[heads].tolist()

    def _splice(self, a: int, b: int, pieces: list[Extent]) -> None:
        """Replace extents ``a:b`` with ``pieces``."""
        self._logical[a:b] = [e.logical for e in pieces]
        self._physical[a:b] = [e.physical for e in pieces]
        self._length[a:b] = [e.length for e in pieces]
        self._flags[a:b] = [e.flags for e in pieces]

    def mark_written(self, logical: int, count: int) -> None:
        """Convert unwritten (preallocated) blocks in the range to written,
        splitting extents as needed."""
        if count <= 0:
            raise ExtentError(f"count must be positive: {count}")
        end = logical + count
        starts = self._logical
        i = max(bisect_right(starts, logical) - 1, 0)
        while i < len(starts) and starts[i] < end:
            ext = self._extent(i)
            if not ext.unwritten or ext.logical_end <= logical:
                i += 1
                continue
            lo = max(ext.logical, logical)
            hi = min(ext.logical_end, end)
            written = Extent(lo, ext.physical + (lo - ext.logical), hi - lo)
            # The pieces replace extents a:b — this one, and a written
            # neighbour the written piece continues on either side.
            a, b = i, i + 1
            pieces = [written]
            if ext.logical < lo:
                pieces.insert(0, Extent(ext.logical, ext.physical, lo - ext.logical, ext.flags))
            elif a > 0 and (prev := self._extent(a - 1)).abuts(written):
                written = Extent(prev.logical, prev.physical, prev.length + written.length)
                pieces[0] = written
                a -= 1
            if hi < ext.logical_end:
                pieces.append(Extent(
                    hi, ext.physical + (hi - ext.logical), ext.logical_end - hi, ext.flags
                ))
            elif b < len(starts) and written.abuts(nxt := self._extent(b)):
                pieces[-1] = Extent(written.logical, written.physical, written.length + nxt.length)
                b += 1
            self._splice(a, b, pieces)
            i = a + len(pieces)

    def remove_range(self, logical: int, count: int) -> list[Extent]:
        """Unmap [logical, logical+count); returns the removed fragments
        (for the caller to free their physical blocks)."""
        removed = self.lookup_range(logical, count)
        if not removed:
            return []
        end = logical + count
        # Extents a:b overlap the range; only the first and the last can
        # keep a piece outside it.
        starts = self._logical
        a = max(bisect_right(starts, logical) - 1, 0)
        if starts[a] + self._length[a] <= logical:
            a += 1
        b = bisect_left(starts, end)
        first, last = self._extent(a), self._extent(b - 1)
        pieces = []
        if first.logical < logical:
            pieces.append(
                Extent(first.logical, first.physical, logical - first.logical, first.flags)
            )
        if last.logical_end > end:
            pieces.append(Extent(
                end, last.physical + (end - last.logical), last.logical_end - end, last.flags
            ))
        self._splice(a, b, pieces)
        return removed

    def clear(self) -> list[Extent]:
        """Unmap everything; returns the removed extents."""
        removed = self.extents()
        self._logical, self._physical, self._length, self._flags = [], [], [], []
        return removed


def extent_columns(maps) -> tuple[np.ndarray, np.ndarray]:
    """Gather ``maps`` flat, in map order: ``(owner, cols)``, where row
    ``r`` is held by map ``owner[r]`` and ``cols[:, r]`` is its ``(logical,
    physical, length, flags)``."""
    logical = [m._logical for m in maps]
    counts = np.fromiter(map(len, logical), np.int64, len(logical))
    # Most maps of a striped file are empty: only the others are walked.
    held = [m for m in maps if m._logical]
    cols = np.array([
        list(chain.from_iterable([m._logical for m in held])),
        list(chain.from_iterable([m._physical for m in held])),
        list(chain.from_iterable([m._length for m in held])),
        list(chain.from_iterable([m._flags for m in held])),
    ], dtype=np.int64).reshape(4, -1)
    return np.repeat(np.arange(len(logical)), counts), cols


def invalid_maps(owner: np.ndarray, cols: np.ndarray) -> list[tuple[int, str]]:
    """The broken maps of an :func:`extent_columns` gather, found in one
    numpy pass: ``(map index, message)``, ascending.  A map's first
    adjacent pair that overlaps (or is out of order) or abuts unmerged
    names its fault."""
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
    return [
        (m, f"{'overlapping' if overlap[i] else 'unmerged abutting'} extents: "
         f"{Extent(*cols[:, i].tolist())} / {Extent(*cols[:, i + 1].tolist())}")
        for m, i in zip(hit.tolist(), pairs[first].tolist())
    ]
