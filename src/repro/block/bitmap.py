"""Block bitmap used inside the metadata file system's block groups.

The data path tracks free space with :class:`~repro.block.freelist.FreeExtentSet`;
the MDS's ext3-style metadata file system instead keeps classic per-group
bitmaps, because *which bitmap blocks get dirtied* matters to the results:
Fig. 8 attributes the small deletion win of embedded directories to the fact
that "the embedded mode only eliminates the disk access of the updates on
the inode bitmap blocks".
"""

from __future__ import annotations

import numpy as np

from repro.errors import AllocationError, NoSpaceError


class BlockBitmap:
    """A numpy-backed used/free bitmap for one block group.

    Block numbers are group-local (0-based).  ``bits_per_block`` tells which
    on-disk bitmap block covers a given bit, so callers can account dirty
    bitmap-block writes.
    """

    def __init__(self, size: int, bits_per_block: int = 4096 * 8) -> None:
        if size <= 0:
            raise AllocationError(f"bitmap size must be positive: {size}")
        if bits_per_block <= 0:
            raise AllocationError(f"bits_per_block must be positive: {bits_per_block}")
        self.size = size
        self.bits_per_block = bits_per_block
        self._used = np.zeros(size, dtype=bool)
        # Rotating default search start: avoids rescanning the used prefix
        # of a filling bitmap on every unhinted allocation.
        self._rotor = 0
        # Incremental population count, maintained on every mutation so
        # ``used_count`` never pays an O(size) ``.sum()``.
        self._used_count = 0

    # -- queries ------------------------------------------------------------
    @property
    def used_count(self) -> int:
        return self._used_count

    @property
    def free_count(self) -> int:
        return self.size - self.used_count

    def is_used(self, bit: int) -> bool:
        self._check(bit, 1)
        return bool(self._used[bit])

    def is_range_free(self, start: int, count: int) -> bool:
        self._check(start, count)
        return not self._used[start : start + count].any()

    # -- mutation ---------------------------------------------------------
    def set_range(self, start: int, count: int) -> list[int]:
        """Mark [start, start+count) used; returns dirtied bitmap blocks."""
        self._check(start, count)
        used = self._used[start] if count == 1 else self._used[start : start + count].any()
        if used:
            raise AllocationError(f"double allocation in [{start}, {start + count})")
        self._used[start : start + count] = True
        self._used_count += count
        self._rotor = start + count if start + count < self.size else 0
        return self._dirty_blocks(start, count)

    def clear_range(self, start: int, count: int) -> list[int]:
        """Mark [start, start+count) free; returns dirtied bitmap blocks."""
        self._check(start, count)
        used = self._used[start] if count == 1 else self._used[start : start + count].all()
        if not used:
            raise AllocationError(f"double free in [{start}, {start + count})")
        self._used[start : start + count] = False
        self._used_count -= count
        # Rewind the rotor so freed slots are found again (first-fit reuse,
        # like ext3's bitmap scans from the group start).
        self._rotor = min(self._rotor, start)
        return self._dirty_blocks(start, count)

    def load_mask(self, mask: np.ndarray) -> None:
        """Bulk-load a used/free pattern into an *empty* bitmap.

        Used by the aging harness to install a fragmented state directly
        (simulating long create/delete churn) without paying per-allocation
        costs.
        """
        if self.used_count != 0:
            raise AllocationError("load_mask requires an empty bitmap")
        if mask.shape != (self.size,) or mask.dtype != np.bool_:
            raise AllocationError(
                f"mask must be a bool array of {self.size} bits, got "
                f"{mask.dtype} {mask.shape}"
            )
        self._used = mask.copy()
        self._used_count = int(mask.sum())
        self._rotor = 0

    def occupy_mask(self, mask: np.ndarray) -> int:
        """Mark every bit set in ``mask`` as used, ignoring bits that are
        already used (aging a live file system).  Returns the number of
        bits newly occupied."""
        if mask.shape != (self.size,) or mask.dtype != np.bool_:
            raise AllocationError(
                f"mask must be a bool array of {self.size} bits, got "
                f"{mask.dtype} {mask.shape}"
            )
        fresh = int((mask & ~self._used).sum())
        self._used |= mask
        self._used_count += fresh
        self._rotor = 0
        return fresh

    def find_free_run(self, count: int, hint: int | None = None) -> int:
        """First free run of ``count`` bits at/after ``hint`` (wrapping);
        raises :class:`NoSpaceError` if none exists.  Without a hint the
        search starts at the internal rotor (after the last allocation)."""
        if count <= 0:
            raise AllocationError(f"count must be positive: {count}")
        if hint is None:
            hint = self._rotor
        hint = min(max(hint, 0), self.size - 1)
        # Fast path: the run right at the search start is usually free (the
        # rotor trails the last allocation and frees rewind it), and the
        # chunked scan below would return exactly this position.
        if count == 1:
            if not self._used[hint]:
                return int(hint)
        elif hint + count <= self.size and not self._used[hint : hint + count].any():
            return int(hint)
        # The wrap pass extends past the hint by count-1 bits so a free run
        # straddling the hint is still found.
        for lo, hi in ((hint, self.size), (0, min(self.size, hint + count - 1))):
            start = self._scan(lo, hi, count)
            if start >= 0:
                return start
        raise NoSpaceError(f"no free run of {count} bits")

    #: Bits examined per scan step; bounds the numpy work per call so hot
    #: allocation loops (aging churn) stay fast on mostly-empty groups.
    _SCAN_CHUNK = 8192

    def _scan(self, lo: int, hi: int, count: int) -> int:
        """Find a free run of ``count`` bits inside [lo, hi); -1 if none."""
        if hi - lo < count:
            return -1
        if count == 1:
            # Chunked first-free-bit search with early exit.  argmin on a
            # bool window finds the first False without materializing the
            # inverted mask or an index array.
            for base in range(lo, hi, self._SCAN_CHUNK):
                window = self._used[base : min(base + self._SCAN_CHUNK, hi)]
                idx = int(window.argmin())
                if not window[idx]:
                    return idx + base
            return -1
        # Chunked run-length scan; chunks overlap by count-1 so runs that
        # straddle a boundary are still found.
        step = max(self._SCAN_CHUNK, 4 * count)
        for base in range(lo, hi, step):
            end = min(base + step + count - 1, hi)
            free = ~self._used[base:end]
            padded = np.concatenate(([False], free, [False]))
            edges = np.flatnonzero(padded[1:] != padded[:-1])
            for s, e in zip(edges[::2], edges[1::2]):
                if e - s >= count:
                    return int(s) + base
            if end >= hi:
                break
        return -1

    def _dirty_blocks(self, start: int, count: int) -> list[int]:
        first = start // self.bits_per_block
        last = (start + count - 1) // self.bits_per_block
        return list(range(first, last + 1))

    def _check(self, start: int, count: int) -> None:
        if count <= 0:
            raise AllocationError(f"count must be positive: {count}")
        if start < 0 or start + count > self.size:
            raise AllocationError(
                f"range [{start}, {start + count}) outside bitmap of {self.size}"
            )
