"""Plain-text visualization of on-disk layout and fragmentation.

Console-friendly reports for debugging placement behaviour and for the
examples: a layout map showing which stream's data occupies each region of
a PAG, and an extent-size histogram.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile

_GLYPHS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def layout_map(plane: DataPlane, f: RedbudFile, slot: int = 0, width: int = 64) -> str:
    """ASCII map of one PAG: each cell is a block range, lettered by the
    *logical region* of the file that occupies it ('.' = free/foreign).

    Interleaved placement shows as salt-and-pepper; per-stream contiguity
    as solid runs — Figure 1(a) at a glance.
    """
    if not (0 <= slot < f.width):
        raise ValueError(f"slot out of range: {slot}")
    if width <= 0:
        raise ValueError(f"width must be positive: {width}")
    extents = f.maps[slot].extents()
    if not extents:
        return "." * width
    # Map only the span the file actually occupies, so the picture shows
    # placement structure rather than the empty remainder of the PAG.
    base = min(e.physical for e in extents)
    end = max(e.physical_end for e in extents)
    span = max(1, end - base)
    cells = [Counter() for _ in range(width)]
    regions = 16  # logical space bucketed into 16 lettered regions
    logical_span = max(1, f.maps[slot].size_blocks)
    for ext in extents:
        for b in range(ext.physical, ext.physical_end):
            logical = ext.logical + (b - ext.physical)
            region = min(regions - 1, logical * regions // logical_span)
            cell = (b - base) * width // span
            if 0 <= cell < width:
                cells[cell][region] += 1
    out = []
    for counter in cells:
        if not counter:
            out.append(".")
        else:
            region, _ = counter.most_common(1)[0]
            out.append(_GLYPHS[region % len(_GLYPHS)])
    return "".join(out)


def extent_histogram(f: RedbudFile, buckets: int = 8) -> str:
    """Log2 histogram of extent lengths (blocks) over all slots.

    >>> from repro.fs.file import RedbudFile
    >>> from repro.block.extent import Extent
    >>> f = RedbudFile(1, "/f", [0], 64)
    >>> f.maps[0].insert(Extent(0, 100, 1))
    >>> "1" in extent_histogram(f)
    True
    """
    if buckets <= 0:
        raise ValueError(f"buckets must be positive: {buckets}")
    counts = Counter()
    for smap in f.maps:
        for ext in smap:
            counts[min(buckets - 1, int(math.log2(ext.length)))] += 1
    total = sum(counts.values())
    if total == 0:
        return "(no extents)"
    lines = [f"extents: {total}"]
    peak = max(counts.values())
    for b in range(buckets):
        lo = 1 << b
        hi = (1 << (b + 1)) - 1
        label = f">={lo}" if b == buckets - 1 else f"{lo}-{hi}"
        n = counts.get(b, 0)
        bar = "#" * (0 if peak == 0 else round(20 * n / peak))
        lines.append(f"{label:>8s} blocks | {bar:<20s} {n}")
    return "\n".join(lines)
