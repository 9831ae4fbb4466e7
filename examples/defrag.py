#!/usr/bin/env python3
"""Offline defragmentation (the e4defrag-style alternative MiF obviates).

The traditional answer to intra-file fragmentation is to rewrite the file
contiguously after the fact.  This tool does exactly that — per rotation
slot, allocate one contiguous (best-effort) destination, copy, free the old
blocks — and reports the cost, so benchmarks can compare "fragment now,
defragment later" against MiF's "never fragment" placement.

Unlike the read replicas of ``replication.py``, defragmentation
*replaces* the layout: the extent map is rewritten and the old blocks are
freed.  No runner or claim of the package uses it: the defrag ablation and
``tests/test_fs_extensions.py`` import :func:`defragment`, and running the
file fragments a shared file, then defragments it.

Run:  python examples/defrag.py [nstreams]
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.block.extent import Extent, ExtentFlags
from repro.disk.model import BlockRequest
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.profiles import redbud_vanilla_profile, with_alloc_policy
from repro.sim.visual import layout_map
from repro.units import KiB, MiB
from repro.workloads.streams import SharedFileMicrobench


@dataclass(frozen=True)
class DefragResult:
    """Outcome of defragmenting one file."""

    extents_before: int
    extents_after: int
    blocks_moved: int
    #: Simulated seconds the copy cost (read fragmented + write contiguous).
    elapsed_s: float

    @property
    def improvement(self) -> float:
        """Extent-count reduction factor (1.0 = no change)."""
        if self.extents_after == 0:
            return 1.0
        return self.extents_before / self.extents_after


def defragment(plane: DataPlane, f: RedbudFile) -> DefragResult:
    """Rewrite ``f`` contiguously per slot; returns cost and effect.

    Unwritten (preallocated) extents are dropped — a defragmenter only
    moves data.
    """
    extents_before = f.extent_count
    requests: list[BlockRequest] = []
    blocks_moved = 0
    for slot, smap in enumerate(f.maps):
        old = [e for e in smap.extents() if not e.unwritten]
        if not old:
            smap.clear()
            continue
        # Read the fragmented original.
        for e in old:
            requests.append(BlockRequest(e.physical, e.length, is_write=False))
        total = sum(e.length for e in old)
        # Allocate the destination (contiguous best effort), logical order.
        pieces: list[tuple[int, int]] = []  # (start, length)
        remaining = total
        hint = None
        while remaining > 0:
            start, got = plane.fsm.allocate_in_group(
                f.layout[slot], remaining, hint=hint, minimum=1
            )
            pieces.append((start, got))
            requests.append(BlockRequest(start, got, is_write=True))
            hint = start + got
            remaining -= got
        # Rewrite the map: logical order packed into the new pieces.
        flat = [(e.logical, e.length) for e in sorted(old, key=lambda e: e.logical)]
        for e in smap.clear():
            plane.fsm.free(e.physical, e.length)
        piece_iter = iter(pieces)
        cur_start, cur_len = next(piece_iter)
        offset = 0
        for logical, length in flat:
            remaining_len = length
            lcursor = logical
            while remaining_len > 0:
                if offset == cur_len:
                    cur_start, cur_len = next(piece_iter)
                    offset = 0
                take = min(remaining_len, cur_len - offset)
                smap.insert(
                    Extent(lcursor, cur_start + offset, take, ExtentFlags.NONE)
                )
                offset += take
                lcursor += take
                remaining_len -= take
        blocks_moved += total
    elapsed = plane.array.submit_batch(requests)
    plane.metrics.incr("defrag.runs")
    plane.metrics.incr("defrag.blocks_moved", blocks_moved)
    return DefragResult(
        extents_before=extents_before,
        extents_after=f.extent_count,
        blocks_moved=blocks_moved,
        elapsed_s=elapsed,
    )


def main() -> None:
    nstreams = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=5), "reservation")
    plane = DataPlane(cfg)
    bench = SharedFileMicrobench(
        nstreams=nstreams, file_bytes=64 * MiB - (64 * MiB) % nstreams,
        write_request_bytes=16 * KiB,
    )
    f = bench.create_shared_file(plane)
    bench.phase1_write(plane, f)
    plane.close_file(f)
    before = bench.phase2_read(plane, f)
    print(f"before: {before.mib_per_s:.1f} MiB/s read-back, {f.extent_count} extents")
    print(layout_map(plane, f, slot=0))
    plane.array.reset_timelines()
    result = defragment(plane, f)
    print(
        f"defrag: moved {result.blocks_moved} blocks in {result.elapsed_s:.2f} s "
        f"(simulated), {result.extents_before} -> {result.extents_after} extents"
    )
    after = bench.phase2_read(plane, f)
    print(f"after:  {after.mib_per_s:.1f} MiB/s read-back, {f.extent_count} extents")
    print(layout_map(plane, f, slot=0))


if __name__ == "__main__":
    main()
