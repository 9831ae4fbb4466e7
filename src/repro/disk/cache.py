"""Buffer cache with kernel-style sequential readahead.

Used on the metadata path (the MDS's metadata file system).  Two behaviours
matter for the paper's results:

- **Caching**: repeated metadata accesses (e.g. the parent directory inode
  during lookups) do not hit the disk, so Fig. 8 counts only real misses.
- **Readahead**: §V.D.1 explains that the readdir-stat win of embedded
  directories *grows* with directory size because "the size of prefetching
  window is gradually enlarged when it correctly predicts the blocks to be
  used", merging individual readdir-stat accesses into large reads.  We
  reproduce the classic doubling window.

The cache is a flat LRU of ``capacity_blocks`` plus a fixed table of
``ra_contexts`` readahead contexts (docs/CACHE.md); the hypothesis oracle
in ``tests/test_prop_cache.py`` holds it to a straight-line reference.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.config import CacheParams
from repro.disk.disk import SimulatedDisk
from repro.errors import SimulationError
from repro.obs.trace import NullTracer, Tracer
from repro.sim.metrics import Metrics

#: Trace schemas, ``(layer, op, *attr names)``: one per event shape.
_HIT = ("cache", "hit", "start", "nblocks")
_MISS = ("cache", "miss", "start", "nblocks", "prefetch", "miss_runs")
_PREFETCH = ("cache", "prefetch", "start", "nblocks", "prefetch")
_READAHEAD = ("cache", "readahead", "start", "window")
_DIR_PREFETCH = ("cache", "dir_prefetch", "runs", "blocks")


class BufferCache:
    """LRU block cache in front of one simulated disk."""

    def __init__(
        self,
        params: CacheParams,
        disk: SimulatedDisk,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.params = params
        self.disk = disk
        self.metrics = metrics if metrics is not None else disk.metrics
        self.tracer = tracer if tracer is not None else disk.tracer
        self._lru: OrderedDict[int, None] = OrderedDict()
        # Readahead contexts: (expected next block, window size), LRU order.
        self._ra: OrderedDict[int, int] = OrderedDict()
        # read_batch's fixed inputs (scalar loop?, context slack, disk size).
        self._scalar_reads = not params.enabled
        self._ra_slack = 2 * params.readahead_max_blocks
        self._disk_blocks = disk.capacity_blocks

    # -- cache bookkeeping --------------------------------------------------
    def __contains__(self, block: int) -> bool:
        return block in self._lru

    def __len__(self) -> int:
        return len(self._lru)

    def _insert(self, start: int, nblocks: int) -> None:
        if self.params.capacity_blocks == 0:
            return
        for b in range(start, start + nblocks):
            if b in self._lru:
                self._lru.move_to_end(b)
            else:
                self._lru[b] = None
        while len(self._lru) > self.params.capacity_blocks:
            self._lru.popitem(last=False)
            self.metrics.incr("cache.evictions")

    def invalidate(self, start: int, nblocks: int) -> None:
        """Drop blocks from the cache (e.g. after a free).

        Readahead contexts whose frontiers point *into* the invalidated
        region are dropped too: the blocks they predicted were freed, and a
        reallocated run must not inherit a stale window.  Contexts whose
        frontier lies outside ``[start, start + nblocks)`` survive — their
        prediction target still exists, so warm reads crossing them keep
        the prefetch-without-billing behaviour (see
        ``TestInvalidateReadahead`` for the pinned semantics).
        """
        end = start + nblocks
        for b in range(start, end):
            self._lru.pop(b, None)
        stale = [k for k in self._ra if start <= k < end]
        for k in stale:
            del self._ra[k]
        if stale:
            self.metrics.incr("cache.ra_invalidated", len(stale))

    def drop(self) -> None:
        """Empty the cache and reset readahead (echo 3 > drop_caches)."""
        self._lru.clear()
        self._ra.clear()

    def prefetch_runs(self, reads: list[tuple[int, int]]) -> float:
        """One batched prefetch of every non-resident block in ``reads``.

        Kept only because ``benchmarks/ledger/spans.py::ENTRY_POINTS`` names
        it: nothing in ``src/`` calls it.  The non-resident blocks are
        fetched under a single submission and inserted at the MRU end;
        prefetch is opportunistic, so the requester is never billed
        (returns 0.0).
        """
        if not self.params.enabled or self.params.capacity_blocks == 0:
            return 0.0
        capacity = self.disk.capacity_blocks
        misses: list[tuple[int, int]] = []
        for start, nblocks in reads:
            run_start = -1
            end = min(start + nblocks, capacity)
            for b in range(start, end):
                if b in self:
                    if run_start >= 0:
                        misses.append((run_start, b - run_start))
                        run_start = -1
                elif run_start < 0:
                    run_start = b
            if run_start >= 0:
                misses.append((run_start, end - run_start))
        if not misses:
            return 0.0
        elapsed = self._fetch(misses)
        issued = 0
        for run_start, run_blocks in misses:
            self._insert(run_start, run_blocks)
            issued += run_blocks
        self.metrics.incr("cache.dir_prefetches")
        self.metrics.incr("cache.prefetch_issued_blocks", issued)
        self.metrics.add("cache.unbilled_prefetch_s", elapsed)
        if self.tracer.enabled:
            self.tracer.record(_DIR_PREFETCH, None, elapsed, None, len(reads), issued)
        return 0.0

    # -- I/O ------------------------------------------------------------------
    def _fetch(self, misses: list[tuple[int, int]]) -> float:
        """Read the ``(start, nblocks)`` miss runs as one disk batch."""
        runs = np.array(misses, dtype=np.int64)
        return self.disk.submit_arrays(runs[:, 0], runs[:, 1], False)

    def read(self, start: int, nblocks: int) -> float:
        """Read a block run through the cache; returns disk seconds spent."""
        if nblocks <= 0:
            raise SimulationError(f"read of {nblocks} blocks")
        if not self.params.enabled:
            return self.disk.submit_one(start, nblocks, False)

        # Readahead: each context is (prefetch frontier -> window size).  A
        # read at or just below a frontier belongs to that stream; pushing
        # *past* the frontier doubles the window and prefetches beyond it
        # (the kernel's lookahead-mark pipelining).  Reads matching no
        # context start a fresh one — but only when they actually miss, so
        # cached random re-reads neither prefetch nor churn contexts.
        slack = 2 * self.params.readahead_max_blocks
        ctx_key = next(
            (k for k in self._ra if k - slack <= start <= k), None
        )
        prefetch = 0
        if ctx_key is not None:
            window = self._ra[ctx_key]
            if start + nblocks > ctx_key:
                # Crossed the frontier: grow the window and push it forward.
                window = min(window * 2, self.params.readahead_max_blocks)
                prefetch = window
                del self._ra[ctx_key]
                self._ra[start + nblocks + prefetch] = window
                self.metrics.incr("cache.readahead_hits")
                if self.tracer.enabled:
                    self.tracer.record(_READAHEAD, None, 0.0, None, start, window)
            else:
                # Still inside the prefetched region: refresh LRU position.
                self._ra.move_to_end(ctx_key)
        else:
            req_end = min(start + nblocks, self.disk.capacity_blocks)
            has_miss = any(b not in self._lru for b in range(start, req_end))
            if has_miss:
                window = self.params.readahead_init_blocks
                prefetch = window if nblocks > 1 else 0
                self._ra[start + nblocks + prefetch] = window
        while len(self._ra) > self.params.ra_contexts:
            self._ra.popitem(last=False)

        # Collect the miss runs within [start, start+nblocks+prefetch).
        want = nblocks + prefetch
        misses: list[tuple[int, int]] = []
        requested_miss = False
        run_start = -1
        for b in range(start, start + want):
            if b >= self.disk.capacity_blocks:
                break
            if b in self._lru:
                self.metrics.incr("cache.hits" if b < start + nblocks else "cache.ra_cached")
                self._lru.move_to_end(b)
                if run_start >= 0:
                    misses.append((run_start, b - run_start))
                    run_start = -1
            else:
                if b < start + nblocks:
                    self.metrics.incr("cache.misses")
                    requested_miss = True
                if run_start < 0:
                    run_start = b
        if run_start >= 0:
            end = min(start + want, self.disk.capacity_blocks)
            misses.append((run_start, end - run_start))

        if not misses:
            if self.tracer.enabled:
                self.tracer.record(_HIT, None, 0.0, None, start, nblocks)
            return 0.0
        elapsed = self._fetch(misses)
        for run_start, run_blocks in misses:
            self._insert(run_start, run_blocks)
        if not requested_miss:
            # Every requested block was resident; the batch only serviced
            # readahead beyond the request.  Prefetch is opportunistic — its
            # disk time is accounted to the disk, never to the requester.
            self.metrics.incr("cache.prefetch_only_reads")
            self.metrics.add("cache.unbilled_prefetch_s", elapsed)
            if self.tracer.enabled:
                self.tracer.record(_PREFETCH, None, elapsed, None, start, nblocks, prefetch)
            return 0.0
        if self.tracer.enabled:
            self.tracer.record(
                _MISS, None, elapsed, None, start, nblocks, prefetch, len(misses)
            )
        self.metrics.observe("cache.read_latency_s", elapsed)
        return elapsed

    def read_batch(self, reads: list[tuple[int, int]]) -> float:
        """Execute a plan's read list; returns total disk seconds spent.

        Equivalent to summing :meth:`read` over ``reads`` — the same disk
        request stream, metric totals and cache/readahead end state (the
        metadata path's determinism contract, docs/PERF.md), also when a
        read raises part-way (a faulted disk): the reads before it keep
        their hits and their cache effects.  A read that is fully resident
        and does not push past a readahead frontier takes a fast path
        without per-block accounting (its blocks move to the MRU end on the
        spot, as :meth:`read` moves them); anything else — a miss, a frontier
        crossing, a read past capacity, or a disabled cache — falls back to
        the scalar :meth:`read` for that element, *before* any state was
        touched, so the sequence of cache and context mutations is
        identical to the scalar loop.
        """
        if self._scalar_reads:
            read = self.read
            total = 0.0
            for start, nblocks in reads:
                total += read(start, nblocks)
            return total
        lru = self._lru
        keys = lru.keys()
        move = lru.move_to_end
        ra = self._ra
        tracer = self.tracer
        slack = self._ra_slack
        capacity = self._disk_blocks
        total = 0.0
        hits = 0
        try:
            for start, nblocks in reads:
                end = start + nblocks
                if 0 < nblocks and end <= capacity:
                    ctx_key = None
                    for k in ra:
                        if k - slack <= start <= k:
                            ctx_key = k
                            break
                    if ctx_key is None or end <= ctx_key:
                        # No frontier crossing possible: the read either
                        # matches no stream or stays inside its prefetched
                        # region.
                        if nblocks == 1:
                            resident = start in lru
                        else:
                            resident = keys >= set(range(start, end))
                        if resident:
                            if ctx_key is not None:
                                ra.move_to_end(ctx_key)
                            for b in range(start, end):
                                move(b)
                            hits += nblocks
                            if tracer.enabled:
                                tracer.record(_HIT, None, 0.0, None, start, nblocks)
                            continue
                total += self.read(start, nblocks)
        finally:
            # A read that raises (a faulted disk) keeps the hits of the
            # reads before it, as the scalar loop booked them per block.
            if hits:
                self.metrics.incr("cache.hits", hits)
        return total

    def insert_blocks(self, blocks) -> None:
        """Bulk insert of single cached blocks (checkpoint completion).

        Equivalent to calling ``_insert(b, 1)`` for each block in order,
        including interleaved evictions, without the per-call overhead.
        """
        if self.params.capacity_blocks == 0:
            return
        lru = self._lru
        move = lru.move_to_end
        popitem = lru.popitem
        cap = self.params.capacity_blocks
        evictions = 0
        for b in blocks:
            if b in lru:
                move(b)
            else:
                lru[b] = None
                while len(lru) > cap:
                    popitem(last=False)
                    evictions += 1
        if evictions:
            self.metrics.incr("cache.evictions", evictions)

    def write(self, start: int, nblocks: int, sync: bool = True) -> float:
        """Write a block run; write-through when ``sync`` (paper's Metarates
        configuration uses synchronous metadata writes)."""
        if nblocks <= 0:
            raise SimulationError(f"write of {nblocks} blocks")
        self._insert(start, nblocks)
        if sync:
            return self.disk.submit_one(start, nblocks, True)
        self.metrics.incr("cache.delayed_writes")
        return 0.0
