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

Two cache profiles share this class (``CacheParams.profile``, docs/CACHE.md):

- ``"legacy"`` — a flat LRU plus a fixed pool of ``ra_contexts`` readahead
  contexts.  This is the original design; every committed ``BENCH_*.json``
  baseline runs it, and its code paths are kept bit-for-bit (the hypothesis
  oracle in ``tests/test_prop_cache_profile.py`` pins the equivalence).
- ``"adaptive"`` — the three-part subsystem for service-mode pressure:
  per-stream readahead contexts in a hashed frontier map (window ramp on
  sequential hits, multiplicative decay when prefetched blocks are evicted
  before use, O(active streams) and LRU-bounded by ``max_streams``), a
  scan-resistant SLRU tier pair (probation + protected segments, promotion
  on second touch so scans cannot evict the hot set), and a batched
  :meth:`BufferCache.prefetch_runs` entry point the MDS uses to pull a
  whole embedded directory's inode+extent region in one request.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.config import CacheParams
from repro.disk.disk import SimulatedDisk
from repro.errors import SimulationError
from repro.obs.trace import NullTracer, Tracer
from repro.sim.metrics import Metrics


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
        # -- adaptive profile state (inert under "legacy") ------------------
        self._adaptive = params.profile == "adaptive"
        #: A stream matches reads within ``slack`` blocks below its frontier
        #: (same window the legacy table uses); also the hash-bucket width
        #: of the frontier index, so a lookup probes at most two buckets.
        self._slack = max(1, 2 * params.readahead_max_blocks)
        #: Probation tier: first-touch blocks; where scans churn.
        self._t1: OrderedDict[int, None] = OrderedDict()
        #: Protected tier: blocks referenced at least twice while resident.
        self._t2: OrderedDict[int, None] = OrderedDict()
        self._protected_cap = max(1, int(params.capacity_blocks * params.protected_fraction))
        #: Per-stream contexts keyed by frontier block, LRU order.
        self._streams: OrderedDict[int, int] = OrderedDict()
        #: frontier // slack -> frontiers in that bucket (few per bucket).
        self._stream_buckets: dict[int, list[int]] = {}
        #: Prefetched blocks not yet referenced by a requested read; the
        #: numerator feed of the prefetch-accuracy metric.
        self._prefetched: set[int] = set()
        # read_batch's fixed inputs (scalar loop?, context slack, disk size).
        self._scalar_reads = not params.enabled or self._adaptive
        self._ra_slack = 2 * params.readahead_max_blocks
        self._disk_blocks = disk.capacity_blocks

    # -- cache bookkeeping --------------------------------------------------
    def __contains__(self, block: int) -> bool:
        if self._adaptive:
            return block in self._t1 or block in self._t2
        return block in self._lru

    def __len__(self) -> int:
        if self._adaptive:
            return len(self._t1) + len(self._t2)
        return len(self._lru)

    def _insert(self, start: int, nblocks: int) -> None:
        if self.params.capacity_blocks == 0:
            return
        if self._adaptive:
            for b in range(start, start + nblocks):
                self._tier_insert(b)
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
        if self._adaptive:
            for b in range(start, end):
                self._t1.pop(b, None)
                self._t2.pop(b, None)
                self._prefetched.discard(b)
            stale = [k for k in self._streams if start <= k < end]
            for k in stale:
                self._drop_stream(k)
            if stale:
                self.metrics.incr("cache.ra_invalidated", len(stale))
            return
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
        self._t1.clear()
        self._t2.clear()
        self._streams.clear()
        self._stream_buckets.clear()
        self._prefetched.clear()

    # -- adaptive tiers (SLRU: probation + protected) -----------------------
    def _tier_insert(self, b: int, prefetched: bool = False) -> None:
        """First touch lands in probation; re-inserts refresh in place."""
        if b in self._t1:
            self._t1.move_to_end(b)
            return
        if b in self._t2:
            self._t2.move_to_end(b)
            return
        self._t1[b] = None
        if prefetched:
            self._prefetched.add(b)
        cap = self.params.capacity_blocks
        evictions = 0
        while len(self._t1) + len(self._t2) > cap:
            tier = self._t1 if self._t1 else self._t2
            victim, _ = tier.popitem(last=False)
            self._prefetched.discard(victim)
            evictions += 1
        if evictions:
            self.metrics.incr("cache.evictions", evictions)

    def _tier_reference(self, b: int) -> None:
        """A requested hit: second touch promotes probation -> protected.

        A prefetched block's *first* requested hit only consumes the
        prefetch (it counts toward prefetch accuracy and refreshes
        probation); promotion needs a second requested touch.  Otherwise a
        prefetch-assisted scan would flood the protected tier and evict
        the hot set — the exact failure mode the tiers exist to prevent.
        """
        if b in self._t2:
            self._t2.move_to_end(b)
            self.metrics.incr("cache.t2_hits")
            return
        if b in self._prefetched:
            self._prefetched.discard(b)
            self.metrics.incr("cache.prefetch_used_blocks")
            self._t1.move_to_end(b)
            self.metrics.incr("cache.t1_hits")
            return
        del self._t1[b]
        self._t2[b] = None
        self.metrics.incr("cache.t1_hits")
        self.metrics.incr("cache.promotions")
        demotions = 0
        while len(self._t2) > self._protected_cap:
            demoted, _ = self._t2.popitem(last=False)
            self._t1[demoted] = None  # protected overflow -> probation MRU
            demotions += 1
        if demotions:
            self.metrics.incr("cache.demotions", demotions)

    # -- adaptive per-stream readahead --------------------------------------
    def _match_stream(self, start: int) -> int | None:
        """Frontier of the stream a read at ``start`` belongs to, if any.

        A frontier ``k`` matches when ``k - slack <= start <= k``, i.e.
        ``k in [start, start + slack]`` — which spans at most two buckets of
        the frontier index, so the probe is O(1) in the stream count.
        """
        slack = self._slack
        bucket = start // slack
        best: int | None = None
        for b in (bucket, bucket + 1):
            for k in self._stream_buckets.get(b, ()):
                if k - slack <= start <= k and (best is None or k < best):
                    best = k
        return best

    def _add_stream(self, frontier: int, window: int) -> None:
        streams = self._streams
        if frontier in streams:
            streams[frontier] = max(streams[frontier], window)
            streams.move_to_end(frontier)
            return
        streams[frontier] = window
        self._stream_buckets.setdefault(frontier // self._slack, []).append(frontier)
        evicted = 0
        while len(streams) > self.params.max_streams:
            old, _ = streams.popitem(last=False)
            self._unindex_stream(old)
            evicted += 1
        if evicted:
            self.metrics.incr("cache.stream_evictions", evicted)

    def _drop_stream(self, frontier: int) -> None:
        del self._streams[frontier]
        self._unindex_stream(frontier)

    def _unindex_stream(self, frontier: int) -> None:
        bucket = frontier // self._slack
        entries = self._stream_buckets.get(bucket)
        if entries is not None:
            entries.remove(frontier)
            if not entries:
                del self._stream_buckets[bucket]

    def _read_adaptive(self, start: int, nblocks: int) -> float:
        """Adaptive-profile read: per-stream windows over the SLRU tiers.

        Same billing philosophy as the legacy path — a fully-resident
        request returns 0.0 even when it triggers prefetch beyond the
        frontier; prefetch disk time is accounted to the disk, never to
        the requester.
        """
        params = self.params
        capacity = self.disk.capacity_blocks
        frontier = self._match_stream(start)
        prefetch = 0
        if frontier is not None:
            window = self._streams[frontier]
            if start + nblocks > frontier:
                # Crossed the frontier.  Ramp when the previously-prefetched
                # run survived to be used; decay multiplicatively when it
                # was evicted before use (scan pressure made the prefetch
                # worthless at this window size).
                lo = max(start, frontier - window)
                evicted = any(
                    b not in self for b in range(lo, min(start + nblocks, frontier))
                )
                if evicted:
                    window = max(params.readahead_init_blocks, window // 2, 1)
                    self.metrics.incr("cache.ra_decays")
                else:
                    window = min(max(window, 1) * 2, params.readahead_max_blocks)
                    self.metrics.incr("cache.readahead_hits")
                prefetch = window
                self._drop_stream(frontier)
                self._add_stream(start + nblocks + prefetch, window)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "cache", "readahead", start=start, window=window
                    )
            else:
                self._streams.move_to_end(frontier)
        else:
            req_end = min(start + nblocks, capacity)
            has_miss = any(b not in self for b in range(start, req_end))
            if has_miss:
                window = params.readahead_init_blocks
                prefetch = window if nblocks > 1 else 0
                self._add_stream(start + nblocks + prefetch, window)

        # Collect the miss runs within [start, start+nblocks+prefetch).
        want = nblocks + prefetch
        req_end = start + nblocks
        misses: list[tuple[int, int]] = []
        requested_miss = False
        run_start = -1
        for b in range(start, start + want):
            if b >= capacity:
                break
            if b in self:
                if b < req_end:
                    self.metrics.incr("cache.hits")
                    self._tier_reference(b)
                else:
                    self.metrics.incr("cache.ra_cached")
                    self._tier_insert(b)  # refresh within its tier
                if run_start >= 0:
                    misses.append((run_start, b - run_start))
                    run_start = -1
            else:
                if b < req_end:
                    self.metrics.incr("cache.misses")
                    requested_miss = True
                if run_start < 0:
                    run_start = b
        if run_start >= 0:
            end = min(start + want, capacity)
            misses.append((run_start, end - run_start))

        if not misses:
            if self.tracer.enabled:
                self.tracer.emit("cache", "hit", start=start, nblocks=nblocks)
            return 0.0
        elapsed = self._fetch(misses)
        issued = 0
        for run_start, run_blocks in misses:
            for b in range(run_start, run_start + run_blocks):
                ahead = b >= req_end
                self._tier_insert(b, prefetched=ahead)
                if ahead:
                    issued += 1
        if issued:
            self.metrics.incr("cache.prefetch_issued_blocks", issued)
        if not requested_miss:
            self.metrics.incr("cache.prefetch_only_reads")
            self.metrics.add("cache.unbilled_prefetch_s", elapsed)
            if self.tracer.enabled:
                self.tracer.emit(
                    "cache", "prefetch", dur=elapsed, start=start,
                    nblocks=nblocks, prefetch=prefetch,
                )
            return 0.0
        if self.tracer.enabled:
            self.tracer.emit(
                "cache", "miss", dur=elapsed, start=start, nblocks=nblocks,
                prefetch=prefetch, miss_runs=len(misses),
            )
        self.metrics.observe("cache.read_latency_s", elapsed)
        return elapsed

    def prefetch_runs(self, reads: list[tuple[int, int]]) -> float:
        """One batched prefetch of every non-resident block in ``reads``.

        The embedded-directory metadata prefetch (docs/CACHE.md): the MDS
        hands over a directory's whole contiguous inode+extent region —
        the run MiF's layout guarantees exists (§IV.A) — and the cache
        fetches all of it under a single submission, so the scheduler
        merges the region instead of the doubling window discovering it
        block by block.  Prefetch is opportunistic: the requester is never
        billed (returns 0.0) and the blocks land in the probation tier
        marked prefetched, feeding the prefetch-accuracy metric when the
        reads that follow consume them.
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
            if self._adaptive:
                for b in range(run_start, run_start + run_blocks):
                    self._tier_insert(b, prefetched=True)
            else:
                self._insert(run_start, run_blocks)
            issued += run_blocks
        self.metrics.incr("cache.dir_prefetches")
        self.metrics.incr("cache.prefetch_issued_blocks", issued)
        self.metrics.add("cache.unbilled_prefetch_s", elapsed)
        if self.tracer.enabled:
            self.tracer.emit(
                "cache", "dir_prefetch", dur=elapsed, runs=len(reads),
                blocks=issued,
            )
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
        if self._adaptive:
            return self._read_adaptive(start, nblocks)

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
                    self.tracer.emit(
                        "cache", "readahead", start=start, window=window
                    )
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
                self.tracer.emit("cache", "hit", start=start, nblocks=nblocks)
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
                self.tracer.emit(
                    "cache",
                    "prefetch",
                    dur=elapsed,
                    start=start,
                    nblocks=nblocks,
                    prefetch=prefetch,
                )
            return 0.0
        if self.tracer.enabled:
            self.tracer.emit(
                "cache",
                "miss",
                dur=elapsed,
                start=start,
                nblocks=nblocks,
                prefetch=prefetch,
                miss_runs=len(misses),
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
        identical to the scalar loop.  The adaptive profile always takes
        the scalar loop (tier promotion is order-sensitive on every touch).
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
                                tracer.emit("cache", "hit", start=start, nblocks=nblocks)
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
        if self._adaptive:
            for b in blocks:
                self._tier_insert(b)
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
