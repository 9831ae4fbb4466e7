"""The one metadata execution path: exact equivalence to the scalar path.

The plan-level ``read_batch``, the one-record journal commit and the column
checkpoint are an execution strategy, not a model: they must leave the MDS
in exactly the state the per-read/per-block scalar server over an
object-loop disk does (``tests/meta_reference.py::ScalarMetadataServer``) —
same elapsed time bits, counters, histograms, cache LRU and readahead
order, and disk head.  These tests drive identical workloads through both
and diff the complete observable state.
"""

from __future__ import annotations

import pytest

from repro.config import CacheParams, DiskParams, SchedulerParams
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.fs.profiles import (
    lustre_profile,
    redbud_mif_profile,
    redbud_vanilla_profile,
)
from repro.meta.layout import AccessPlan
from repro.meta.mds import MetadataServer

from tests.meta_reference import ScalarMetadataServer

PROFILES = {
    "lustre": lustre_profile,
    "redbud-vanilla": redbud_vanilla_profile,
    "redbud-mif": redbud_mif_profile,
}


def snapshot(mds: MetadataServer) -> dict:
    """Every observable the batched path could disturb, exact bits, down to
    each live inode's ``mtime`` / ``ctime`` stamps.

    The only tolerance: the unrendered ``disk.positioning_s`` /
    ``disk.transfer_s`` accumulators, whose vectorized sums carry last-ulp
    pairwise-summation drift against the scalar fold (see
    ``SimulatedDisk._service_arrays``); they are rounded, everything
    else — including elapsed time and busy time — compares bit for bit.
    """
    snap = mds.metrics.snapshot()
    table = mds.layout._inodes
    hists = {
        name: (h.count, h.percentile(50), h.percentile(90), h.percentile(99))
        for name, h in snap.histograms.items()
    }
    metrics = {
        k: round(v, 12) if k in ("disk.positioning_s", "disk.transfer_s") else v
        for k, v in {**snap.counters, **snap.accumulators}.items()
    }
    return {
        "elapsed": mds.elapsed_s,
        "ops": mds.ops,
        "head": mds.disk.head,
        "busy": mds.disk.busy_s,
        "metrics": metrics,
        "hists": hists,
        "lru": list(mds.cache._lru),
        "ra": list(mds.cache._ra.items()),
        "journal_head": mds.journal.head_block,
        "replay": [(r.seq, r.block, r.dirties) for r in mds.journal.replay()],
        "stamps": [
            (ino, table.mtime[row], table.ctime[row]) for ino, row in sorted(table.rows.items())
        ],
    }


def drive(mds: MetadataServer, crash: bool = False) -> None:
    """Deterministic mixed workload touching every op the MDS exposes."""
    root = mds.root
    dirs = [mds.mkdir(root, f"d{i}") for i in range(4)]
    for d in dirs:
        for j in range(40):
            mds.create(d, f"f{j:03d}")
    for d in dirs:
        mds.readdir_stat(d)
        mds.readdir(d)
    for d in dirs:
        for j in range(0, 40, 3):
            mds.utime(d, f"f{j:03d}")
            mds.stat(d, f"f{j:03d}")
    mds.set_extent_records(dirs[0], "f001", 40)
    mds.open_getlayout(dirs[0], "f001")
    mds.rename(dirs[0], "f000", dirs[1], "g000")
    for j in range(0, 40, 5):
        mds.delete(dirs[2], f"f{j:03d}")
    if crash:
        mds.crash_recover()
    mds.drop_caches()
    for d in dirs:
        mds.readdir_stat(d)
    mds.flush()


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_batched_path_matches_scalar(profile):
    make = PROFILES[profile]
    batched = MetadataServer(make())
    scalar = ScalarMetadataServer(make())
    drive(batched)
    drive(scalar)
    assert batched.metrics.count("mds.checkpoints") > 0  # both limbs exercised
    assert snapshot(batched) == snapshot(scalar)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_crash_recovery_matches_scalar(profile):
    make = PROFILES[profile]
    batched = MetadataServer(make())
    scalar = ScalarMetadataServer(make())
    drive(batched, crash=True)
    drive(scalar, crash=True)
    assert batched.metrics.count("mds.crash_recoveries") == 1
    assert snapshot(batched) == snapshot(scalar)


def test_vectorized_checkpoint_matches_scalar_checkpoint():
    """The column checkpoint and the per-block object loop must produce the
    same request stream, cache population and busy time."""
    cfg = redbud_mif_profile()
    batched = MetadataServer(cfg)
    scalar = ScalarMetadataServer(cfg)
    for mds in (batched, scalar):
        d = mds.mkdir(mds.root, "dir")
        for j in range(30):  # dirties a scattered set of home blocks
            mds.create(d, f"f{j:02d}")
        mds.checkpoint()
    assert snapshot(batched) == snapshot(scalar)


# ---------------------------------------------------------------------------
# read_batch across a readahead frontier (regression: the fast path must not
# swallow a read that crosses a context's prefetch frontier)
# ---------------------------------------------------------------------------

def make_cache(capacity=64, ra_init=4, ra_max=32):
    disk = SimulatedDisk(DiskParams(capacity_blocks=1 << 14), SchedulerParams())
    cache = BufferCache(
        CacheParams(
            capacity_blocks=capacity,
            readahead_init_blocks=ra_init,
            readahead_max_blocks=ra_max,
        ),
        disk,
    )
    return cache, disk


def cache_state(cache, disk):
    return {
        "lru": list(cache._lru),
        "ra": list(cache._ra.items()),
        "counters": disk.metrics.snapshot().counters,
        "head": disk.head,
        "busy": disk.busy_s,
    }


class TestReadBatchFrontier:
    def warm(self, cache):
        # Sequential stream: establishes a readahead context whose frontier
        # sits past the last read, with prefetched blocks resident.
        cost = 0.0
        for start in (0, 4, 8):
            cost += cache.read(start, 4)
        return cost

    def test_batch_straddling_frontier_matches_scalar(self):
        c1, d1 = make_cache()
        c2, d2 = make_cache()
        self.warm(c1)
        self.warm(c2)
        frontier = next(iter(c1._ra))
        before = c1.metrics.count("cache.readahead_hits")
        # Resident re-read, a read crossing the frontier (grows the window,
        # prefetches), then another resident read: the middle element must
        # leave the fast path and replay through the scalar read.
        batch = [(0, 2), (frontier - 2, 4), (4, 2)]
        t1 = c1.read_batch(batch)
        t2 = sum(c2.read(s, n) for s, n in batch)
        assert t1 == t2
        assert cache_state(c1, d1) == cache_state(c2, d2)
        assert c1.metrics.count("cache.readahead_hits") == before + 1

    def test_batch_of_misses_matches_scalar(self):
        c1, d1 = make_cache()
        c2, d2 = make_cache()
        batch = [(100, 3), (200, 1), (100, 3), (103, 2)]
        t1 = c1.read_batch(batch)
        t2 = sum(c2.read(s, n) for s, n in batch)
        assert t1 == t2
        assert cache_state(c1, d1) == cache_state(c2, d2)

    def test_hit_refreshes_pick_the_scalar_eviction_victim(self):
        # Capacity 8: warm hits refresh their LRU positions; the miss that
        # triggers an eviction must see them, or the wrong victim is chosen
        # relative to the scalar path.
        c1, d1 = make_cache(capacity=8, ra_init=2, ra_max=4)
        c2, d2 = make_cache(capacity=8, ra_init=2, ra_max=4)
        ops = [(0, 1), (3, 1), (0, 1), (3, 1), (0, 1), (5, 1), (9, 1), (12, 1)]
        t1 = c1.read_batch(ops)
        t2 = sum(c2.read(s, n) for s, n in ops)
        assert t1 == t2
        assert cache_state(c1, d1) == cache_state(c2, d2)


# ---------------------------------------------------------------------------
# AccessPlan.coalesce
# ---------------------------------------------------------------------------

class TestCoalesce:
    def collapse(self, reads):
        return AccessPlan(reads=list(reads)).coalesce().reads

    def test_noop_returns_self(self):
        plan = AccessPlan(reads=[(10, 2), (20, 1)])
        assert plan.coalesce() is plan

    def test_duplicate_spans_dropped(self):
        assert self.collapse([(5, 2), (9, 1), (5, 2)]) == [(5, 2), (9, 1)]
        # 64+ single blocks, every one read twice, none adjacent.
        reads = [(2 * (i % 40), 1) for i in range(80)]
        assert self.collapse(reads) == reads[:40]

    def test_contained_span_dropped(self):
        assert self.collapse([(5, 4), (6, 2)]) == [(5, 4)]
        # A single block inside the run just merged is a repeat.
        reads = [(i, 1) for i in range(70)] + [(35, 1)]
        assert self.collapse(reads) == [(0, 70)]

    def test_adjacent_spans_merge(self):
        assert self.collapse([(5, 2), (7, 3)]) == [(5, 5)]
        # Two ascending runs of single blocks, 64+ reads in all.
        reads = [(i, 1) for i in range(40)] + [(100 + i, 1) for i in range(40)]
        assert self.collapse(reads) == [(0, 40), (100, 40)]

    def test_order_is_preserved(self):
        assert self.collapse([(20, 1), (5, 1), (20, 1)]) == [(20, 1), (5, 1)]
        # A descending sweep of single blocks never merges backwards.
        reads = [(200 - i, 1) for i in range(70)] + [(200, 1)]
        assert self.collapse(reads) == reads[:70]

    def test_long_single_block_plan_merges_runs_and_drops_repeats(self):
        # A readdirplus-shaped plan: repeated itable blocks, ascending runs.
        reads = [(100 + i // 4, 1) for i in range(80)] + [(50, 1), (100, 1)]
        got = self.collapse(reads)
        assert got == [(100, 20), (50, 1)]

    def test_long_unchanged_plan_returns_self(self):
        reads = [(i * 3, 1) for i in range(80)]
        plan = AccessPlan(reads=list(reads))
        assert plan.coalesce() is plan
        assert plan.reads == reads

    def test_dirties_and_costs_survive(self):
        plan = AccessPlan(
            reads=[(5, 2), (7, 1)], dirties=[42], cpu_s=1.5, journal_records=2
        )
        out = plan.coalesce()
        assert out.reads == [(5, 3)]
        assert (out.dirties, out.cpu_s, out.journal_records) == ([42], 1.5, 2)
