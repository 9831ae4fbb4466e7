"""Batched I/O pipeline invariants and fast-path/oracle equivalences.

The perf work (request coalescing, the vectorized disk model, the array
submission path, the parallel sweep driver) is only admissible because every
fast path is observationally identical to the slow path it replaces.  These
tests pin each equivalence directly, complementing the end-to-end BENCH
fingerprint gate.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.baseline import dumps, render
from repro.block.bitmap import BlockBitmap
from repro.block.extent import Extent, ExtentFlags, ExtentMap
from repro.block.freelist import FreeExtentSet
from repro.config import DiskParams, SchedulerParams
from repro.core.run import run
from repro.core.sweep import resolve_jobs, stream_cells
from repro.core.runners import LISTIO_HEADER_S
from repro.disk.array import DiskArray
from repro.disk.model import BlockRequest, ServiceTimeModel
from repro.disk.scheduler import ElevatorScheduler
from repro.errors import NoSpaceError
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import (
    redbud_mif_profile,
    redbud_vanilla_profile,
    with_alloc_policy,
)
from repro.sim.metrics import Metrics
from repro.units import KiB, MiB
from repro.workloads.btio import BTIOBenchmark
from repro.workloads.ior import IORBenchmark
from repro.workloads.listio import StridedAccessBenchmark

from tests import golden
from tests.conftest import columns, small_config
from tests.dataplane_reference import ReferenceDataPlane, reference_coalesce
from tests.metrics_reference import ReferenceMetrics, object_loop_disks, rounded

# ---------------------------------------------------------------------------
# Coalescing invariants (DataPlane._emit_rows / the object-form oracle)
# ---------------------------------------------------------------------------

BPD = 16384  # capacity_blocks of the small test config's disks


def make_plane() -> DataPlane:
    return DataPlane(small_config())


def emit(plane: DataPlane, runs, is_write: bool) -> list[BlockRequest]:
    """``_emit_rows``' coalesced rows as requests."""
    starts: list[int] = []
    nblocks: list[int] = []
    plane._emit_rows(runs, starts, nblocks)
    return [BlockRequest(s, n, is_write) for s, n in zip(starts, nblocks)]


#: (physical, length) runs, each confined to one disk of a 2-disk array.
run_lists = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, BPD - 17), st.integers(1, 16)).map(
        lambda t: (t[0] * BPD + t[1], t[2])
    ),
    min_size=1,
    max_size=40,
)


class TestEmitInvariants:
    @given(runs=run_lists, is_write=st.booleans())
    def test_blocks_preserved_and_no_cross_disk_merge(self, runs, is_write):
        plane = make_plane()
        before = plane.metrics.count("fs.coalesced_requests")
        out = emit(plane, list(runs), is_write)
        assert sum(r.nblocks for r in out) == sum(length for _, length in runs)
        for r in out:
            assert r.is_write is is_write
            # Never merges across a disk boundary.
            assert r.start // BPD == (r.end - 1) // BPD
        # Counter accounts exactly for the requests that disappeared.
        merged = plane.metrics.count("fs.coalesced_requests") - before
        assert merged == len(runs) - len(out)

    @given(runs=run_lists)
    def test_emit_matches_coalesce_oracle(self, runs):
        """_emit_rows is the inline form of the object-form coalescing over
        single-direction runs."""
        plane = make_plane()
        raw = [BlockRequest(p, n, is_write=True) for p, n in runs]
        assert emit(plane, list(runs), True) == reference_coalesce(raw, BPD, Metrics())

    def test_adjacent_same_disk_runs_merge(self):
        plane = make_plane()
        out = emit(plane, [(0, 4), (4, 4)], True)
        assert [(r.start, r.nblocks) for r in out] == [(0, 8)]

    def test_runs_meeting_at_disk_boundary_stay_split(self):
        plane = make_plane()
        out = emit(plane, [(BPD - 4, 4), (BPD, 4)], True)
        assert len(out) == 2


class TestCoalesceInvariants:
    @given(
        batch=st.lists(
            st.tuples(st.integers(0, 2 * BPD - 9), st.integers(1, 8), st.booleans()),
            min_size=1,
            max_size=30,
        )
    )
    def test_blocks_and_direction_boundaries_preserved(self, batch):
        reqs = [BlockRequest(s, n, w) for s, n, w in batch if s + n <= 2 * BPD]
        if not reqs:
            return
        out = reference_coalesce(list(reqs), BPD, Metrics())
        assert sum(r.nblocks for r in out) == sum(r.nblocks for r in reqs)
        # Merges only happen between same-direction neighbours, so per-
        # direction block totals are preserved too.
        for w in (True, False):
            assert sum(r.nblocks for r in out if r.is_write is w) == sum(
                r.nblocks for r in reqs if r.is_write is w
            )

    def test_read_write_boundary_never_merges(self):
        out = reference_coalesce(
            [BlockRequest(0, 4, True), BlockRequest(4, 4, False)], BPD, Metrics()
        )
        assert len(out) == 2


# ---------------------------------------------------------------------------
# Vectorized service-time model vs the scalar oracle
# ---------------------------------------------------------------------------

request_batches = st.lists(
    st.tuples(st.integers(0, (1 << 20) - 64), st.integers(1, 64)),
    min_size=0,
    max_size=50,
)


class TestTimeBatchOracle:
    @given(batch=request_batches, head=st.integers(0, (1 << 20) - 1))
    @settings(max_examples=200)
    def test_matches_serial_time_for(self, batch, head):
        model = ServiceTimeModel(DiskParams(capacity_blocks=1 << 20))
        reqs = [BlockRequest(s, n) for s, n in batch]
        positioning, transfer = model.time_batch(head, reqs)
        assert positioning.shape == transfer.shape == (len(reqs),)
        h = head
        for i, r in enumerate(reqs):
            assert positioning[i] + transfer[i] == pytest.approx(
                model.time_for(h, r), abs=1e-9
            )
            h = r.end


# ---------------------------------------------------------------------------
# Array scheduler path vs the object path
# ---------------------------------------------------------------------------

scheduler_batches = st.lists(
    st.tuples(st.integers(0, 4000), st.integers(1, 32), st.booleans()),
    min_size=1,
    max_size=60,
)


class TestArrangeArraysEquivalence:
    @given(
        batch=scheduler_batches,
        gap=st.integers(0, 16),
        limit=st.sampled_from([1, 4, 16, 1024]),
    )
    @settings(max_examples=150)
    def test_matches_object_arrange(self, batch, gap, limit):
        params = SchedulerParams(merge_gap_blocks=gap, batch_limit=limit)
        reqs = [BlockRequest(s, n, w) for s, n, w in batch]
        oracle = ElevatorScheduler(params).arrange(list(reqs))

        sched = ElevatorScheduler(params)
        starts = np.array([r.start for r in reqs], dtype=np.int64)
        nblocks = np.array([r.nblocks for r in reqs], dtype=np.int64)
        writes = np.array([r.is_write for r in reqs], dtype=bool)
        s, b, w = sched.arrange_arrays(starts, nblocks, writes)
        got = list(zip(s.tolist(), b.tolist(), w.tolist()))
        assert got == [(r.start, r.nblocks, r.is_write) for r in oracle]


class TestSubmitArraysEquivalence:
    @given(
        batch=st.lists(
            st.tuples(st.integers(0, 2 * BPD - 33), st.integers(1, 32), st.booleans()),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=50)
    def test_array_submit_is_bit_identical_to_object_submit(self, batch):
        rows = [(s, n, w) for s, n, w in batch if (s % BPD) + n <= BPD]
        if len(rows) < 2:
            return
        params = DiskParams(capacity_blocks=BPD)

        fast = DiskArray(2, params, metrics=Metrics())
        t_fast = fast.submit_batch(*columns(rows))

        # The per-request object loop (tests/metrics_reference.py).
        slow = object_loop_disks(DiskArray(2, params, metrics=ReferenceMetrics()))
        t_slow = slow.submit_batch(*columns(rows))

        # Same IEEE-754 operations in the same order: exact equality, not
        # approx — the BENCH fingerprint gate depends on it.
        assert t_fast == t_slow
        assert [(d.head, d.busy_s) for d in fast.disks] == [
            (d.head, d.busy_s) for d in slow.disks
        ]
        assert rounded(fast.metrics.snapshot()) == rounded(slow.metrics.snapshot())


# ---------------------------------------------------------------------------
# Fused extent-map write scan vs its three-call decomposition
# ---------------------------------------------------------------------------

extent_layouts = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 12), st.booleans()),
    min_size=0,
    max_size=12,
)


def build_map(layout) -> ExtentMap:
    """Insert non-overlapping extents; drop candidates that collide."""
    m = ExtentMap()
    covered: set[int] = set()
    phys = 0
    for logical, length, unwritten in layout:
        span = set(range(logical, logical + length))
        if span & covered:
            continue
        covered |= span
        flags = ExtentFlags.UNWRITTEN if unwritten else ExtentFlags.NONE
        # Scatter physically so extents never merge by accident.
        m.insert(Extent(logical, 1000 + phys * 100, length, flags))
        phys += 1
    return m


class TestScanWriteRange:
    @given(layout=extent_layouts, logical=st.integers(0, 220), count=st.integers(1, 40))
    @settings(max_examples=200)
    def test_matches_decomposed_queries(self, layout, logical, count):
        m = build_map(layout)
        holes, has_unwritten, runs = m.scan_write_range(logical, count)
        assert holes == m.holes_in_range(logical, count)
        overlapping = m.lookup_range(logical, count)
        assert has_unwritten == any(e.unwritten for e in overlapping)
        if holes or has_unwritten:
            assert runs is None
        else:
            assert runs == m.physical_runs(logical, count)


# ---------------------------------------------------------------------------
# Bitmap hinted wrap-around (regression for the unified _scan)
# ---------------------------------------------------------------------------


class TestBitmapHintedWraparound:
    def test_run_straddling_hint_found_by_wrap_pass(self):
        bm = BlockBitmap(64)
        bm.set_range(0, 60)  # free run is [60, 64)
        # First pass [62, 64) is too short; the wrap pass extends past the
        # hint by count-1 bits and must still find the straddling run.
        assert bm.find_free_run(4, hint=62) == 60

    def test_wraps_to_run_before_hint(self):
        bm = BlockBitmap(64)
        bm.set_range(8, 56)  # only [0, 8) free
        assert bm.find_free_run(8, hint=32) == 0

    def test_huge_hint_clamped(self):
        bm = BlockBitmap(64)
        bm.set_range(0, 32)
        assert bm.find_free_run(4, hint=10**9) == 32

    def test_no_run_raises(self):
        bm = BlockBitmap(16)
        bm.set_range(0, 7)
        bm.set_range(8, 8)  # lone free bit at 7
        with pytest.raises(NoSpaceError):
            bm.find_free_run(2, hint=7)


# ---------------------------------------------------------------------------
# Incremental free-block total (FreeExtentSet)
# ---------------------------------------------------------------------------


class TestFreeBlocksIncremental:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 1023), st.integers(1, 64), st.booleans()),
            max_size=60,
        )
    )
    @settings(max_examples=150)
    def test_total_matches_run_sum_after_every_op(self, ops):
        fes = FreeExtentSet(base=0, size=1024)
        allocated: list[tuple[int, int]] = []
        for hint, count, do_free in ops:
            if do_free and allocated:
                start, got = allocated.pop()
                fes.free(start, got)
            else:
                try:
                    start, got = fes.allocate_near(hint, count, minimum=1)
                except NoSpaceError:
                    continue
                allocated.append((start, got))
            # The incremental counter must agree with a full re-sum.
            assert fes.free_blocks == sum(length for _, length in fes.runs())
            assert fes.used_blocks == sum(got for _, got in allocated)
        fes.validate()


# ---------------------------------------------------------------------------
# Parallel sweep driver determinism
# ---------------------------------------------------------------------------


def _cube(spec, tracer=None):
    """Module-level so worker processes can unpickle it."""
    return (spec, spec**3)


class TestRunCellsDeterminism:
    def test_parallel_equals_serial_in_submission_order(self):
        cells = [7, 3, 11, 5, 2]
        serial = list(stream_cells(cells, _cube, jobs=1))
        parallel = list(stream_cells(cells, _cube, jobs=2))
        assert parallel == serial == [(c, c**3) for c in cells]

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(2) == 2  # explicit wins

    def test_single_cell_stays_in_process(self):
        assert list(stream_cells([4], _cube, jobs=8)) == [(4, 64)]

    @staticmethod
    def document(runner: str, jobs: int) -> str:
        """The rendered document at ``jobs``; at ``jobs=1`` the committed
        ``BENCH_<runner>.json`` where there is one."""
        path = golden.bench_file(f"BENCH_{runner}")
        if jobs == 1 and path is not None:
            return path.read_text(encoding="utf-8")
        return dumps(render(run(runner, scale=0.05, seed=0, jobs=jobs), scale=0.05, seed=0))

    def test_fig7_cells_identical_across_jobs(self):
        """End-to-end: the real sweep renders the same document serial and
        parallel."""
        assert self.document("fig7", jobs=2) == self.document("fig7", jobs=1)

    @pytest.mark.parametrize("runner", ["fig8", "fig9", "fig10"])
    def test_sweep_documents_identical_across_jobs(self, runner):
        """The metadata and application sweeps fan their cells out over
        worker processes too; the rendered document must not depend on the
        worker count."""
        assert self.document(runner, jobs=4) == self.document(runner, jobs=1)


# ---------------------------------------------------------------------------
# Whole-workload identity against the per-segment, per-extent reference plane
# ---------------------------------------------------------------------------


def _macro(bench, policy: str):
    """A fig7 cell: the bench on the plane ``_fig7_cell`` builds."""
    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=8), policy)
    return cfg, bench, bench.write_phase, bench.read_phase


def _strided(mode: str):
    """A fig_listio cell: the bench on the plane ``_fig_listio_cell`` builds."""
    cfg = redbud_mif_profile(ndisks=5)
    cfg = replace(cfg, disk=replace(cfg.disk, request_header_s=LISTIO_HEADER_S))
    bench = StridedAccessBenchmark(
        nstreams=8, records_per_stream=32, record_bytes=16 * KiB, list_len=32, seed=0,
    )
    return (
        cfg, bench,
        partial(bench.phase_write, mode=mode), partial(bench.phase_read, mode=mode),
    )


_IOR = dict(nprocs=64, file_bytes=64 * MiB, request_bytes=64 * KiB)
_BTIO = dict(nprocs=64, step_bytes_per_proc=256 * KiB, steps=4)

#: (config, bench, write phase, read phase) at the sizes fig7 and
#: fig_listio run at the pinned smoke scale.
DATA_WORKLOADS = {
    "ior-reservation": _macro(IORBenchmark(**_IOR), "reservation"),
    "ior-ondemand-collective": _macro(
        IORBenchmark(collective=True, **_IOR), "ondemand"
    ),
    "btio-reservation": _macro(BTIOBenchmark(**_BTIO), "reservation"),
    "btio-ondemand": _macro(BTIOBenchmark(**_BTIO), "ondemand"),
    "strided-scalar": _strided("scalar"),
    "strided-listio": _strided("listio"),
}


#: Counters that say *where* adjacent requests merge, not what the run
#: produced: the plane coalesces in ``DataPlane._emit_rows`` before
#: submission, the reference plane hands every extent to the scheduler and
#: lets it merge them (same ``scheduler.requests_out``, same disk work).
PATH_COUNTERS = ("fs.coalesced_requests", "scheduler.requests_in")


def _plane_state(plane: DataPlane, phases) -> dict:
    """Everything the data path leaves behind, exact bits but for the
    documented tolerance (:func:`rounded`)."""
    counters, accumulators, histograms = rounded(plane.metrics.snapshot())
    return {
        "phases": phases,
        "extents": {f.name: [m.extents() for m in f.maps] for f in plane.files()},
        "counters": {k: v for k, v in counters.items() if k not in PATH_COUNTERS},
        "accumulators": accumulators,
        "histograms": histograms,
        "disks": [(d.head, d.busy_s) for d in plane.array.disks],
    }


class TestLegacyEqualsBatched:
    """The one data path against :class:`ReferenceDataPlane`, on whole
    workloads rather than single layers."""

    @pytest.mark.parametrize("workload", sorted(DATA_WORKLOADS))
    def test_data_path_state(self, workload):
        cfg, bench, write, read = DATA_WORKLOADS[workload]

        def drive(plane):
            f = bench.create_file(plane)
            w = write(plane, f)
            plane.close_file(f)
            return _plane_state(plane, (w, read(plane, f)))

        plane = DataPlane(cfg)
        assert drive(plane) == drive(ReferenceDataPlane(cfg))
        assert plane.array.io_profile["batches_vectorized"] > 0
