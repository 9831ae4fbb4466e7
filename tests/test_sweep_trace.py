"""The trace is the same whoever ran the cell.

Every sweep cell records into its own ring (``Tracer.spawn``) and the run
appends the rows in submission order (``_Run.cells`` → ``Tracer.absorb``),
in this process or a worker alike.  Pins:

- ``jobs=2`` gives the recorded ``jobs=1`` document of every traced sweep
  case of ``tests/golden.py`` — events, lifetime/eviction counts, metrics,
  phases in order and payload — at a ring that never evicts and one that
  does;
- fig7, run in this process at ``jobs=1``, still gives its recorded
  document (the shared-ring digests of 810d797), at both rings;
- ``spawn`` / ``absorb`` semantics, what a ``CellResult`` may carry through
  pickle, and merge order under reversed completion order.
"""

from __future__ import annotations

import pickle
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.run import run
from repro.core.runners.fig8 import _fig8_profile_cell
from repro.core.sweep import _Cell, _Run
from repro.fs.profiles import redbud_mif_profile
from repro.meta.mds import MetadataServer
from repro.obs.trace import NULL_TRACER, SamplingTracer, Tracer
from repro.sim.metrics import ThroughputResult

from tests import golden
from tests.conftest import small_config


# ---------------------------------------------------------------------------
# Pooled == recorded in-process
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ring", list(golden.RINGS))
@pytest.mark.parametrize("sweep", ["fig6a", "fig8", "fig_listio", "service-sampled", "fig10"])
def test_pooled_trace_equals_in_process_trace(sweep, ring, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    case = f"{sweep}-{ring}"
    moved = golden.diff(case, golden.CASES[case]())
    assert not moved, "\n".join(moved)


@pytest.mark.parametrize("ring", list(golden.RINGS))
@pytest.mark.parametrize("sweep", ["fig7"])
def test_in_process_trace_matches_shared_ring_golden(sweep, ring, monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    case = f"{sweep}-{ring}"
    moved = golden.diff(case, golden.document(case))
    assert not moved, "\n".join(moved)


def test_unclocked_cell_stamps_its_own_sequence():
    """``fig_fsck`` cells bind no clock, so ``run`` rows carry the fallback
    sequence number — the cell's own, not a count of what earlier cells in
    the same process emitted."""
    kwargs = dict(scale=0.05, layouts=("embedded",), multipliers=(1, 2), jobs_points=(1, 2))
    serial = run("fig_fsck", trace=True, jobs=1, **kwargs)
    pooled = run("fig_fsck", trace=True, jobs=2, **kwargs)
    assert [e.t for e in serial.trace.events()] == [0.0, 1.0, 2.0] * 2
    assert pooled.trace.events() == serial.trace.events()


# ---------------------------------------------------------------------------
# spawn / absorb
# ---------------------------------------------------------------------------


class TestSpawn:
    def test_full_tracer(self):
        parent = Tracer(capacity=123, clock=lambda: 7.0, enabled=False)
        parent.enabled = True
        parent.emit("disk", "read")
        ring = parent.spawn()
        assert type(ring) is Tracer
        assert (ring.capacity, ring.enabled, ring.clock) == (123, True, None)
        assert ring.rows() == [] and ring.emitted == 0
        assert Tracer(enabled=False).spawn().enabled is False

    def test_sampling_tracer(self):
        ring = SamplingTracer(every=50, offset=53, capacity=9, clock=lambda: 1.0).spawn()
        assert type(ring) is SamplingTracer
        assert (ring.every, ring.offset, ring.capacity) == (50, 3, 9)
        assert ring.enabled is False and ring.clock is None and ring.rows() == []

    def test_null_tracer_is_its_own_ring(self):
        assert NULL_TRACER.spawn() is NULL_TRACER
        NULL_TRACER.absorb([(0.0, 0.0, None, ("a", "b"))], 1)
        assert NULL_TRACER.rows() == [] and NULL_TRACER.emitted == 0

    @pytest.mark.parametrize("parent", [Tracer(5), SamplingTracer(every=3, capacity=5)])
    def test_spawned_ring_pickles(self, parent):
        ring = pickle.loads(pickle.dumps(parent.spawn()))
        assert type(ring) is type(parent) and ring.capacity == 5
        ring.enabled = True
        ring.emit("disk", "read", t=1.0, stream=4)
        assert [e.op for e in ring.events()] == ["read"]


@given(
    capacity=st.integers(min_value=1, max_value=40),
    sizes=st.lists(st.integers(min_value=0, max_value=60), max_size=5),
)
def test_absorbing_rings_equals_emitting_the_concatenation(capacity, sizes):
    merged, reference = Tracer(capacity), Tracer(capacity)
    serial = 0
    for size in sizes:
        ring = merged.spawn()
        for _ in range(size):
            for tracer in (ring, reference):
                tracer.emit("alloc", "window", t=float(serial), stream=serial % 3, n=serial)
            serial += 1
        merged.absorb(*pickle.loads(pickle.dumps((ring.rows(), ring.emitted))))
    assert merged.events() == reference.events()
    assert merged.emitted == reference.emitted == sum(sizes)
    assert merged.dropped == reference.dropped == max(0, sum(sizes) - capacity)


# ---------------------------------------------------------------------------
# What crosses the process boundary, and in which order it is merged
# ---------------------------------------------------------------------------


def test_cell_result_ships_rows_not_the_file_system():
    result = _fig8_profile_cell((0.04, redbud_mif_profile()), Tracer(capacity=golden.TIGHT))
    assert result.trace_emitted > len(result.trace_rows) == golden.TIGHT
    blob = pickle.dumps(result)
    assert b"MetadataServer" not in blob and b"DataPlane" not in blob
    # The check has teeth: a tracer's clock is a bound method of the MDS.
    tracer = Tracer()
    MetadataServer(small_config(), tracer=tracer)
    assert b"MetadataServer" in pickle.dumps(tracer)


def _slow_first_cell(spec, tracer=None):
    """Finishes in reverse submission order: cell ``i`` of ``n`` sleeps
    ``(n - 1 - i)`` ticks before recording anything."""
    index, n = spec
    time.sleep(0.05 * (n - 1 - index))
    cell = _Cell(tracer)
    cell.metrics.incr("cells")
    cell.phase(f"cell{index}", ThroughputResult(bytes_moved=0, elapsed=1.0, ops=index))
    return cell.result(index)


@pytest.mark.parametrize("jobs", [1, 4])
def test_run_cells_merges_in_submission_order(jobs):
    n = 4
    run_ctx = _Run("order", Tracer(capacity=3))
    payloads = [cell.payload for cell in run_ctx.cells([(i, n) for i in range(n)], _slow_first_cell, jobs)]
    assert payloads == list(range(n))
    assert list(run_ctx.phases) == [f"cell{i}" for i in range(n)]
    assert run_ctx.metrics.count("cells") == n
    assert [e.op for e in run_ctx.tracer.events()] == ["cell1", "cell2", "cell3"]
    assert (run_ctx.tracer.emitted, run_ctx.tracer.dropped) == (n, 1)
