"""The trace is the same whoever ran the cell.

Every sweep cell records into its own ring (``Tracer.spawn``) and the run
appends the rows in submission order (``_Run.cells`` → ``Tracer.absorb``),
in this process or a worker alike.  Pins:

- ``jobs=1`` and ``jobs=2`` give the same events, lifetime/eviction counts,
  metrics, phases and payload, at a ring that never evicts and one that does;
- the ``jobs=1`` event stream still matches digests recorded at 810d797, when
  all cells shared the run's one ring (``tests/sweep_golden.py``; the two
  ``service-sampled`` rows re-recorded at ISSUE 23 step A and the two
  ``fig10`` rows recorded at e0ad66e, see ``GOLDEN``);
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

from tests.conftest import small_config
from tests.sweep_golden import ROOMY, TIGHT, trace_digest, traced_run

#: (case, capacity) -> (sha256 of the JSONL export, emitted, dropped) at
#: ``jobs=1``, recorded at commit 810d797 by ``python -m tests.sweep_golden``
#: (identical under PYTHONHASHSEED 0 and 1) — except ``service-sampled``,
#: whose arrivals changed sample path once: recorded at ISSUE 23 step A (the
#: scalar draw loop of 4248606 on one sub-stream per arrival column, see
#: ``tests/test_service_identity.py``); the vectorised draws reproduce it —
#: and ``fig10``, recorded at e0ad66e.
GOLDEN = {
    ('fig6a', 1048576): ('07f5e15b34cbb957819342605de350621f4827434fa69f2275993cd815409b0f', 1077, 0),
    ('fig6a', 997): ('fe9e6f418bb51b34856afd69772c8dcfdadfef4213d627808fe3e86744524f1f', 1077, 80),
    ('fig8', 1048576): ('809934d9aa87967c75c1c8c380dab90ad8cb08bd4d26a72746dadbc386b667fb', 104521, 0),
    ('fig8', 997): ('e030d1444702402ec53cafee279bc41b8cdc98893fe21d9a588a9d5a834ae8fe', 104521, 103524),
    ('fig_listio', 1048576): ('b3a7eb452048ccc30b7f1516cb9fe2e822f033dda3edad7e772d86a1a8edf063', 1256, 0),
    ('fig_listio', 997): ('9d164ab8617fd13dd37a89168784828ab702c6731c2fac4e9263a1e4ecd1b170', 1256, 259),
    ('service-sampled', 1048576): ('92beb5b00bc01c33fe75113b5798073dd7b9cb50f91c425640b908e3e07d0793', 1084, 0),
    ('service-sampled', 997): ('7044a8e37da78cda434dded02dc8c1531db5a1f6fe3e255a0dbd09ff513c0272', 1084, 87),
    ('fig7', 1048576): ('01fa97380ecf809e8dc0303cb784609184484d6bd3f7f2bbac102790b684ef94', 8011, 0),
    ('fig7', 997): ('bf715fbc326a82833d41435f8fa5b22d938b4554e7fa092d10aa7ce08e190ff4', 8011, 7014),
    ('fig10', 1048576): ('addee41dfc4fbbe0babce18498be2a24fd177fb0efce52747548169b3a1b98ea', 41450, 0),
    ('fig10', 997): ('8e37616c49dc01527bb24d21cdd1527e32f8f5805b2d80506742b120ed5e2aea', 41450, 40453),
}


# ---------------------------------------------------------------------------
# Serial-after == serial-before == pooled
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("capacity", [ROOMY, TIGHT], ids=["roomy", "evicting"])
@pytest.mark.parametrize("case", ["fig6a", "fig8", "fig_listio", "service-sampled", "fig10"])
def test_pooled_trace_equals_in_process_trace(case, capacity):
    serial = traced_run(case, capacity, jobs=1)
    pooled = traced_run(case, capacity, jobs=2)
    assert trace_digest(serial.trace) == GOLDEN[case, capacity]
    assert pooled.trace.events() == serial.trace.events()
    assert (pooled.trace.emitted, pooled.trace.dropped) == GOLDEN[case, capacity][1:]
    assert pooled.metrics == serial.metrics
    assert pooled.phases == serial.phases and list(pooled.phases) == list(serial.phases)
    assert pooled.payload == serial.payload


@pytest.mark.parametrize("capacity", [ROOMY, TIGHT], ids=["roomy", "evicting"])
@pytest.mark.parametrize("case", ["fig7"])
def test_in_process_trace_matches_shared_ring_golden(case, capacity):
    assert trace_digest(traced_run(case, capacity, jobs=1).trace) == GOLDEN[case, capacity]


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
        assert ring.enabled is False and ring.clock is None and len(ring) == 0

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
    result = _fig8_profile_cell((0.04, redbud_mif_profile()), Tracer(capacity=TIGHT))
    assert result.trace_emitted > len(result.trace_rows) == TIGHT
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
