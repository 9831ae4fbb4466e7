"""The fault campaign crashes where it should, and an idle injector changes
nothing.  The campaign's outputs are the ``faults-*`` cases of
``tests/golden.py`` (recorded at commit f3214f3; provenance there).
"""

from __future__ import annotations

import pytest

from repro.fault import FaultInjector, FaultPlan
from repro.meta.mds import MetadataServer
from repro.obs.trace import Tracer

from tests import golden
from tests.conftest import small_config


def test_scale_one_campaigns_crash_and_discard():
    """The scale-1.0 cases are the ones whose crash point fires."""
    for seed in (0, 1):
        payload = golden.document(f"faults-seed{seed}-scale1.0")["payload"]
        assert payload["injected_crashes"] == 1
        assert payload["injected_torn"] > 1
        assert payload["replayed_records"] > 0
    assert golden.document("faults-seed0-scale1.0")["payload"]["discarded_records"] == 1


@pytest.mark.parametrize("layout", ["embedded", "normal"])
def test_disarmed_injector_is_no_injector(layout):
    """The state the campaign's post-recovery creates run in: an injector
    that is attached but disarmed leaves the server exactly where a server
    without one ends up — clock, metrics, cache order, journal and trace."""

    def drive(attach: bool):
        mds = MetadataServer(small_config(layout=layout, cache_blocks=24), tracer=Tracer())
        if attach:
            injector = FaultInjector(
                FaultPlan(seed=0, lse_ranges=((0, 64),), torn_every=1, crash_after_requests=0)
            )
            mds.disk.attach_injector(injector)
            injector.disarm()
        d = mds.mkdir(mds.root, "d")
        for i in range(40):
            mds.create(d, f"f{i:02d}")
        for i in range(0, 40, 2):
            mds.utime(d, f"f{i:02d}")
        mds.readdir_stat(d)
        for i in range(0, 40, 3):
            mds.delete(d, f"f{i:02d}")
        mds.crash_recover()
        return (
            mds.elapsed_s, mds.ops, mds.disk.head, mds.disk.busy_s,
            mds.metrics.snapshot(), list(mds.cache._lru), list(mds.cache._ra.items()),
            mds.journal.head_block, mds.journal.records_written,
            mds.tracer.events(),
        )

    assert drive(True) == drive(False)
