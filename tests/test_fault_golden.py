"""The fault campaign is the parent's, and an idle injector changes nothing.

Golden digests recorded at commit f3214f3 — when an attached injector still
steered every disk batch onto a per-request object loop and every metadata
op onto a scalar MDS body — with ``python -m tests.fault_golden``
(PYTHONHASHSEED 0 and 1 agree).  What a digest covers is defined there.
"""

from __future__ import annotations

import pytest

from repro.fault import FaultInjector, FaultPlan
from repro.meta.mds import MetadataServer
from repro.obs.trace import Tracer

from tests import fault_golden
from tests.conftest import small_config

#: (seed, scale) -> sha256; see tests/fault_golden.py.
CAMPAIGN = {
    (0, 0.2): 'b393715445f954c0fc70a608d5b24e704bc98482f05d1cf4f5c609db9f57fcaf',
    (1, 0.2): 'e9942112e963e01df72a87cfaa6cccb1ea9aa74a26982ebd920572e0f55d4281',
    (0, 1.0): '04016211bc0ce918bc4b0e65599f8c7b5a758550f9feacdfc08bf4f7ae473d5c',
    (1, 1.0): 'a5cade899c6b6556f2666fdbd45720e56fa5f7e3060ecd4c4b6007f4a2f9f7d3',
}


@pytest.mark.parametrize("seed,scale", fault_golden.CASES)
def test_fault_campaign_matches_pre_refactor_golden(seed, scale):
    assert fault_golden.campaign_digest(seed, scale) == CAMPAIGN[seed, scale]


def test_scale_one_campaigns_crash_and_discard():
    """The scale-1.0 cases are the ones whose crash point fires."""
    for seed in (0, 1):
        payload = fault_golden.campaign_document(seed, 1.0)["payload"]
        assert payload["injected_crashes"] == 1
        assert payload["injected_torn"] > 1
        assert payload["replayed_records"] > 0
    assert fault_golden.campaign_document(0, 1.0)["payload"]["discarded_records"] == 1


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
