"""The service run is the parent's, bit for bit.

Golden digests recorded at commit 916ab44 — *before* the service path
switched to record -> reduce and block-drawn arrivals — with
``python -m tests.service_golden`` (PYTHONHASHSEED 0 and 1 agree).  What a
digest covers is defined there: the rendered service document, every
telemetry frame key-sorted (float sums and histogram totals by ``repr``),
and the exported trace where a tracer is attached.  ``cache.*`` series of
the windows the parent mis-billed are excluded and pinned by
``test_service_reduce.py::test_cache_deltas_are_billed_to_their_own_window``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.workloads.service as service_mod
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import redbud_mif_profile
from repro.meta.mds import MetadataServer
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.workloads.service import ROW_OFFSET, ROW_STREAM, ServiceSpec, ServiceWorkload

from . import service_golden

#: (streams, seed, variant) -> sha256; see tests/service_golden.py.
SERVICE = {
    (2000, 0, 'telemetry+slo'):
        '13524265ccdd27f6c0cb29a3d845aa08a7213b8f0a4783db7fd3a09654413a59',
    (2000, 0, 'scrub'):
        '86389fff024aeb577023aee39b18ff969db34d9d7f54ca41a307e23f13f8f843',
    (2000, 0, 'sample'):
        '1c32ca56f8cd189b09c892e62749bccea2d44ae8485c8c1b5b1414f9618a76ad',
    (2000, 0, 'tracer'):
        'f3292f93aecb93e1bf1f6a4dd491a6b0829e57b9c93ec7f619eae15e431dba25',
    (2000, 1, 'telemetry+slo'):
        'cc4f183951062622ee92e6648de35f0657d80cbd3edb6cf1b1fe0430a56e83db',
    (2000, 1, 'scrub'):
        '0664149403dadf637563191391336bce4c1fdac5b2c8dd0a656f3f55039fc82e',
    (2000, 1, 'sample'):
        'e90d92421b495b27c3ef4fc9df31cbb263d49a2b20ef75e4c418b6ec6d8599b6',
    (2000, 1, 'tracer'):
        'b7990b50f78df2dfc48f7ea142489aece8ec6cee268d77b0c3e8146671e7f020',
    (50000, 0, 'telemetry+slo'):
        '8f56bba62b22d0668ff77a653f3c60172d65475044f4672564ba7eed4a1a2821',
    (50000, 0, 'scrub'):
        'f85038ce15f2c3aa80c1948a93b1fb61f035c0aa83bb9fd116222ec2969b9fd0',
    (50000, 0, 'sample'):
        '43ebb761801100057d70d6b6b2fb73a367ad02df34ffbd69181ed5bd56d88f8f',
    (50000, 0, 'tracer'):
        '3d58973baa0851bc6f24aa43e103271f20b87d2fa33be032576fb27ab6abf54f',
    (50000, 1, 'telemetry+slo'):
        '90e433ba9876f0b116cdfa4693995b00fef544bdeb88015ff38828de97d6db21',
    (50000, 1, 'scrub'):
        'd293ddb368115853ea619a12efaadcc03e1446b17fa3f0fc83e6d161980228c2',
    (50000, 1, 'sample'):
        'e317cd62cd60629c4c479ba125b62ed8303d0de63e93e157d251610dd9ceffb9',
    (50000, 1, 'tracer'):
        '537f58811a1108995991953bf78c2843ff79e6ec309aa99fd9a0c13c0df4e14f',
}

#: (streams, seed) -> ``ServiceCell.active_streams`` of a plain run.
ACTIVE_STREAMS = {
    (2000, 0): 1309,
    (2000, 1): 1248,
    (50000, 0): 31507,
    (50000, 1): 31688,
}

#: (kind, seed) -> sha256 of the first 1 000 (dt, stream, offset | method).
DRAWS = {
    ('write', 0): '2ec3a44475a0ee7db431439d285be311016f7ebb118cddd8f446ae5b1bdbe238',
    ('read', 0): '8571599a7b9dc9d41c9413fa496b2d672c4831b4144b0e2e6b1fe67e55ff452d',
    ('meta', 0): 'a155b2178da9de869575f76e5fb2299238e3213db6c072587cc1a67aeef23a91',
    ('write', 1): 'eac531cf335c8e676c0f502e604a5041433ab8891ddaa67fd3548021ec48050d',
    ('read', 1): 'ab85c7b23fa9ebde8ef82bab210ffd2edc1eb493922081e91db2428b638897cb',
    ('meta', 1): 'ab4179d05d4bf0d2a189e3abfe20953bc6b5cb065743c6bb2841f18a6288bf4c',
}


@pytest.mark.parametrize(
    "streams,seed,variant", list(SERVICE),
    ids=[f"{n}-seed{s}-{v}" for n, s, v in SERVICE],
)
def test_service_run_matches_pre_refactor_golden(streams, seed, variant):
    assert service_golden.service_digest(streams, seed, variant) == SERVICE[streams, seed, variant]


# ---------------------------------------------------------------------------
# Draw-order contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,seed", list(DRAWS), ids=[f"{k}-seed{s}" for k, s in DRAWS])
def test_first_thousand_draws_match_parent(kind, seed):
    assert service_golden.draw_digest(kind, seed) == DRAWS[kind, seed]


@pytest.mark.parametrize("block", [1, 3, 1024])
def test_event_stream_does_not_depend_on_block_size(monkeypatch, block):
    """The block is only how far a source draws ahead: same scalar draws
    in the same order, so the same events — before and past the arrival
    window, where blocks shrink to one event."""
    want = {k: service_golden.draws(k, 1, n=300) for k in ServiceWorkload.KINDS}
    monkeypatch.setattr(service_mod, "ARRIVAL_BLOCK", block)
    for kind in ServiceWorkload.KINDS:
        assert service_golden.draws(kind, 1, n=300) == want[kind]
    # A short window: the stream keeps going past duration_s unchanged.
    spec = ServiceSpec(streams=64, rate=2.0, duration_s=0.25, seed=3)

    def prefix():
        cfg = redbud_mif_profile()
        wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
        wl.setup()
        return [
            (dt, row[ROW_STREAM], row[ROW_OFFSET])
            for dt, row in service_golden.arrivals(wl, "read", 80)
        ]

    past_window = prefix()
    assert sum(dt for dt, _, _ in past_window) > 4 * spec.duration_s
    monkeypatch.setattr(service_mod, "ARRIVAL_BLOCK", 1024)
    assert prefix() == past_window


@pytest.mark.parametrize("streams,seed", list(ACTIVE_STREAMS))
def test_active_streams_unchanged(streams, seed):
    assert service_golden.active_streams(streams, seed) == ACTIVE_STREAMS[streams, seed]


def test_a_run_draws_one_pending_arrival_per_source_and_no_more():
    """The quirk ``active_streams`` has always had: each source's one
    pending, undispatched arrival is already attributed to its stream.
    Block-drawn sources stop at the first arrival past the window, so the
    count of draws is exactly dispatched + one per source."""
    spec = ServiceSpec(streams=10_000, rate=0.5, duration_s=2.0, seed=0)
    cfg = redbud_mif_profile()
    wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
    wl.setup()
    loop = EventLoop(SimClock())
    for kind in ServiceWorkload.KINDS:
        loop.add_blocks(wl.events(kind), lambda now, row: None)
    dispatched = loop.run(until=spec.duration_s)
    assert dispatched > 6 * service_mod.ARRIVAL_BLOCK  # every source spans blocks
    assert len(loop) == len(ServiceWorkload.KINDS)
    assert int(wl.ops_per_stream.sum()) == dispatched + len(ServiceWorkload.KINDS)
    assert wl.active_streams == int(np.count_nonzero(wl.ops_per_stream))
