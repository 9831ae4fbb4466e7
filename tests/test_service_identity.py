"""The service run is the recorded one, bit for bit.

Golden digests produced by ``python -m tests.service_golden`` (PYTHONHASHSEED
0 and 1 agree; ``--check`` compares a checkout with them).  What a digest
covers is defined there: the rendered service document, every telemetry
frame key-sorted (float sums and histogram totals by ``repr``), and the
exported trace where a tracer is attached.  ``cache.*`` series of the
windows commit 916ab44 mis-billed are excluded and pinned by
``test_service_reduce.py::test_cache_deltas_are_billed_to_their_own_window``.

**Provenance.**  Recorded at ISSUE 23 *step A*: the per-arrival scalar draw
loop of commit 4248606 with one change — each kind draws its gaps, stream
attributions and detail from three sub-streams, ``derive_rng(seed,
"service", kind, "gaps" | "streams" | "detail")``, not from one interleaved
generator.  That re-key changes which pseudo-random numbers realise the
(unchanged) Poisson process, once; the vectorised block draws and the
station's refuse-by-comparison path (step B, what ``src/`` runs) reproduce
all of these values unmodified.  Before that the table dated from commit
916ab44 (per-arrival statistics; ``scrub`` rows from ISSUE 21).  How to
re-record: docs/SERVICE.md.
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
        'b20b6fcec71a6312840fecf455c8e518e8dbc97d9c315196c1a4daf360ff8dff',
    (2000, 0, 'scrub'):
        '58133530c43e0db98c566f8f56a9d37c869955743c72b24d9bdf484d7a8a97fb',
    (2000, 0, 'sample'):
        'f13191ac66579fe4849284fd3a7b50fb6f8b8444b06905c35a602da66d48776d',
    (2000, 0, 'tracer'):
        '004601412a1b8af44b96b5238804e4901759512e89a74ff1abc95c3a344da110',
    (2000, 1, 'telemetry+slo'):
        '60fd81f76fdaf5964180819900c6028a7ad2434bbf73c3e272452f488b667871',
    (2000, 1, 'scrub'):
        'db1572cf0d4b199adcb10785bf933e84564a7df7982498b74e21ac755d9ff26c',
    (2000, 1, 'sample'):
        'e74be4fa34b19c037bf2e0faa7f4ebc39b900a6b10a64a3a63ba0bf8367a183c',
    (2000, 1, 'tracer'):
        '642d7c8fd9c107327fc814df09aebf86825725fff7586461c43cf369b928b81f',
    (50000, 0, 'telemetry+slo'):
        '6239c437e9fdc4a7b48fc379282a63914370221b755b706023a45bb40cc5bdb4',
    (50000, 0, 'scrub'):
        '884dcc78eb891c77da1492824d310b50083fcec629c1961c633612c37e818819',
    (50000, 0, 'sample'):
        '26787f4238da16b0aed297502c5a15da74f3f2b86645601e605d9bf621d70487',
    (50000, 0, 'tracer'):
        'dc6e5c4e77a3d66de1304fc9ae5d70544a323c027d1e98e750986f6302068477',
    (50000, 1, 'telemetry+slo'):
        '06f008929aebfc1efd2ff6b3878e0b45e326fe30c3b19d27aeb424a57812ec0a',
    (50000, 1, 'scrub'):
        '747a8b9af13293cacde0d9f20b7e88d3a6cc566049262b31f534035ebb92fb05',
    (50000, 1, 'sample'):
        '3574958244dc506cca10c180fd77d5f4c4089c4e90d0d44232ce20c47b607716',
    (50000, 1, 'tracer'):
        'd07d20ae319455ad398aa2d3c792829e68f22fac967d50e2cd8016473579c1f3',
}

#: (streams, seed) -> ``ServiceCell.active_streams`` of a plain run.
ACTIVE_STREAMS = {
    (2000, 0): 1273,
    (2000, 1): 1289,
    (50000, 0): 31632,
    (50000, 1): 31595,
}

#: (kind, seed) -> sha256 of the first 1 000 (dt, stream, offset | method).
DRAWS = {
    ('write', 0):
        '121803e0d282e8d6216477eb9304261848249dc1282effb6c4a85c4b27e82919',
    ('read', 0):
        'fb2643529bd45c4c8a97a05e0615a1d880724bfafb525fb09eac56757e732598',
    ('meta', 0):
        'd700d51c62a43165a3346b10f094af8598d980695c540344c5cf097a86367a95',
    ('write', 1):
        '269e52e7f17fcb5eeb7a5e4605cc120c0e9e66fe9e13c73a95c33b1f7a4b7ae6',
    ('read', 1):
        'c9f0fd3833c24c3df060396920cd7408f6ee1e23c5f8770850db469b14cf4869',
    ('meta', 1):
        'a85c01fbf3642ce5d8a2539b05f09d1ea7d8914f434cc5c90d812d7a8235248b',
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
    """The block is only how far a source draws ahead: no column's draws
    interleave with another's, so the same events come out at any size —
    before the arrival window closes and past it, where blocks stay whole."""
    want = {k: service_golden.draws(k, 1, n=300) for k in ServiceWorkload.KINDS}
    # A short window, left behind by more than three blocks of any size.
    spec = ServiceSpec(streams=64, rate=2.0, duration_s=0.25, seed=3)
    past = 3 * 1024 + 80

    def prefix(kind):
        cfg = redbud_mif_profile()
        wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
        wl.setup()
        return [
            (dt, row[ROW_STREAM], row[ROW_OFFSET])
            for dt, row in service_golden.arrivals(wl, kind, past)
        ], wl.active_streams

    past_window = {k: prefix(k) for k in ServiceWorkload.KINDS}
    monkeypatch.setattr(service_mod, "ARRIVAL_BLOCK", block)
    for kind in ServiceWorkload.KINDS:
        assert service_golden.draws(kind, 1, n=300) == want[kind]
        assert prefix(kind) == past_window[kind]
        gaps = [dt for dt, _, _ in past_window[kind][0]]
        assert sum(gaps[:80]) > 4 * spec.duration_s  # all but a few are past it


@pytest.mark.parametrize("kind", ServiceWorkload.KINDS)
def test_draws_realise_the_declared_process(kind):
    """The goldens pin *which* numbers are drawn; this pins what they are
    numbers *of*, so a re-key cannot silently change the process: gaps
    exponential at the kind's aggregate rate, streams uniform, a read's slot
    uniform, stat/utime a fair coin.  Fixed seed, 50 000 draws, 4 sigma."""
    n, sigmas = 50_000, 4.0
    spec = ServiceSpec(streams=50_000, rate=0.5, duration_s=2.0, seed=11)
    cfg = redbud_mif_profile()
    wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
    wl.setup()
    drawn = service_golden.arrivals(wl, kind, n)
    gaps = np.array([dt for dt, _ in drawn])
    rows = [row for _, row in drawn]
    mean = 1.0 / spec.kind_rate(kind)
    # An exponential's sd is its mean, so the sample mean's is mean / sqrt(n);
    # its sample sd is within a few percent of the mean, its minimum near 0.
    assert abs(gaps.mean() - mean) < sigmas * mean / np.sqrt(n)
    assert abs(gaps.std() - mean) < 0.03 * mean and 0.0 <= gaps.min() < 0.01 * mean

    def chi2(values, bins):
        observed = np.bincount(values, minlength=bins)
        assert observed.shape[0] == bins
        return float(((observed - n / bins) ** 2 / (n / bins)).sum())

    def plausible(stat, dof):
        # chi-square(dof) has mean dof and variance 2 dof.
        return abs(stat - dof) < sigmas * np.sqrt(2 * dof)

    streams = np.array([row[ROW_STREAM] for row in rows])
    assert 0 <= streams.min() and streams.max() < spec.streams
    assert plausible(chi2(streams * 64 // spec.streams, 64), 63)
    if kind == "read":
        slots = np.array([row[ROW_OFFSET] for row in rows]) % wl.region_bytes // spec.request_bytes
        assert plausible(chi2(slots, service_mod.REGION_SLOTS), service_mod.REGION_SLOTS - 1)
    if kind == "meta":
        stats = sum(row[service_golden.ROW_METHOD] == "stat" for row in rows)
        assert {row[service_golden.ROW_METHOD] for row in rows} == {"stat", "utime"}
        assert abs(stats - n / 2) < sigmas * np.sqrt(n) / 2


@pytest.mark.parametrize("streams,seed", list(ACTIVE_STREAMS))
def test_active_streams_unchanged(streams, seed):
    assert service_golden.active_streams(streams, seed) == ACTIVE_STREAMS[streams, seed]


def test_a_run_draws_one_pending_arrival_per_source_and_no_more():
    """The quirk ``active_streams`` has always had: each source's one
    pending, undispatched arrival is already attributed to its stream.
    Block-drawn sources draw whole blocks but attribute nothing after the
    first arrival past the window, so the count is exactly dispatched + one
    per source."""
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
