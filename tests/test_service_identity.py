"""The arrival draws: what they are numbers *of*, and that drawing them by
block changes none of them.

The service runs and the first 1 000 draws of each kind are cases of
``tests/golden.py`` (provenance there); re-recording them is the two-step
procedure of docs/SERVICE.md.
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
from repro.workloads.service import (
    ROW_METHOD,
    ROW_OFFSET,
    ROW_STREAM,
    ServiceSpec,
    ServiceWorkload,
)

from .golden import arrivals, draws


# ---------------------------------------------------------------------------
# Draw-order contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block", [1, 3, 1024])
def test_event_stream_does_not_depend_on_block_size(monkeypatch, block):
    """The block is only how far a source draws ahead: no column's draws
    interleave with another's, so the same events come out at any size —
    before the arrival window closes and past it, where blocks stay whole."""
    want = {k: draws(k, 1, n=300) for k in ServiceWorkload.KINDS}
    # A short window, left behind by more than three blocks of any size.
    spec = ServiceSpec(streams=64, rate=2.0, duration_s=0.25, seed=3)
    past = 3 * 1024 + 80

    def prefix(kind):
        cfg = redbud_mif_profile()
        wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
        wl.setup()
        return [
            (dt, row[ROW_STREAM], row[ROW_OFFSET])
            for dt, row in arrivals(wl, kind, past)
        ], wl.active_streams

    past_window = {k: prefix(k) for k in ServiceWorkload.KINDS}
    monkeypatch.setattr(service_mod, "ARRIVAL_BLOCK", block)
    for kind in ServiceWorkload.KINDS:
        assert draws(kind, 1, n=300) == want[kind]
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
    drawn = arrivals(wl, kind, n)
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
        stats = sum(row[ROW_METHOD] == "stat" for row in rows)
        assert {row[ROW_METHOD] for row in rows} == {"stat", "utime"}
        assert abs(stats - n / 2) < sigmas * np.sqrt(n) / 2


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
