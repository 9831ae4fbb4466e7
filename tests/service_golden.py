"""Digests that pin an open-loop service run, independent of *how* its
statistics were gathered.

``tests/test_service_identity.py`` compares these against recorded values
(provenance there: the per-arrival scalar draw loop on the column
sub-streams, ISSUE 23 step A), so the block-drawn, record → reduce path
(docs/SERVICE.md, docs/TELEMETRY.md) is held to the per-arrival path's
output bit for bit: the rendered service document, every telemetry frame
(counters, float sums, histogram buckets, extrema and float totals) and,
where a tracer is attached, the exported trace.  Dict keys are sorted
before hashing, so the digests do not depend on the order in which events
first touched a window.

Run ``PYTHONPATH=src python -m tests.service_golden`` to print the tables
(that is how the recorded values were produced, with ``src`` pointing at
the checkout being recorded) and ``... --check`` to compare them with the
recorded ones instead: a per-id diff and exit status 1 on any mismatch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json

from repro.bench.baseline import render
from repro.core.run import run
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import redbud_mif_profile
from repro.meta.mds import MetadataServer
from repro.obs.export import to_jsonl
from repro.workloads.service import (
    ROW_METHOD,
    ROW_OFFSET,
    ROW_STREAM,
    ServiceSpec,
    ServiceWorkload,
)

#: Observation variants; every one carries telemetry + SLOs.
VARIANTS: dict[str, dict] = {
    "telemetry+slo": {},
    "scrub": {"scrub": True, "scrub_corrupt": 3},
    "sample": {"sample": "1/200"},
    "tracer": {"trace": True},
}
STREAMS = (2_000, 50_000)
SEEDS = (0, 1)
DRAWS = 1_000


def misbilled_windows(window_s: float, nframes: int) -> set[int]:
    """Frames whose ``cache.*`` series the parent billed to the wrong
    window: it addressed window ``i`` by the timestamp ``i * window_s``,
    and ``int((i * w) / w)`` is ``i - 1`` for some ``i``.  Those frames'
    cache series are excluded here and pinned by the bugfix regression test
    instead."""
    skip: set[int] = set()
    for i in range(nframes + 1):
        j = int((i * window_s) / window_s)
        if j != i:
            skip.update((i, j))
    return skip


def _hist(h) -> dict:
    return {
        "count": h.count, "total": h.total, "zeros": h.zeros,
        "buckets": {str(e): c for e, c in sorted(h.buckets.items())},
        "min": h.minimum, "max": h.maximum,
    }


def frames_document(ts) -> list[dict]:
    skip = misbilled_windows(ts.window_s, len(ts.frames))

    def keep(frame, name):
        return not (frame.index in skip and name.startswith("cache."))

    return [
        {
            "window": f.index,
            "start_s": f.start_s,
            "counters": {k: v for k, v in f.counters.items() if keep(f, k)},
            "sums": {k: v for k, v in f.sums.items() if keep(f, k)},
            "hists": {k: _hist(h) for k, h in f.hists.items()},
        }
        for f in ts.frames
    ]


def service_digest(streams: int, seed: int, variant: str) -> str:
    """sha256 over one service run's simulated outputs (floats by repr)."""
    result = run(
        "service", streams=streams, rate="small", duration="short", seed=seed,
        jobs=1, telemetry=True, slo=True, **VARIANTS[variant],
    )
    (cell,) = result.payload.cells
    doc = {
        "bench": render(result, scale=1.0, seed=seed),
        "cell": {
            "arrivals": cell.arrivals,
            "active_streams": cell.active_streams,
            "io_profile": cell.io_profile,
            "stations": {n: dataclasses.asdict(s) for n, s in cell.stations.items()},
            "slo": cell.slo.to_dict(),
            "scrub": None if cell.scrub is None else dataclasses.asdict(cell.scrub),
        },
        "frames": frames_document(cell.telemetry),
    }
    if result.trace is not None:
        buf = io.StringIO()
        to_jsonl(result.trace.events(), buf)
        doc["trace"] = {
            "emitted": result.trace.emitted,
            "dropped": result.trace.dropped,
            "jsonl": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def arrivals(wl: ServiceWorkload, kind: str, n: int) -> list[tuple]:
    """The first ``n`` ``(gap, row)`` arrivals of one kind's block source."""
    flat = ((dt, row) for gaps, rows in wl.events(kind) for dt, row in zip(gaps, rows))
    return list(itertools.islice(flat, n))


def draws(kind: str, seed: int, n: int = DRAWS) -> list[tuple]:
    """The first ``n`` ``(dt, stream, offset | method)`` of one kind's event
    source at the ledger's operating point."""
    spec = ServiceSpec(streams=50_000, rate=0.5, duration_s=2.0, seed=seed)
    cfg = redbud_mif_profile()
    wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
    wl.setup()
    field = ROW_METHOD if kind == "meta" else ROW_OFFSET
    return [(dt, row[ROW_STREAM], row[field]) for dt, row in arrivals(wl, kind, n)]


def draw_digest(kind: str, seed: int) -> str:
    return hashlib.sha256(json.dumps(draws(kind, seed)).encode()).hexdigest()


def active_streams(streams: int, seed: int) -> int:
    result = run("service", streams=streams, rate="small", duration="short", seed=seed)
    return result.payload.cells[0].active_streams


def tables() -> dict[str, dict]:
    """Every golden table of ``tests/test_service_identity.py``, computed now."""
    return {
        "SERVICE": {
            (streams, seed, variant): service_digest(streams, seed, variant)
            for streams in STREAMS for seed in SEEDS for variant in VARIANTS
        },
        "ACTIVE_STREAMS": {
            (streams, seed): active_streams(streams, seed)
            for streams in STREAMS for seed in SEEDS
        },
        "DRAWS": {
            (kind, seed): draw_digest(kind, seed)
            for seed in SEEDS for kind in ServiceWorkload.KINDS
        },
    }


if __name__ == "__main__":
    import sys

    from tests import test_service_identity
    from tests.golden import main

    sys.exit(main(tables(), test_service_identity, sys.argv[1:]))
