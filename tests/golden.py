"""The golden registry: one answer to "did the simulated output move?".

``CASES`` maps a case id to a zero-argument callable returning the case's
*document*, a dict of JSON-able sections.  ``tests/golden_recorded.py`` is
the one recorded table: one 16-hex sha256 prefix per section of every case,
so a mismatch names the sections that moved.  The ``bench`` section of a
case run at the pinned configuration (``COMMITTED``) is the exception: its
record is the runner's committed ``BENCH_<runner>.json``, compared byte for
byte with ``dumps`` of the computed section (``repro bench run`` writes
those files).

A runner case (:func:`runner_case`) documents one ``run(...)`` in these
sections, each present when the run has it:

- ``bench``: ``render(result)`` (fingerprint, phases, histogram
  percentiles and layout metrics at 6 significant digits);
- ``phases``: every phase's ``ThroughputResult`` exactly, in merge order;
- ``payload``: the runner's payload dataclass; a service cell leaves its
  telemetry to ``frames`` and carries its SLO report as ``to_dict()``;
- ``counters``, ``accumulators``, ``histograms``: the run's metrics,
  exactly; the fault campaign's ``disk.positioning_s`` /
  ``disk.transfer_s`` and histogram totals are rounded to 12 places (its
  column path's array sums were allowed last-ulp drift against the
  per-request fold they replaced);
- ``frames``: every telemetry frame of every service cell, exactly;
- ``trace``: emitted, dropped and the sha256 of the JSONL export.

The families, what each replaced table hashed (every field of it is in the
new document) and where its values were first recorded:

- ``<sweep>-roomy`` / ``<sweep>-evicting``: traced sweeps under a ring no
  case overflows and one every full-``Tracer`` case does.  Was the sweep
  trace table (JSONL sha256, emitted, dropped at ``jobs=1``), recorded at
  810d797, the last commit whose cells shared the run's one ring;
  ``fig10`` at e0ad66e; ``service-sampled`` like the service family.
  ``fig7-roomy`` is also the trace-identity table's fig7 row (8011 rows,
  recorded at becf4b6, the commit before the tracer gates went).
- ``fig8-ring65536``: the trace-identity table's fig8 rows (JSONL
  sha256, emitted, dropped; becf4b6), whose default ring wraps.  fig8
  ignores its seed: the seed-0 and seed-1 rows were one run.
- ``service-<streams>-seed<s>-<variant>``: the service table (rendered
  document, arrivals, active streams, io_profile, stations, SLO report,
  scrub summary, every telemetry frame, trace) and, as the ``plain``
  variant, the active-stream table.  Recorded on the per-arrival scalar
  draw loop of 4248606 with one change, committed with a7e67ea: each kind
  draws its gaps, stream attributions and detail from three sub-streams,
  ``derive_rng(seed, "service", kind, "gaps" | "streams" | "detail")``
  (before that the table dated from 916ab44); the block draws reproduce
  it unmodified.  The frames
  that 916ab44 billed to the wrong window are no longer left out: that
  bug is fixed and ``test_cache_deltas_are_billed_to_their_own_window``
  pins it.
- ``draws-<kind>-seed<s>``: the first 1 000 ``(dt, stream, offset |
  method)`` of one kind's event source at the host-time ledger's
  operating point, recorded like the service family.
- ``faults-seed<s>-scale<x>``: the fault campaign table (fingerprint,
  payload, phases, counters, accumulators, histograms, trace), recorded at
  f3214f3, when an armed injector still steered every batch onto the
  object loop and the scalar MDS body.
- ``repair-<layout>-seed<s>``: repairing ``build_crashed_image(scale=2)``
  (findings before, actions, passes, findings after), recorded at d75c676,
  when the metadata checker walked entries one tuple at a time.
- ``BENCH_<runner>``: the committed baselines, run untraced at the pinned
  configuration, as ``repro bench run`` writes them.
- ``fig6b-sampled`` / ``table1-traced``: the same runs under a
  ``SamplingTracer(every=3)`` and a full ``Tracer``.  Each must still
  render its runner's committed bytes (was the committed-baseline test of
  fig6b under sampled tracing); ``table1-traced``'s trace is the
  trace-identity table's table1 row (becf4b6).

Run ``PYTHONPATH=src python -m tests.golden`` to record: it computes every
case, rewrites the table and then checks.  ``... --check`` only checks:
a per-case, per-section diff and exit status 1 on any mismatch.
No case sets a worker count, so ``REPRO_JOBS`` picks it (default 1).
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

from repro.bench.baseline import PINNED_RUNNERS, PINNED_SCALE, PINNED_SEED, dumps, render
from repro.core.run import run
from repro.core.runners.service import ServiceReport
from repro.fault import build_crashed_image
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import redbud_mif_profile
from repro.fs.verify import repair_dataplane, repair_mds
from repro.meta.mds import MetadataServer
from repro.obs.export import to_jsonl
from repro.obs.trace import SamplingTracer, Tracer
from repro.workloads.service import (
    ROW_METHOD,
    ROW_OFFSET,
    ROW_STREAM,
    ServiceSpec,
    ServiceWorkload,
)

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "golden_recorded.py"

#: A ring no case overflows, and one every full-``Tracer`` case does.
ROOMY, TIGHT = 1 << 20, 997
ROUNDED = ("disk.positioning_s", "disk.transfer_s")


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def _hist(h, total: float) -> dict:
    return {
        "count": h.count, "total": total, "zeros": h.zeros,
        "buckets": {str(e): c for e, c in sorted(h.buckets.items())},
        "min": h.minimum, "max": h.maximum,
    }


def _frames(ts) -> list[dict]:
    return [
        {
            "window": f.index,
            "start_s": f.start_s,
            "counters": f.counters,
            "sums": f.sums,
            "hists": {k: _hist(h, h.total) for k, h in f.hists.items()},
        }
        for f in ts.frames
    ]


def _service_cell(cell) -> dict:
    doc = dataclasses.asdict(dataclasses.replace(cell, telemetry=None, slo=None))
    doc["slo"] = None if cell.slo is None else cell.slo.to_dict()
    return doc


def runner_document(result, *, scale: float, seed: int) -> dict:
    """Every simulated output of one run, by section (floats by ``repr``)."""
    snap, payload = result.metrics, result.payload
    rounded = result.name == "faults"
    doc = {
        "bench": render(result, scale=scale, seed=seed),
        "phases": [[k, dataclasses.asdict(v)] for k, v in result.phases.items()],
        "counters": dict(snap.counters),
        "accumulators": {
            k: round(v, 12) if rounded and k in ROUNDED else v
            for k, v in snap.accumulators.items()
        },
        "histograms": {
            k: _hist(h, round(h.total, 12) if rounded else h.total)
            for k, h in snap.histograms.items()
        },
    }
    if isinstance(payload, ServiceReport):
        doc["payload"] = {"cells": [_service_cell(c) for c in payload.cells]}
        frames = [_frames(c.telemetry) for c in payload.cells if c.telemetry is not None]
        if frames:
            doc["frames"] = frames
    elif payload is not None:
        doc["payload"] = dataclasses.asdict(payload)
    if result.trace is not None:
        buf = io.StringIO()
        to_jsonl(result.trace.events(), buf)
        doc["trace"] = {
            "emitted": result.trace.emitted,
            "dropped": result.trace.dropped,
            "jsonl": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        }
    return {name: section for name, section in doc.items() if section}


def runner_case(runner: str, *, trace=None, **kwargs):
    """The case documenting ``run(runner, **kwargs)``.  ``trace`` is
    ``True`` or a zero-argument tracer factory (a fresh ring per call)."""

    def case() -> dict:
        result = run(runner, trace=trace() if callable(trace) else trace, **kwargs)
        return runner_document(
            result, scale=kwargs.get("scale", 1.0), seed=kwargs.get("seed", 0)
        )

    return case


def arrivals(wl: ServiceWorkload, kind: str, n: int) -> list[tuple]:
    """The first ``n`` ``(gap, row)`` arrivals of one kind's block source."""
    flat = ((dt, row) for gaps, rows in wl.events(kind) for dt, row in zip(gaps, rows))
    return list(itertools.islice(flat, n))


def draws(kind: str, seed: int, n: int = 1_000) -> list[tuple]:
    """The first ``n`` ``(dt, stream, offset | method)`` of one kind's event
    source at the ledger's operating point."""
    spec = ServiceSpec(streams=50_000, rate=0.5, duration_s=2.0, seed=seed)
    cfg = redbud_mif_profile()
    wl = ServiceWorkload(spec, DataPlane(cfg), MetadataServer(cfg))
    wl.setup()
    field = ROW_METHOD if kind == "meta" else ROW_OFFSET
    return [(dt, row[ROW_STREAM], row[field]) for dt, row in arrivals(wl, kind, n)]


def draws_document(kind: str, seed: int) -> dict:
    return {"draws": draws(kind, seed)}


def repair_document(layout: str, seed: int) -> dict:
    img = build_crashed_image(scale=2, seed=seed, layout=layout)
    fix = repair_dataplane(img.plane).merge(repair_mds(img.mds))
    return {"repair": {
        "before": [(f.code, f.message) for f in fix.before.findings],
        "actions": [(a.code, a.message) for a in fix.actions],
        "passes": fix.passes,
        "after": [(f.code, f.message) for f in fix.after.findings],
        "converged": fix.converged,
    }}


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

#: Traced sweeps: case -> (runner, kwargs, tracer taking a capacity).  Smoke
#: sizes; every one has at least two cells, so ``jobs=2`` uses the pool.
SWEEPS = {
    "fig6a": ("fig6a", dict(
        scale=0.05, stream_counts=(8, 16), policies=("reservation", "ondemand"),
    ), Tracer),
    "fig8": ("fig8", dict(scale=0.04, dir_sizes=(200,)), Tracer),
    "fig_listio": ("fig_listio", dict(scale=0.05), Tracer),
    "service-sampled": ("service", dict(
        streams=2000, rates=("small", "medium"), duration="short",
    ), lambda capacity: SamplingTracer(every=50, capacity=capacity)),
    "fig7": ("fig7", dict(scale=0.05, ndisks=4), Tracer),
    "fig10": ("fig10", dict(scale=0.1), Tracer),
}
RINGS = {"roomy": ROOMY, "evicting": TIGHT}

#: Service observation variants; all but ``plain`` carry telemetry + SLOs.
VARIANTS = {
    "telemetry+slo": {},
    "scrub": {"scrub": True, "scrub_corrupt": 3},
    "sample": {"sample": "1/200"},
    "tracer": {"trace": True},
}

#: Traced runs at the pinned configuration: case -> (runner, tracer).
BENCH_TRACED = {
    "fig6b-sampled": ("fig6b", lambda: SamplingTracer(every=3)),
    "table1-traced": ("table1", True),
}
#: Case -> the committed BENCH file (without ``.json``) its ``bench`` must be.
COMMITTED = {f"BENCH_{name}": f"BENCH_{name}" for name in PINNED_RUNNERS} | {
    case: f"BENCH_{runner}" for case, (runner, _) in BENCH_TRACED.items()
}

CASES = {}
for (name, (runner, kwargs, tracer)), (ring, capacity) in itertools.product(
    SWEEPS.items(), RINGS.items()
):
    CASES[f"{name}-{ring}"] = runner_case(
        runner, seed=0, trace=functools.partial(tracer, capacity), **kwargs
    )
CASES["fig8-ring65536"] = runner_case("fig8", seed=0, trace=True, **SWEEPS["fig8"][1])
for streams, seed in itertools.product((2_000, 50_000), (0, 1)):
    service = dict(streams=streams, rate="small", duration="short", seed=seed)
    for variant, extra in VARIANTS.items():
        CASES[f"service-{streams}-seed{seed}-{variant}"] = runner_case(
            "service", telemetry=True, slo=True, **service, **extra
        )
    CASES[f"service-{streams}-seed{seed}-plain"] = runner_case("service", **service)
for seed, kind in itertools.product((0, 1), ServiceWorkload.KINDS):
    CASES[f"draws-{kind}-seed{seed}"] = functools.partial(draws_document, kind, seed)
for seed, scale in ((0, 0.2), (1, 0.2), (0, 1.0), (1, 1.0)):
    CASES[f"faults-seed{seed}-scale{scale}"] = runner_case(
        "faults", seed=seed, scale=scale, trace=True
    )
for layout, seed in itertools.product(("embedded", "normal"), (0, 1)):
    CASES[f"repair-{layout}-seed{seed}"] = functools.partial(repair_document, layout, seed)
for name in PINNED_RUNNERS:
    CASES[f"BENCH_{name}"] = runner_case(name, scale=PINNED_SCALE, seed=PINNED_SEED)
for case, (runner, tracer) in BENCH_TRACED.items():
    CASES[case] = runner_case(runner, scale=PINNED_SCALE, seed=PINNED_SEED, trace=tracer)


# ---------------------------------------------------------------------------
# Record and check
# ---------------------------------------------------------------------------

def digest(section) -> str:
    return hashlib.sha256(json.dumps(section, sort_keys=True).encode()).hexdigest()[:16]


def bench_file(case: str) -> Path | None:
    """The committed file that records ``case``'s ``bench`` section."""
    return ROOT / f"{COMMITTED[case]}.json" if case in COMMITTED else None


def recorded_table() -> dict[str, dict[str, str]]:
    from tests.golden_recorded import RECORDED

    return RECORDED


def document(case: str) -> dict:
    """``CASES[case]()``, computed once per process and ``REPRO_JOBS``."""
    return _document(case, os.environ.get("REPRO_JOBS"))


@functools.cache
def _document(case: str, jobs: str | None) -> dict:
    return CASES[case]()


def diff(case: str, doc: dict, recorded: dict | None = None) -> list[str]:
    """One line per section of ``case`` whose computed value is not the
    recorded one (or that only one side has); empty when nothing moved."""
    want = (recorded if recorded is not None else recorded_table()).get(case, {})
    got = table({case: doc})[case]
    lines = [
        f"{case}: {name}: recorded {want.get(name)}, computed {got.get(name)}"
        for name in sorted({*want, *got}) if want.get(name) != got.get(name)
    ]
    path = bench_file(case)
    if path is not None:
        committed = path.read_text(encoding="utf-8") if path.is_file() else ""
        computed = dumps(doc["bench"])
        if computed != committed:
            lines.append(f"{case}: bench: differs from {path.name}")
            lines += ["    " + line for line in itertools.islice(difflib.unified_diff(
                committed.splitlines(), computed.splitlines(),
                path.name, "computed", lineterm="",
            ), 24)]
    return lines


def table(documents: dict[str, dict]) -> dict[str, dict[str, str]]:
    """The recorded table for ``documents``: every section but the
    ``bench`` that a committed file records."""
    return {
        case: {
            name: digest(section) for name, section in doc.items()
            if not (name == "bench" and bench_file(case) is not None)
        }
        for case, doc in documents.items()
    }


def record(recorded: dict[str, dict[str, str]]) -> None:
    out = [
        '"""Recorded section digests of every case in ``tests/golden.py``.',
        "",
        "Written by ``PYTHONPATH=src python -m tests.golden``; never edited by hand.",
        '"""',
        "",
        "RECORDED = {",
    ]
    for case, sections in recorded.items():
        out.append(f"    {case!r}: {{")
        out += [f"        {name!r}: {value!r}," for name, value in sections.items()]
        out.append("    },")
    out.append("}")
    TABLE.write_text("\n".join(out) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    """Exit status 0, or 1 when a case moved (``--check`` or not)."""
    documents = {case: fn() for case, fn in CASES.items()}
    if "--check" in argv:
        recorded = recorded_table()
    else:
        recorded = table(documents)
        record(recorded)
        print(f"recorded {len(documents)} cases in {TABLE.name}")
    bad = 0
    for case, doc in documents.items():
        lines = diff(case, doc, recorded)
        if lines:
            bad += 1
            print("\n".join(lines))
    for case in sorted(set(recorded) - set(documents)):
        bad += 1
        print(f"{case}: recorded, but no such case")
    print(f"{len(documents) - bad} of {len(documents)} cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
