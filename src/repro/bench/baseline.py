"""Pinned-configuration benchmark baselines.

A *baseline document* is the JSON value produced by :func:`render` from a
:class:`~repro.core.run.RunResult`: schema-versioned, canonically ordered
and rounded so the same code at the same ``(runner, scale, seed)`` always
serializes byte-identically (the simulator is deterministic).  Committed
baselines live at the repo root as ``BENCH_<runner>.json``; the pinned
configuration every baseline uses is :data:`PINNED_SCALE` /
:data:`PINNED_SEED` over :data:`PINNED_RUNNERS`.

The gate is byte identity: the golden registry's ``BENCH_<runner>`` cases
render every pinned run and compare it with the committed file.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.run import RunResult

BENCH_SCHEMA_VERSION = 1

#: Pinned configuration for committed baselines (small enough for CI smoke).
PINNED_SCALE = 0.05
PINNED_SEED = 0
PINNED_RUNNERS = (
    "fig6a", "fig6b", "fig7", "table1", "fig8", "fig_listio", "fig_fsck",
)


def baseline_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def _round(value: float) -> float:
    """6-significant-digit rounding: stable repr, diff-friendly files."""
    return float(f"{value:.6g}")


def render(result: RunResult, *, scale: float, seed: int) -> dict[str, Any]:
    """Benchmark document for one run: phases, histograms, layout metrics."""
    phases: dict[str, Any] = {}
    for label, ph in result.phases.items():
        phases[label] = {
            "elapsed_s": _round(ph.elapsed),
            "mib_per_s": _round(ph.mib_per_s),
            "ops_per_s": _round(ph.ops_per_s),
            "bytes": ph.bytes_moved,
            "ops": ph.ops,
        }
    histograms: dict[str, Any] = {}
    for name in result.metrics.histogram_names():
        h = result.metrics.histogram(name)
        if h.count == 0:
            continue
        histograms[name] = {
            "count": h.count,
            "p50": _round(h.percentile(50)),
            "p90": _round(h.percentile(90)),
            "p99": _round(h.percentile(99)),
        }
    layouts: dict[str, Any] = {}
    for tag, report in result.layouts.items():
        entry: dict[str, Any] = {
            "files": len(report.files),
            "extents": report.total_extents,
            "interleave_factor": _round(report.interleave_factor),
            "fragmentation_degree": _round(report.fragmentation_degree),
            "contiguity": _round(report.contiguity),
            "seek_cost_s": _round(report.seek_cost_s),
        }
        if report.free_space is not None:
            entry["free_runs"] = report.free_space.runs
            entry["largest_free_run"] = report.free_space.largest_run
        if report.directories is not None:
            entry["dir_mean_degree"] = _round(report.directories.mean_degree)
            entry["dir_max_degree"] = _round(report.directories.max_degree)
            entry["dirs_over_threshold"] = report.directories.over_threshold
        layouts[tag] = entry
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "runner": result.name,
        "fingerprint": result.fingerprint,
        "scale": scale,
        "seed": seed,
        "phases": phases,
        "histograms": histograms,
        "layouts": layouts,
    }


def dumps(doc: dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline-terminated.

    Byte-identical across runs of the same code at the same seed — the
    property the "baseline unchanged" gate relies on.
    """
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
