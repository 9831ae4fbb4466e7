"""Pinned-configuration benchmark baselines with regression comparison.

A *baseline document* is the JSON value produced by :func:`render` from a
:class:`~repro.core.run.RunResult`: schema-versioned, canonically ordered
and rounded so the same code at the same ``(runner, scale, seed)`` always
serializes byte-identically (the simulator is deterministic).  Committed
baselines live at the repo root as ``BENCH_<runner>.json``; the pinned
configuration every baseline uses is :data:`PINNED_SCALE` /
:data:`PINNED_SEED` over :data:`PINNED_RUNNERS`.

:func:`compare` flattens two documents into metric paths and applies
directional tolerances:

- ``phases/*/mib_per_s`` and ``ops_per_s`` — throughput, lower is a
  regression, default tolerance 10%;
- ``histograms/*latency*/p50|p90|p99`` — latency, higher is a regression,
  default tolerance 100% (log2 buckets quantize coarsely);
- ``layouts/*/extents|interleave_factor|seek_cost_s|fragmentation_degree``
  — layout quality, higher is a regression, default tolerance 25%;
- ``layouts/*/contiguity`` — lower is a regression, default tolerance 25%.

Counts, sizes and free-space statistics are recorded but not gated.
Schema-version or fingerprint drift and metrics missing from the current
run are always regressions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.core.run import RunResult, run

BENCH_SCHEMA_VERSION = 1

#: Pinned configuration for committed baselines (small enough for CI smoke).
PINNED_SCALE = 0.05
PINNED_SEED = 0
PINNED_RUNNERS = (
    "fig6a", "fig6b", "fig7", "table1", "fig8", "fig_listio", "fig_cache",
    "fig_fsck",
)


def baseline_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def _round(value: float) -> float:
    """6-significant-digit rounding: stable repr, diff-friendly files."""
    return float(f"{value:.6g}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

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


def collect(
    name: str,
    *,
    scale: float = PINNED_SCALE,
    seed: int = PINNED_SEED,
    jobs: int | None = None,
) -> dict[str, Any]:
    """Run ``name`` at the pinned configuration and render its document.

    ``jobs`` selects the worker count for runners that support parallel
    sweeps (see :mod:`repro.core.sweep`); it never changes the document.
    """
    kwargs: dict[str, Any] = {}
    if jobs is not None:
        kwargs["jobs"] = jobs
    return render(run(name, scale=scale, seed=seed, **kwargs), scale=scale, seed=seed)


def dumps(doc: dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline-terminated.

    Byte-identical across runs of the same code at the same seed — the
    property the "baseline unchanged" CI gate relies on.
    """
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regression:
    """One gated metric that moved past its tolerance in the bad direction."""

    path: str
    baseline: float | None
    current: float | None
    delta: float  # signed relative change, + = increased
    tolerance: float

    def describe(self) -> str:
        if self.baseline is None or self.current is None:
            return f"{self.path}: {self.baseline!r} -> {self.current!r}"
        return (
            f"{self.path}: {self.baseline:g} -> {self.current:g} "
            f"({self.delta:+.1%}, tolerance {self.tolerance:.0%})"
        )


#: leaf name -> (higher_is_better, default relative tolerance)
_GATES: dict[str, tuple[bool, float]] = {
    "mib_per_s": (True, 0.10),
    "ops_per_s": (True, 0.10),
    "p50": (False, 1.00),
    "p90": (False, 1.00),
    "p99": (False, 1.00),
    "extents": (False, 0.25),
    "interleave_factor": (False, 0.25),
    "fragmentation_degree": (False, 0.25),
    "seek_cost_s": (False, 0.25),
    "contiguity": (True, 0.25),
}


def _gate(path: str) -> tuple[bool, float] | None:
    section, _, rest = path.partition("/")
    leaf = path.rsplit("/", 1)[-1]
    if section == "phases" and leaf in ("mib_per_s", "ops_per_s"):
        return _GATES[leaf]
    if section == "histograms" and leaf in ("p50", "p90", "p99"):
        # Gate latency distributions only; size histograms have no
        # good/bad direction.
        return _GATES[leaf] if "latency" in rest else None
    if section == "layouts" and leaf in (
        "extents",
        "interleave_factor",
        "fragmentation_degree",
        "seek_cost_s",
        "contiguity",
    ):
        return _GATES[leaf]
    return None


def flatten(doc: Any, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a (sub)document as ``section/sub/leaf`` paths."""
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}/"))
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)):
        out[prefix[:-1]] = float(doc)
    return out


def compare(
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerances: dict[str, float] | None = None,
) -> list[Regression]:
    """Regressions of ``current`` against ``baseline`` (empty = gate passes).

    ``tolerances`` overrides the default relative tolerance per metric leaf
    name (e.g. ``{"mib_per_s": 0.02}``).
    """
    regressions: list[Regression] = []
    for key in ("schema_version", "runner", "fingerprint", "scale", "seed"):
        if baseline.get(key) != current.get(key):
            regressions.append(
                Regression(
                    path=key,
                    baseline=None,
                    current=None,
                    delta=0.0,
                    tolerance=0.0,
                )
            )
    base_flat = flatten(
        {k: baseline.get(k, {}) for k in ("phases", "histograms", "layouts")}
    )
    cur_flat = flatten(
        {k: current.get(k, {}) for k in ("phases", "histograms", "layouts")}
    )
    for path, base_value in sorted(base_flat.items()):
        gate = _gate(path)
        if gate is None:
            continue
        higher_better, tolerance = gate
        leaf = path.rsplit("/", 1)[-1]
        if tolerances and leaf in tolerances:
            tolerance = tolerances[leaf]
        if path not in cur_flat:
            regressions.append(
                Regression(
                    path=path,
                    baseline=base_value,
                    current=None,
                    delta=0.0,
                    tolerance=tolerance,
                )
            )
            continue
        cur_value = cur_flat[path]
        if base_value == cur_value:
            continue
        if base_value != 0.0:
            delta = (cur_value - base_value) / abs(base_value)
        else:
            delta = float("inf") if cur_value > 0 else float("-inf")
        worse = -delta if higher_better else delta
        if worse > tolerance:
            regressions.append(
                Regression(
                    path=path,
                    baseline=base_value,
                    current=cur_value,
                    delta=delta,
                    tolerance=tolerance,
                )
            )
    return regressions


def format_regressions(regressions: list[Regression]) -> str:
    if not regressions:
        return "no regressions"
    lines = [f"{len(regressions)} regression(s):"]
    for reg in regressions:
        lines.append(f"  ! {reg.describe()}")
    return "\n".join(lines)
