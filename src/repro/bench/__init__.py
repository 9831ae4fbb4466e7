"""Benchmark baseline harness: pinned-seed runs rendered as BENCH JSON.

``repro.bench.baseline`` turns the registered paper-figure runners into a
longitudinal record: :func:`collect` runs one runner at a pinned
scale/seed and renders a schema-versioned, canonically-serialized
``BENCH_<name>.json`` document (per-phase throughput, latency percentiles,
and the :mod:`repro.obs.layout` fragmentation metrics).  The same code at
the same seed writes the same bytes, so CI gates on a plain diff against
the committed files.  See ``python -m repro bench run`` and
``docs/LAYOUT.md``.
"""

from repro.bench.baseline import (
    BENCH_SCHEMA_VERSION,
    PINNED_SCALE,
    PINNED_SEED,
    PINNED_RUNNERS,
    baseline_filename,
    collect,
    dumps,
    render,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "PINNED_RUNNERS",
    "PINNED_SCALE",
    "PINNED_SEED",
    "baseline_filename",
    "collect",
    "dumps",
    "render",
]
