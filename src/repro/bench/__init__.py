"""Benchmark baseline harness: pinned-seed runs rendered as BENCH JSON.

``repro.bench.baseline`` turns the registered paper-figure runners into a
longitudinal record: :func:`render` turns one run at a pinned scale/seed
into a schema-versioned, canonically-serialized ``BENCH_<name>.json``
document (per-phase throughput, latency percentiles, and the
:mod:`repro.obs.layout` fragmentation metrics).  The same code at the same
seed writes the same bytes, so the committed files are compared byte for
byte.  See ``python -m repro bench run`` and ``docs/LAYOUT.md``.
"""

from repro.bench.baseline import (
    BENCH_SCHEMA_VERSION,
    PINNED_SCALE,
    PINNED_SEED,
    PINNED_RUNNERS,
    baseline_filename,
    dumps,
    render,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "PINNED_RUNNERS",
    "PINNED_SCALE",
    "PINNED_SEED",
    "baseline_filename",
    "dumps",
    "render",
]
