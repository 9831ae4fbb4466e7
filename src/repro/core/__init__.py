"""High-level API: the unified ``run()`` entry point, convenience helpers
and the per-figure payload dataclasses.

Invoke experiments as ``run(name, scale=..., jobs=..., config=...,
seed=...)``; the registered runner functions and their payload types live
in :mod:`repro.core.runners`, one module per experiment family.
"""

from repro.core.api import (
    PROFILES,
    ComparisonReport,
    PolicyComparison,
    build_filesystem,
    compare_policies,
    fragmentation_report,
)
from repro.core.run import RunResult, fingerprint, run, runner_names
from repro.core.runners import (
    AgingResult,
    Fig6aResult,
    Fig6bResult,
    Fig7Result,
    Fig8Result,
    Fig10Result,
    FppGap,
    Table1Result,
    file_per_process_gap,
    interference_claim,
    prealloc_waste,
)

__all__ = [
    "AgingResult",
    "ComparisonReport",
    "Fig6aResult",
    "Fig6bResult",
    "Fig7Result",
    "Fig8Result",
    "Fig10Result",
    "FppGap",
    "PROFILES",
    "PolicyComparison",
    "RunResult",
    "Table1Result",
    "build_filesystem",
    "compare_policies",
    "file_per_process_gap",
    "fingerprint",
    "fragmentation_report",
    "interference_claim",
    "prealloc_waste",
    "run",
    "runner_names",
]
