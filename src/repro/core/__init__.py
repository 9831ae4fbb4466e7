"""High-level API: the unified ``run()`` entry point and the per-figure
payload dataclasses.

Invoke experiments as ``run(name, scale=..., jobs=..., config=...,
seed=...)``; the registered runner functions and their payload types live
in :mod:`repro.core.runners`, one module per experiment family.  To build
a file system, call ``RedbudFileSystem(<profile>())`` with a profile from
:mod:`repro.fs.profiles`; to compare allocation policies, ``run("fig6a")``.
"""

# repro.fs first: the runners import repro.core.sweep, which imports
# repro.fs, whose fs.verify imports repro.core.sweep back; loading repro.fs
# here completes that cycle before core.sweep is half-initialised.
import repro.fs  # noqa: F401
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
    prealloc_waste,
)

__all__ = [
    "AgingResult",
    "Fig6aResult",
    "Fig6bResult",
    "Fig7Result",
    "Fig8Result",
    "Fig10Result",
    "FppGap",
    "RunResult",
    "Table1Result",
    "file_per_process_gap",
    "fingerprint",
    "prealloc_waste",
    "run",
    "runner_names",
]
