"""Registered experiment runners — one module per experiment family of §V.

Each runner follows the unified calling convention of :mod:`repro.core.run`
— keyword-only ``scale``, ``seed`` and ``trace`` — and returns a
:class:`~repro.core.run.RunResult`.  A family's module holds its payload
dataclasses, the cell function its sweep maps (:mod:`repro.core.sweep`),
the registered runner, the table printer and the
:class:`~repro.core.run.RunnerCommand` row of its CLI subcommand; importing
this package imports every family, which is what fills the registry.
"""

from repro.core.runners import (
    claims, faults, fig6, fig8, fig9, fig10, fsck, listio, macro, service,
)
from repro.core.runners.claims import (
    CLAIMS,
    Claim,
    ClaimsResult,
    FppGap,
    PreallocWaste,
    Verdict,
    file_per_process_gap,
    paper_claims,
    prealloc_waste,
)
from repro.core.runners.faults import FaultCampaignResult, fault_campaign
from repro.core.runners.fig6 import (
    Fig6aResult,
    Fig6bResult,
    micro_request_size,
    micro_stream_count,
)
from repro.core.runners.fig8 import Fig8Result, MetaRun, metarates_suite
from repro.core.runners.fig9 import AgingResult, AgingRun, aging_impact
from repro.core.runners.fig10 import Fig10Result, postmark_apps
from repro.core.runners.fsck import FigFsckResult, FsckRun, fsck_benchmarks
from repro.core.runners.listio import (
    LISTIO_HEADER_S,
    ListIOResult,
    ListIORun,
    listio_benchmarks,
)
from repro.core.runners.macro import (
    Fig7Result,
    MacroRun,
    Table1Result,
    macro_benchmarks,
    table1_segments,
)
from repro.core.runners.service import (
    TELEMETRY_WINDOWS,
    ScrubSummary,
    ServiceCell,
    ServiceReport,
    StationReport,
    service_mode,
)

#: Every runner-backed subcommand, in ``--help`` order.  ``repro.cli`` wires
#: these in a loop; ``--jobs`` attaches itself by inspecting the registered
#: runner's signature.
RUNNER_COMMANDS = (
    *fig6.COMMANDS, *macro.COMMANDS, *fig8.COMMANDS, *fig9.COMMANDS,
    *fig10.COMMANDS, *claims.COMMANDS, *listio.COMMANDS,
    *faults.COMMANDS, *fsck.COMMANDS, *service.COMMANDS,
)

__all__ = [
    "AgingResult", "AgingRun", "CLAIMS", "Claim", "ClaimsResult",
    "FaultCampaignResult", "Fig10Result", "Fig6aResult", "Fig6bResult",
    "Fig7Result", "Fig8Result", "FigFsckResult", "FppGap", "FsckRun",
    "LISTIO_HEADER_S", "ListIOResult", "ListIORun", "MacroRun", "MetaRun",
    "PreallocWaste", "RUNNER_COMMANDS", "ScrubSummary", "ServiceCell",
    "ServiceReport", "StationReport", "TELEMETRY_WINDOWS", "Table1Result",
    "Verdict", "aging_impact", "fault_campaign", "file_per_process_gap",
    "fsck_benchmarks", "listio_benchmarks", "macro_benchmarks",
    "metarates_suite", "micro_request_size", "micro_stream_count",
    "paper_claims", "postmark_apps", "prealloc_waste", "service_mode",
    "table1_segments",
]
