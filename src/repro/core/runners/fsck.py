"""fig_fsck: crashed-image check/repair sweep (parallel fsck, docs/FSCK.md)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.run import RunnerCommand, RunResult, register
from repro.core.sweep import CellResult, _Cell, _Run
from repro.fault import build_crashed_image
from repro.fs.dataplane import DataPlane
from repro.fs.verify import (
    _pag_rows,
    _scan_dataplane,
    check_dataplane,
    check_mds,
    repair_dataplane,
    repair_mds,
)
from repro.meta.mds import MetadataServer
from repro.obs.trace import NullTracer, Tracer
from repro.sim.metrics import ThroughputResult
from repro.sim.report import Table

# Modeled costs of the parallel checker (docs/FSCK.md).  ``fig_fsck``
# reports *simulated* check/repair times, so the rendered document is
# byte-identical at any ``--jobs`` (real wall clock is the ledger's
# ``fsck_image`` row).  A shard's modeled check time is SHARD_SETUP_S plus
# CHECK_EXTENT_S (or CHECK_INODE_S) per item it scans; shards go to the
# workers longest-processing-time first and the modeled parallel elapsed
# is the worker makespan.  Repair adds REPAIR_ACTION_S per applied action.
SHARD_SETUP_S = 2.0e-4
CHECK_EXTENT_S = 4.0e-6
CHECK_INODE_S = 6.0e-6
REPAIR_ACTION_S = 5.0e-5
#: Directories per metadata shard in the modeled worker pool; the checker
#: itself walks every directory at once.
META_SHARD_DIRS = 64


def shard_work(
    plane: DataPlane, mds: MetadataServer | None = None
) -> tuple[list[int], list[int]]:
    """Per-shard work volumes: extents seen by each data-plane shard (one
    per busy PAG) and rows scanned by each metadata shard.  Priced by the
    per-item costs above, the modeled parallel check time is the
    longest-processing-time-first makespan over these volumes."""
    g = _pag_rows(_scan_dataplane(plane), plane)[1]
    data = np.unique(g, return_counts=True)[1].tolist()
    meta: list[int] = []
    if mds is not None:
        # one row per entry plus one per-directory structural pass
        rows = [len(d.entries) + 1 for d in mds.layout._dirs.values()]
        meta = [
            sum(rows[i:i + META_SHARD_DIRS])
            for i in range(0, len(rows), META_SHARD_DIRS)
        ]
    return data, meta


def _lpt_makespan(costs: list[float], workers: int) -> float:
    """Makespan of longest-processing-time-first assignment — the modeled
    parallel check time over the shard pool (greedy LPT is within 4/3 of
    optimal, close enough for a trend benchmark)."""
    heads = [0.0] * max(1, workers)
    for cost in sorted(costs, reverse=True):
        i = min(range(len(heads)), key=lambda k: heads[k])
        heads[i] += cost
    return max(heads)


@dataclass
class FsckRun:
    """One (layout, image scale) crashed image through check + repair.

    ``check_s`` maps a worker count to the *modeled* parallel check time
    (shard costs from the module's constants scheduled LPT-first)
    so the rendered document is byte-identical at any ``--jobs``; real
    wall clock is measured by the host-time ledger (docs/PERF.md) instead.
    """

    layout: str
    image_scale: float
    extents: int
    inodes: int
    data_shards: int
    meta_shards: int
    findings: int
    actions: int
    passes: int
    converged: bool
    injected: list[str]
    check_s: dict[int, float]
    repair_s: float

    def speedup(self, jobs: int) -> float:
        """Modeled check-time gain of ``jobs`` workers over one."""
        return self.check_s[1] / self.check_s[jobs] if self.check_s[jobs] else 0.0


@dataclass
class FigFsckResult:
    """Payload of the ``fig_fsck`` runner."""

    jobs_points: list[int]
    runs: list[FsckRun] = field(default_factory=list)

    def get(self, layout: str, image_scale: float) -> FsckRun:
        for r in self.runs:
            if r.layout == layout and r.image_scale == image_scale:
                return r
        raise KeyError((layout, image_scale))

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.runs)


def _fig_fsck_cell(spec, tracer=None) -> CellResult:
    """One crashed image: measure shard work, check, repair to convergence."""
    image_scale, seed, layout, jobs_points, tag = spec
    cell = _Cell(tracer)
    img = build_crashed_image(scale=image_scale, seed=seed, layout=layout)
    data_work, meta_work = shard_work(img.plane, img.mds)
    report = check_dataplane(img.plane, strict_accounting=False).merge(
        check_mds(img.mds)
    )
    costs = [SHARD_SETUP_S + n * CHECK_EXTENT_S for n in data_work]
    costs += [SHARD_SETUP_S + n * CHECK_INODE_S for n in meta_work]
    check_s = {j: _lpt_makespan(costs, j) for j in jobs_points}
    rep = repair_dataplane(img.plane).merge(repair_mds(img.mds))
    repair_s = rep.passes * SHARD_SETUP_S + len(rep.actions) * REPAIR_ACTION_S
    ops = report.checked_extents + report.checked_inodes
    for j in jobs_points:
        cell.phase(
            f"check:{tag}:j{j}",
            ThroughputResult(bytes_moved=0, elapsed=check_s[j], ops=ops),
        )
    cell.phase(
        f"repair:{tag}",
        ThroughputResult(bytes_moved=0, elapsed=repair_s, ops=len(rep.actions)),
    )
    cell.capture(f"fsck:{tag}", img.plane)
    return cell.result(FsckRun(
        layout=layout,
        image_scale=image_scale,
        extents=img.extents,
        inodes=img.inodes,
        data_shards=len(data_work),
        meta_shards=len(meta_work),
        findings=len(report.findings),
        actions=len(rep.actions),
        passes=rep.passes,
        converged=rep.converged,
        injected=list(img.injected),
        check_s=check_s,
        repair_s=repair_s,
    ))


@register("fig_fsck")
def fsck_benchmarks(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    layouts: tuple[str, ...] = ("embedded", "normal"),
    multipliers: tuple[float, ...] = (1, 2, 4),
    jobs_points: tuple[int, ...] = (1, 2, 4, 8),
    jobs: int | None = None,
) -> RunResult:
    """Crashed-image check/repair sweep for the parallel fsck (docs/FSCK.md).

    Each cell builds a Corruptor-damaged image (``fault.build_crashed_image``)
    at ``scale`` times one of ``multipliers``, checks it with the sharded
    checker, repairs it to convergence and reports modeled check times for
    every worker count in ``jobs_points``.  The timings are simulated (shard
    work volumes priced by this module's constants), so the
    document is byte-identical at any ``jobs`` — the ordered-merge contract
    the bench gate relies on.
    """
    run = _Run(
        "fig_fsck", trace, scale=scale, seed=seed, layouts=tuple(layouts),
        multipliers=tuple(multipliers), jobs_points=tuple(jobs_points),
    )
    specs = [
        (scale * m, seed, layout, tuple(jobs_points), f"{layout}:x{m:g}")
        for layout in layouts
        for m in multipliers
    ]
    payload = FigFsckResult(jobs_points=list(jobs_points))
    for cell in run.cells(specs, _fig_fsck_cell, jobs):
        payload.runs.append(cell.payload)
    return run.result(payload)


def print_fig_fsck(run_result, args) -> int:
    result = run_result.payload
    jobs_points = list(result.jobs_points)
    table = Table(
        "Parallel fsck — modeled shard makespan vs worker count "
        "(simulated seconds)",
        ["layout", "img scale", "extents", "inodes", "shards", "findings"]
        + [f"check j{j}" for j in jobs_points]
        + [f"speedup j{jobs_points[-1]}", "repair", "converged"],
    )
    for run in result.runs:
        table.add_row(
            [
                run.layout,
                f"{run.image_scale:g}",
                run.extents,
                run.inodes,
                f"{run.data_shards}+{run.meta_shards}",
                run.findings,
                *[f"{run.check_s[j]:.4f}" for j in jobs_points],
                f"{run.speedup(jobs_points[-1]):.2f}x",
                f"{run.repair_s:.4f}",
                "yes" if run.converged else "NO",
            ]
        )
    table.print()
    print()
    print(
        "check times are deterministic modeled costs (per-shard setup + "
        "per-item check, LPT makespan over workers; docs/FSCK.md) — "
        "host wall clock is what benchmarks/ledger measures (docs/PERF.md)"
    )
    return 0 if result.converged else 1


def print_repair(label: str, repair) -> None:
    before, after = repair.before, repair.after
    print(f"{label}: {len(before.findings)} finding(s) before repair")
    for f in before.findings:
        print(f"  ! [{f.code}] {f.message}")
    for act in repair.actions:
        print(f"  ~ [{act.code}] {act.message}")
    state = "clean" if after.clean else f"{len(after.findings)} finding(s) LEFT"
    print(f"{label}: {state} after {repair.passes} repair pass(es)")
    for f in after.findings:
        print(f"  ! [{f.code}] {f.message}")


COMMANDS = (
    RunnerCommand(
        "fig_fsck",
        "parallel fsck: crashed-image check/repair sweep, modeled shard "
        "makespan vs worker count (docs/FSCK.md)",
        print_fig_fsck,
    ),
)
