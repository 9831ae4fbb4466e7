"""Fig. 9: file system aging."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.run import RunnerCommand, RunResult, register
from repro.core.sweep import CellResult, _Cell, _Run, _scaled
from repro.fs.profiles import lustre_profile, redbud_mif_profile, redbud_vanilla_profile
from repro.obs.trace import NullTracer, Tracer
from repro.sim.report import Table
from repro.workloads.aging import age_metadata_fs
from repro.workloads.metarates import MetaratesWorkload


@dataclass
class AgingRun:
    profile: str
    utilization: float
    create_ops_s: float
    delete_ops_s: float


@dataclass
class AgingResult:
    runs: list[AgingRun] = field(default_factory=list)

    def get(self, profile: str, utilization: float) -> AgingRun:
        for r in self.runs:
            if r.profile == profile and abs(r.utilization - utilization) < 1e-9:
                return r
        raise KeyError((profile, utilization))


def _fig9_cell(spec, tracer=None) -> CellResult:
    """Create/delete throughput for one (profile, utilization) point."""
    scale, seed, cfg, util = spec
    cell = _Cell(tracer)
    files_per_dir = _scaled(1000, scale, floor=100)
    wl = MetaratesWorkload(nclients=10, files_per_dir=files_per_dir)
    mds = cell.mds(cfg)
    if util > 0.0:
        age_metadata_fs(mds, util, seed=seed)
    dirs = wl.setup_dirs(mds)
    mds.drop_caches()
    created = cell.phase(f"create:{cfg.name}:u{util}", wl.run_create(mds, dirs))
    cell.capture(f"{cfg.name}:u{util}", mds)
    deleted = cell.phase(f"delete:{cfg.name}:u{util}", wl.run_delete(mds, dirs))
    return cell.result(
        AgingRun(cfg.name, util, created.ops_per_s, deleted.ops_per_s)
    )


@register("fig9")
def aging_impact(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    utilizations: tuple[float, ...] = (0.0, 0.4, 0.8),
    jobs: int | None = None,
) -> RunResult:
    """Fig. 9: create/delete throughput after aging the MFS to each
    utilization (embedded creation drops hardest; deletion barely moves)."""
    run = _Run("fig9", trace, scale=scale, seed=seed, utilizations=utilizations)
    payload = AgingResult()
    specs = [
        (scale, seed, cfg, util)
        for cfg in (redbud_vanilla_profile(), lustre_profile(), redbud_mif_profile())
        for util in utilizations
    ]
    for cell in run.cells(specs, _fig9_cell, jobs):
        payload.runs.append(cell.payload)
    return run.result(payload)


def print_fig9(run_result, args) -> int:
    result = run_result.payload
    table = Table(
        "Fig 9 — aging impact (ops/s)",
        ["utilization", "system", "create/s", "delete/s"],
    )
    for run in result.runs:
        table.add_row(
            [f"{run.utilization:.0%}", run.profile, run.create_ops_s, run.delete_ops_s]
        )
    table.print()
    return 0


COMMANDS = (
    RunnerCommand(
        "fig9", "Fig 9: file system aging", print_fig9, default_scale=0.5,
        run_kwargs={"utilizations": (0.0, 0.4, 0.8)},
    ),
)
