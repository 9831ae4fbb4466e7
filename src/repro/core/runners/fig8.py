"""Fig. 8: Metarates — embedded vs normal directory."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import FSConfig
from repro.core.run import RunnerCommand, RunResult, register
from repro.core.sweep import CellResult, _Cell, _Run, _scaled
from repro.fs.profiles import lustre_profile, redbud_mif_profile, redbud_vanilla_profile
from repro.obs.trace import NullTracer, Tracer
from repro.sim.report import Table, format_pct
from repro.workloads.metarates import MetaratesWorkload


@dataclass
class MetaRun:
    profile: str
    workload: str
    ops_per_s: float
    disk_requests: int


@dataclass
class Fig8Result:
    runs: list[MetaRun] = field(default_factory=list)
    #: readdir-stat disk-request proportion embedded/normal per dir size.
    rdstat_proportion_by_size: dict[int, float] = field(default_factory=dict)

    def get(self, profile: str, workload: str) -> MetaRun:
        for r in self.runs:
            if r.profile == profile and r.workload == workload:
                return r
        raise KeyError((profile, workload))

    def proportion(self, workload: str, base: str = "redbud-orig", other: str = "redbud-mif") -> float:
        """Disk-access-count proportion (embedded / normal) per Fig. 8."""
        b = self.get(base, workload).disk_requests
        o = self.get(other, workload).disk_requests
        return o / b if b else float("inf")


def _fig8_profile_cell(spec, tracer=None) -> CellResult:
    """All four metarates workloads against one profile's MDS."""
    scale, cfg = spec
    cell = _Cell(tracer)
    files_per_dir = _scaled(5000, scale, floor=200)
    wl = MetaratesWorkload(nclients=10, files_per_dir=files_per_dir)
    mds = cell.mds(cfg)
    dirs = wl.setup_dirs(mds)
    runs: list[MetaRun] = []
    for name, fn in (
        ("create", wl.run_create),
        ("utime", wl.run_utime),
        ("readdir-stat", wl.run_readdir_stat),
        ("delete", wl.run_delete),
    ):
        if name == "delete":  # snapshot the populated namespace first
            cell.capture(cfg.name, mds)
        mds.drop_caches()
        snap = cell.metrics.snapshot()
        result = cell.phase(f"{name}:{cfg.name}", fn(mds, dirs))
        requests = cell.metrics.since(snap).count("disk.requests")
        runs.append(MetaRun(cfg.name, name, result.ops_per_s, requests))
    return cell.result(runs)


def _fig8_dirsize_cell(size, tracer=None) -> CellResult:
    """readdir-stat disk-request proportion for one directory size."""
    cell = _Cell(tracer)
    counts: dict[str, int] = {}
    for cfg in (redbud_vanilla_profile(), redbud_mif_profile()):
        mds = cell.mds(cfg)
        wl = MetaratesWorkload(nclients=2, files_per_dir=size)
        dirs = wl.setup_dirs(mds)
        wl.run_create(mds, dirs)
        mds.drop_caches()
        snap = cell.metrics.snapshot()
        wl.run_readdir_stat(mds, dirs)
        counts[cfg.name] = cell.metrics.since(snap).count("disk.requests")
    base = counts["redbud-orig"]
    return cell.result(counts["redbud-mif"] / base if base else float("inf"))


@register("fig8")
def metarates_suite(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    profiles: tuple[FSConfig, ...] | None = None,
    dir_sizes: tuple[int, ...] = (1000, 5000, 10000),
    jobs: int | None = None,
) -> RunResult:
    """Fig. 8: utime/create (a), delete (b) and readdir-stat (c) throughput
    and disk-access counts, plus the dir-size sweep for readdir-stat.

    ``jobs`` changes only how the cells are scheduled, never the result,
    so it does not participate in the fingerprint.
    """
    run = _Run(
        "fig8", trace, scale=scale, seed=seed,
        profiles=None if profiles is None else tuple(p.name for p in profiles),
        dir_sizes=dir_sizes,
    )
    if profiles is None:
        profiles = (redbud_vanilla_profile(), lustre_profile(), redbud_mif_profile())
    payload = Fig8Result()
    profile_specs = [(scale, cfg) for cfg in profiles]
    for cell in run.cells(profile_specs, _fig8_profile_cell, jobs):
        payload.runs.extend(cell.payload)
    # readdir-stat proportion vs directory size (§V.D.1's prefetch effect).
    # Absolute directory sizes on purpose: the effect *is* the size trend,
    # so rescaling it away would leave quantization noise.
    for size, cell in zip(
        dir_sizes, run.cells(dir_sizes, _fig8_dirsize_cell, jobs)
    ):
        payload.rdstat_proportion_by_size[size] = cell.payload
    return run.result(payload)


def print_fig8(run_result, args) -> int:
    result = run_result.payload
    table = Table(
        "Fig 8 — Metarates (ops/s; proportion = MDS disk requests mif/orig)",
        ["workload", "redbud-orig", "lustre", "redbud-mif", "gain", "proportion"],
    )
    for wl in ("create", "utime", "delete", "readdir-stat"):
        orig = result.get("redbud-orig", wl)
        mif = result.get("redbud-mif", wl)
        table.add_row(
            [
                wl,
                orig.ops_per_s,
                result.get("lustre", wl).ops_per_s,
                mif.ops_per_s,
                format_pct(mif.ops_per_s / orig.ops_per_s - 1),
                f"{result.proportion(wl):.2f}",
            ]
        )
    table.print()
    inset = Table(
        "Fig 8(c) inset — readdir-stat request proportion vs directory size",
        ["files/dir", "proportion"],
    )
    for size, prop in sorted(result.rdstat_proportion_by_size.items()):
        inset.add_row([size, prop])
    inset.print()
    return 0


COMMANDS = (
    RunnerCommand(
        "fig8", "Fig 8: Metarates metadata benchmark", print_fig8,
        default_scale=0.2,
    ),
)
