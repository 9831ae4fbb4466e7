"""Fig. 7 + Table I: the IOR2 / BTIO macro-benchmarks, and the extent counts
and MDS CPU of their non-collective runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import FSConfig
from repro.core.run import RunnerCommand, RunResult, register
from repro.core.sweep import CellResult, _Cell, _Context, _Run, _scaled
from repro.fs.profiles import redbud_vanilla_profile, with_alloc_policy
from repro.obs.trace import NullTracer, Tracer
from repro.sim.metrics import MetricsSnapshot, ThroughputResult
from repro.sim.report import Table, format_pct
from repro.units import KiB, MiB
from repro.workloads.btio import BTIOBenchmark
from repro.workloads.ior import IORBenchmark


@dataclass
class MacroRun:
    app: str
    policy: str
    collective: bool
    throughput_mib_s: float
    extents: int
    mds_cpu_pct: float


@dataclass
class Fig7Result:
    runs: list[MacroRun] = field(default_factory=list)

    def get(self, app: str, policy: str, collective: bool) -> MacroRun:
        for r in self.runs:
            if r.app == app and r.policy == policy and r.collective == collective:
                return r
        raise KeyError((app, policy, collective))


def _fig7_cell(spec, tracer=None) -> CellResult:
    """One (collective, policy, app) macro-benchmark run of Fig. 7."""
    scale, seed, ndisks, collective, policy, app = spec
    del seed  # the macro benchmarks are deterministic; kept in the spec shape
    cell = _Cell(tracer)
    tag = f"{policy}:{'coll' if collective else 'indep'}"
    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
    plane = cell.plane(cfg)
    snap = cell.metrics.snapshot()
    if app == "IOR":
        ior_bytes = _scaled(256 * MiB, scale, floor=64 * MiB)
        ior = IORBenchmark(
            nprocs=64,
            file_bytes=ior_bytes - ior_bytes % 64,
            request_bytes=64 * KiB,
            collective=collective,
        )
        f = ior.create_file(plane)
        w = cell.phase(f"write:IOR:{tag}", ior.write_phase(plane, f))
        plane.close_file(f)
        r = cell.phase(f"read:IOR:{tag}", ior.read_phase(plane, f))
        cell.capture(f"IOR:{tag}", plane, region_bytes=ior.file_bytes // ior.nprocs)
    else:
        # BTIO's strided-row pattern changes regime if rows shrink under the
        # drive's skip-merge range, so the per-proc step never scales below
        # 256 KiB (two sub-runs).
        bt_step = _scaled(512 * KiB, scale, floor=256 * KiB)
        bt = BTIOBenchmark(
            nprocs=64,
            step_bytes_per_proc=bt_step,
            steps=4,
            collective=collective,
        )
        f = bt.create_file(plane)
        w = cell.phase(f"write:BTIO:{tag}", bt.write_phase(plane, f))
        plane.close_file(f)
        r = cell.phase(f"read:BTIO:{tag}", bt.read_phase(plane, f))
        cell.capture(f"BTIO:{tag}", plane)
    return cell.result(_macro_run(app, policy, collective, cfg, cell, snap, f, w, r))


@register("fig7")
def macro_benchmarks(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    policies: tuple[str, ...] = ("reservation", "ondemand"),
    collectives: tuple[bool, ...] = (False, True),
    ndisks: int = 8,
    jobs: int | None = None,
) -> RunResult:
    """Fig. 7: IOR2 and BTIO under reservation vs on-demand, with and
    without collective I/O (paper: 16 nodes × 4 cores, 8 disks).

    ``jobs`` changes only how the cells are scheduled, never the result,
    so it does not participate in the fingerprint.
    """
    run = _Run(
        "fig7", trace, scale=scale, seed=seed, policies=policies,
        collectives=collectives, ndisks=ndisks,
    )
    runs = _macro_sweep(run, scale, seed, ndisks, collectives, policies, jobs)
    return run.result(Fig7Result(runs))


def _macro_sweep(
    run: _Run, scale, seed, ndisks, collectives, policies, jobs
) -> list[MacroRun]:
    """Every (collective, policy, app) cell, merged into ``run``."""
    specs = [
        (scale, seed, ndisks, collective, policy, app)
        for collective in collectives
        for policy in policies
        for app in ("IOR", "BTIO")
    ]
    return [cell.payload for cell in run.cells(specs, _fig7_cell, jobs)]


def _macro_run(
    app: str,
    policy: str,
    collective: bool,
    cfg: FSConfig,
    run: _Context,
    snap: MetricsSnapshot,
    f,
    w: ThroughputResult,
    r: ThroughputResult,
) -> MacroRun:
    elapsed = w.elapsed + r.elapsed
    total = (w.bytes_moved + r.bytes_moved) / elapsed / MiB if elapsed > 0 else 0.0
    # Table I: MDS CPU = extent handling (merging/indexing) over the run.
    # The metrics bag spans all sub-runs; diff against the sub-run snapshot.
    ops = run.metrics.since(snap).count("fs.writes")
    cpu_s = f.extent_count * cfg.mds_cpu_s_per_extent + ops * 1e-6
    cpu_pct = 100.0 * cpu_s / elapsed if elapsed > 0 else 0.0
    return MacroRun(
        app=app,
        policy=policy,
        collective=collective,
        throughput_mib_s=total,
        extents=f.extent_count,
        mds_cpu_pct=cpu_pct,
    )


@dataclass
class Table1Result:
    """Segment counts and MDS CPU utilization, non-collective runs."""

    rows: list[MacroRun] = field(default_factory=list)

    def get(self, app: str, policy: str) -> MacroRun:
        for r in self.rows:
            if r.app == app and r.policy == policy:
                return r
        raise KeyError((app, policy))


@register("table1")
def table1_segments(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    policies: tuple[str, ...] = ("vanilla", "reservation", "ondemand"),
    ndisks: int = 8,
    jobs: int | None = None,
) -> RunResult:
    """Table I: extents and MDS CPU for Vanilla/Reservation/On-demand on
    the non-collective IOR and BTIO runs."""
    run = _Run(
        "table1", trace, scale=scale, seed=seed, policies=policies, ndisks=ndisks
    )
    rows = _macro_sweep(run, scale, seed, ndisks, (False,), policies, jobs)
    return run.result(Table1Result(rows))


def print_fig7(run_result, args) -> int:
    result = run_result.payload
    table = Table(
        "Fig 7 — macro-benchmark throughput (MiB/s)",
        ["app", "mode", "reservation", "ondemand", "gain"],
    )
    for app in ("IOR", "BTIO"):
        for collective in (False, True):
            res = result.get(app, "reservation", collective)
            ond = result.get(app, "ondemand", collective)
            table.add_row(
                [
                    app,
                    "collective" if collective else "non-collective",
                    res.throughput_mib_s,
                    ond.throughput_mib_s,
                    format_pct(ond.throughput_mib_s / res.throughput_mib_s - 1),
                ]
            )
    table.print()
    return 0


def print_table1(run_result, args) -> int:
    result = run_result.payload
    table = Table(
        "Table I — extents and MDS CPU (non-collective)",
        ["mode", "app", "seg counts", "CPU"],
    )
    for policy in ("vanilla", "reservation", "ondemand"):
        for app in ("IOR", "BTIO"):
            row = result.get(app, policy)
            table.add_row([policy, app, row.extents, f"{row.mds_cpu_pct:.1f}%"])
    table.print()
    return 0


COMMANDS = (
    RunnerCommand("fig7", "Fig 7: IOR2/BTIO macro benchmarks", print_fig7),
    RunnerCommand("table1", "Table I: extents and MDS CPU", print_table1),
)
