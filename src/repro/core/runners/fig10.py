"""Fig. 10: PostMark and the kernel-tree applications."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.run import RunnerCommand, RunResult, register
from repro.core.sweep import CellResult, _Cell, _Run, _scaled
from repro.fs.profiles import lustre_profile, redbud_mif_profile
from repro.obs.trace import NullTracer, Tracer
from repro.sim.metrics import ThroughputResult
from repro.sim.report import Table
from repro.workloads.apps import AppResult, KernelTree, MakeApp, MakeCleanApp, TarApp
from repro.workloads.postmark import PostMarkConfig, PostMarkResult, PostMarkWorkload


@dataclass
class Fig10Result:
    """Execution times per profile; proportions are relative to Lustre."""

    postmark: dict[str, PostMarkResult] = field(default_factory=dict)
    apps: dict[str, dict[str, AppResult]] = field(default_factory=dict)

    def time_proportion(self, app: str, profile: str = "redbud-mif", base: str = "lustre") -> float:
        """Execution-time proportion (profile / base); < 1 means faster."""
        if app == "postmark":
            return self.postmark[profile].elapsed_s / self.postmark[base].elapsed_s
        return self.apps[profile][app].elapsed_s / self.apps[base][app].elapsed_s


def _fig10_cell(spec, tracer=None) -> CellResult:
    """PostMark plus the three kernel-tree applications for one profile."""
    scale, seed, cfg = spec
    cell = _Cell(tracer)
    pm_cfg = PostMarkConfig(
        files=_scaled(2000, scale, floor=200) // 10 * 10,
        transactions=_scaled(10000, scale, floor=500),
        nclients=10,
        seed=seed,
    )
    tree = KernelTree(
        files_per_dir=_scaled(100, scale, floor=20), dirs=10, seed=seed
    )
    fs = cell.filesystem(cfg)
    pm = PostMarkWorkload(pm_cfg).run(fs)
    cell.phase(
        f"postmark:{cfg.name}",
        ThroughputResult(
            bytes_moved=0,
            elapsed=pm.elapsed_s,
            ops=pm.creates + pm.deletes + pm.reads + pm.appends,
        ),
    )

    fs = cell.filesystem(cfg)
    tree.populate(fs, "/linux")
    fs.mds.drop_caches()
    apps: dict[str, AppResult] = {}
    for label, app in (
        ("tar", TarApp(tree)),
        ("make", MakeApp(tree)),
        ("make-clean", MakeCleanApp(tree)),
    ):
        result = app.run(fs, "/linux")
        apps[label] = result
        cell.phase(
            f"{label}:{cfg.name}",
            ThroughputResult(
                bytes_moved=0, elapsed=result.elapsed_s, ops=result.ops
            ),
        )
    cell.capture(f"apps:{cfg.name}:data", fs.data)
    cell.capture(f"apps:{cfg.name}:meta", fs.mds)
    return cell.result((cfg.name, pm, apps))


@register("fig10")
def postmark_apps(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    jobs: int | None = None,
) -> RunResult:
    """Fig. 10: PostMark + tar/make/make-clean execution-time proportions
    (paper scale: 100K files / 500K transactions; kernel v2.6.30 tree).

    Each profile is an independent sweep cell, so ``jobs`` fans the two
    profiles out over workers without changing the document.
    """
    run = _Run("fig10", trace, scale=scale, seed=seed)
    payload = Fig10Result()
    specs = [
        (scale, seed, cfg) for cfg in (lustre_profile(), redbud_mif_profile())
    ]
    for cell in run.cells(specs, _fig10_cell, jobs):
        name, pm, apps = cell.payload
        payload.postmark[name] = pm
        payload.apps[name] = apps
    return run.result(payload)


def print_fig10(run_result, args) -> int:
    result = run_result.payload
    table = Table(
        "Fig 10 — execution time vs Lustre",
        ["program", "lustre (s)", "redbud-mif (s)", "proportion"],
    )
    table.add_row(
        [
            "postmark",
            result.postmark["lustre"].elapsed_s,
            result.postmark["redbud-mif"].elapsed_s,
            f"{result.time_proportion('postmark'):.3f}",
        ]
    )
    for app in ("tar", "make", "make-clean"):
        table.add_row(
            [
                app,
                result.apps["lustre"][app].elapsed_s,
                result.apps["redbud-mif"][app].elapsed_s,
                f"{result.time_proportion(app):.3f}",
            ]
        )
    table.print()
    return 0


COMMANDS = (
    RunnerCommand(
        "fig10", "Fig 10: PostMark and applications", print_fig10,
        default_scale=0.5,
    ),
)
