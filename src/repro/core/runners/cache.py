"""fig_cache: cache-pressure sweep — legacy LRU vs the adaptive tiered cache."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.run import RunnerCommand, RunResult, register
from repro.core.sweep import CellResult, _Cell, _Run, _scaled
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.errors import ConfigError
from repro.fs.profiles import redbud_mif_profile
from repro.obs.trace import NullTracer, Tracer
from repro.sim.report import Table
from repro.workloads.cachepressure import (
    CachePressureWorkload,
    InterleavedStreamWorkload,
)


#: Cache capacity (blocks) for the pressure scenario: small enough that
#: the scan burst (3 cold dirs x ~100 content blocks) overflows it while
#: the hot set (~150 blocks) fits the protected tier — the regime where
#: scan resistance, not raw capacity, decides the hit rate.
CACHE_PRESSURE_CAPACITY = 256


@dataclass
class CacheRun:
    """One (scenario, profile) cell of the cache-pressure sweep."""

    scenario: str
    profile: str
    elapsed_s: float
    ops: int
    hits: int
    misses: int
    t1_hits: int
    t2_hits: int
    prefetch_issued: int
    prefetch_used: int
    disk_requests: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        return self.prefetch_used / self.prefetch_issued if self.prefetch_issued else 0.0


@dataclass
class FigCacheResult:
    """Legacy vs adaptive cache profile per scenario (docs/CACHE.md)."""

    runs: list[CacheRun] = field(default_factory=list)

    def get(self, scenario: str, profile: str) -> CacheRun:
        for r in self.runs:
            if r.scenario == scenario and r.profile == profile:
                return r
        raise KeyError((scenario, profile))

    def speedup(self, scenario: str) -> float:
        """Simulated-time gain of the adaptive profile (legacy / adaptive)."""
        legacy = self.get(scenario, "legacy").elapsed_s
        adaptive = self.get(scenario, "adaptive").elapsed_s
        return legacy / adaptive if adaptive > 0 else float("inf")

    def hit_rate_gain(self, scenario: str) -> float:
        """Hit-rate improvement in percentage points (adaptive - legacy)."""
        return 100.0 * (
            self.get(scenario, "adaptive").hit_rate
            - self.get(scenario, "legacy").hit_rate
        )


def _cache_run(cell: _Cell, scenario: str, profile: str, snap, result) -> CacheRun:
    delta = cell.metrics.since(snap)
    return CacheRun(
        scenario=scenario,
        profile=profile,
        elapsed_s=result.elapsed,
        ops=result.ops,
        hits=delta.count("cache.hits"),
        misses=delta.count("cache.misses"),
        t1_hits=delta.count("cache.t1_hits"),
        t2_hits=delta.count("cache.t2_hits"),
        prefetch_issued=delta.count("cache.prefetch_issued_blocks"),
        prefetch_used=delta.count("cache.prefetch_used_blocks"),
        disk_requests=delta.count("disk.requests"),
    )


def _fig_cache_cell(spec, tracer=None) -> CellResult:
    """One (scenario, profile) cell.

    ``pressure`` drives the MDS end to end (hot stats vs cold directory
    scans under a deliberately small cache); ``streams`` drives the
    BufferCache directly with interleaved sequential readers, isolating
    readahead-context behaviour from the metadata path.
    """
    scale, seed, scenario, profile = spec
    cell = _Cell(tracer)
    if scenario == "pressure":
        cfg = redbud_mif_profile().with_cache_profile(
            profile, capacity_blocks=CACHE_PRESSURE_CAPACITY
        )
        wl = CachePressureWorkload(rounds=_scaled(10, scale, floor=2))
        mds = cell.mds(cfg)
        hot, cold = wl.setup(mds)
        mds.drop_caches()
        snap = cell.metrics.snapshot()
        result = cell.phase(f"pressure:{profile}", wl.run(mds, hot, cold))
        return cell.result(_cache_run(cell, scenario, profile, snap, result))
    if scenario == "streams":
        cfg = redbud_mif_profile().with_cache_profile(profile)
        disk = SimulatedDisk(
            cfg.mds_disk, cfg.scheduler, cell.metrics, name="mds",
            tracer=cell.tracer,
        )
        cache = BufferCache(cfg.cache, disk, cell.metrics, cell.tracer)
        cell.tracer.bind_clock(lambda: disk.busy_s, override=True)
        wl = InterleavedStreamWorkload(
            blocks_per_stream=_scaled(256, scale, floor=64)
        )
        snap = cell.metrics.snapshot()
        result = cell.phase(f"streams:{profile}", wl.run(cache))
        return cell.result(_cache_run(cell, scenario, profile, snap, result))
    raise ConfigError(f"unknown cache scenario: {scenario!r}")


@register("fig_cache")
def cache_pressure_suite(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    profiles: tuple[str, ...] = ("legacy", "adaptive"),
    scenarios: tuple[str, ...] = ("pressure", "streams"),
    jobs: int | None = None,
) -> RunResult:
    """Cache-pressure sweep: the adaptive tiered cache (per-stream
    readahead + SLRU tiers + embedded-directory prefetch, docs/CACHE.md)
    against the legacy flat LRU, on a scan-pressure metadata mix and an
    interleaved-sequential-streams microbenchmark.

    ``jobs`` changes only how the cells are scheduled, never the result,
    so it does not participate in the fingerprint.
    """
    run = _Run(
        "fig_cache", trace, scale=scale, seed=seed,
        profiles=tuple(profiles), scenarios=tuple(scenarios),
    )
    payload = FigCacheResult()
    specs = [
        (scale, seed, scenario, profile)
        for scenario in scenarios
        for profile in profiles
    ]
    for cell in run.cells(specs, _fig_cache_cell, jobs):
        payload.runs.append(cell.payload)
    return run.result(payload)


def print_fig_cache(run_result, args) -> int:
    result = run_result.payload
    table = Table(
        "Cache pressure — legacy LRU vs adaptive tiered cache",
        ["scenario", "profile", "sim (s)", "hit rate", "t1/t2 hits",
         "prefetch acc", "disk reqs"],
    )
    scenarios = sorted({r.scenario for r in result.runs})
    for scenario in scenarios:
        for profile in ("legacy", "adaptive"):
            try:
                r = result.get(scenario, profile)
            except KeyError:
                continue
            table.add_row([
                r.scenario,
                r.profile,
                f"{r.elapsed_s:.4f}",
                f"{100.0 * r.hit_rate:.1f}%",
                f"{r.t1_hits}/{r.t2_hits}",
                f"{r.prefetch_accuracy:.2f}",
                r.disk_requests,
            ])
    table.print()
    gains = Table(
        "Adaptive-profile gains (docs/CACHE.md)",
        ["scenario", "sim speedup", "hit rate Δ (pts)"],
    )
    for scenario in scenarios:
        try:
            gains.add_row([
                scenario,
                f"{result.speedup(scenario):.2f}x",
                f"{result.hit_rate_gain(scenario):+.1f}",
            ])
        except KeyError:
            continue
    gains.print()
    return 0


COMMANDS = (
    RunnerCommand(
        "fig_cache",
        "cache pressure: legacy LRU vs the adaptive tiered cache "
        "(per-stream readahead, SLRU tiers, directory prefetch; "
        "docs/CACHE.md)",
        print_fig_cache,
    ),
)
