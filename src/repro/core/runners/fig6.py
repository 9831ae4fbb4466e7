"""Fig. 6: the shared-file micro-benchmark — phase-2 read throughput vs the
stream count (a) and vs the phase-1 request ("allocation") size (b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.run import RunnerCommand, RunResult, register
from repro.core.sweep import CellResult, _Cell, _Run, _scaled
from repro.fs.profiles import redbud_vanilla_profile, with_alloc_policy
from repro.obs.trace import NullTracer, Tracer
from repro.sim.report import Table, format_pct
from repro.units import KiB, MiB
from repro.workloads.streams import SharedFileMicrobench


@dataclass
class Fig6aResult:
    """Phase-2 read throughput (MiB/s) per policy per stream count."""

    stream_counts: list[int]
    throughput: dict[str, dict[int, float]]  # policy -> n -> MiB/s
    extents: dict[str, dict[int, int]]

    def improvement_over(self, base: str, other: str, n: int) -> float:
        """Fractional gain of ``other`` over ``base`` at ``n`` streams."""
        return self.throughput[other][n] / self.throughput[base][n] - 1.0


def _fig6_cell(spec, tracer=None) -> CellResult:
    """One point of Fig. 6: ``policy`` writes the shared file with
    ``nstreams`` streams of ``size``-byte requests, then reads it back;
    ``tag`` names the point in its phase and layout labels.  The payload is
    the read throughput (MiB/s) and the file's extent count."""
    scale, seed, ndisks, nstreams, size, policy, tag = spec
    cell = _Cell(tracer)
    file_bytes = _scaled(192 * MiB, scale, floor=16 * MiB)
    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
    plane = cell.plane(cfg)
    bench = SharedFileMicrobench(
        nstreams=nstreams,
        file_bytes=file_bytes - file_bytes % nstreams,
        write_request_bytes=size,
        seed=seed,
    )
    f = bench.create_shared_file(plane)
    cell.phase(f"write:{policy}:{tag}", bench.phase1_write(plane, f))
    plane.close_file(f)
    result = cell.phase(f"read:{policy}:{tag}", bench.phase2_read(plane, f))
    cell.capture(f"{policy}:{tag}", plane, region_bytes=bench.region_bytes)
    return cell.result((result.mib_per_s, f.extent_count))


@register("fig6a")
def micro_stream_count(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    stream_counts: tuple[int, ...] = (32, 48, 64),
    policies: tuple[str, ...] = ("reservation", "static", "ondemand"),
    ndisks: int = 5,
    jobs: int | None = None,
) -> RunResult:
    """Fig. 6(a): on-demand beats reservation by a margin growing with the
    stream count; static (fallocate) is the contiguous upper bound."""
    run = _Run(
        "fig6a", trace, scale=scale, seed=seed,
        stream_counts=stream_counts, policies=policies, ndisks=ndisks,
    )
    throughput: dict[str, dict[int, float]] = {p: {} for p in policies}
    extents: dict[str, dict[int, int]] = {p: {} for p in policies}
    specs = [
        (scale, seed, ndisks, n, 16 * KiB, policy, f"n{n}")
        for n in stream_counts
        for policy in policies
    ]
    for spec, cell in zip(specs, run.cells(specs, _fig6_cell, jobs)):
        n, policy = spec[3], spec[5]
        throughput[policy][n], extents[policy][n] = cell.payload
    return run.result(Fig6aResult(list(stream_counts), throughput, extents))


def print_fig6a(run_result, args) -> int:
    result = run_result.payload
    table = Table(
        "Fig 6(a) — phase-2 throughput (MiB/s) vs stream count",
        ["streams", "reservation", "static", "ondemand", "gain"],
    )
    for n in result.stream_counts:
        table.add_row(
            [
                n,
                result.throughput["reservation"][n],
                result.throughput["static"][n],
                result.throughput["ondemand"][n],
                format_pct(result.improvement_over("reservation", "ondemand", n)),
            ]
        )
    table.print()
    return 0


@dataclass
class Fig6bResult:
    """Phase-2 read throughput per policy per phase-1 request size."""

    request_sizes: list[int]
    throughput: dict[str, dict[int, float]]  # policy -> bytes -> MiB/s


@register("fig6b")
def micro_request_size(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    request_sizes: tuple[int, ...] = (4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB),
    policies: tuple[str, ...] = ("reservation", "static", "ondemand"),
    nstreams: int = 32,
    ndisks: int = 5,
    jobs: int | None = None,
) -> RunResult:
    """Fig. 6(b): small allocation sizes leave reservation placement
    unmergeable on disk; on-demand mitigates the interference."""
    run = _Run(
        "fig6b", trace, scale=scale, seed=seed, request_sizes=request_sizes,
        policies=policies, nstreams=nstreams, ndisks=ndisks,
    )
    throughput: dict[str, dict[int, float]] = {p: {} for p in policies}
    specs = [
        (scale, seed, ndisks, nstreams, size, policy, f"req{size}")
        for size in request_sizes
        for policy in policies
    ]
    for spec, cell in zip(specs, run.cells(specs, _fig6_cell, jobs)):
        size, policy = spec[4], spec[5]
        throughput[policy][size] = cell.payload[0]
    return run.result(Fig6bResult(list(request_sizes), throughput))


def print_fig6b(run_result, args) -> int:
    result = run_result.payload
    table = Table(
        "Fig 6(b) — phase-2 throughput (MiB/s) vs phase-1 request size",
        ["request KiB", "reservation", "static", "ondemand"],
    )
    for s in result.request_sizes:
        table.add_row(
            [
                s // KiB,
                result.throughput["reservation"][s],
                result.throughput["static"][s],
                result.throughput["ondemand"][s],
            ]
        )
    table.print()
    return 0


COMMANDS = (
    RunnerCommand(
        "fig6a", "Fig 6(a): throughput vs stream count", print_fig6a,
        run_kwargs={"stream_counts": (32, 48, 64)},
    ),
    RunnerCommand("fig6b", "Fig 6(b): throughput vs request size", print_fig6b),
)
