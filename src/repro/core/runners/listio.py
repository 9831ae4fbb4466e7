"""fig_listio: scatter-gather list I/O vs the scalar-operation loop."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.run import RunnerCommand, RunResult, register
from repro.core.sweep import CellResult, _Cell, _Run, _scaled
from repro.errors import ConfigError
from repro.fs.profiles import redbud_mif_profile
from repro.obs.trace import NullTracer, Tracer
from repro.sim.report import Table, format_pct
from repro.units import KiB, MiB
from repro.workloads.listio import StridedAccessBenchmark, TileAccessBenchmark


#: Per-submission request overhead (seconds) for the list-I/O experiment:
#: request shipping plus command setup, the cost PVFS list I/O amortizes
#: over a whole region list.  The bundled profiles keep
#: ``request_header_s=0`` (the historical positioning+transfer-only
#: model); this runner opts in so the submission-count difference between
#: the two modes is visible on the clock, not only in the counters.
LISTIO_HEADER_S = 2e-4


@dataclass
class ListIORun:
    """One (pattern, mode) cell: phase throughputs plus header count."""

    pattern: str
    mode: str
    write_mib_s: float
    read_mib_s: float
    request_headers: int


@dataclass
class ListIOResult:
    """Scalar-loop vs list-I/O throughput per access pattern."""

    runs: list[ListIORun] = field(default_factory=list)

    def get(self, pattern: str, mode: str) -> ListIORun:
        for r in self.runs:
            if r.pattern == pattern and r.mode == mode:
                return r
        raise KeyError((pattern, mode))

    def speedup(self, pattern: str, phase: str = "read") -> float:
        """List-I/O over scalar-loop throughput gain for ``pattern``."""
        scalar = self.get(pattern, "scalar")
        listio = self.get(pattern, "listio")
        if phase == "read":
            return listio.read_mib_s / scalar.read_mib_s
        return listio.write_mib_s / scalar.write_mib_s


def _fig_listio_cell(spec, tracer=None) -> CellResult:
    """One (pattern, mode) list-I/O run.

    Both modes replay the identical noncontiguous access pattern through
    the same closed-loop runner; only the request grammar differs — one
    Write/ReadOp per region versus one Writev/ReadvOp per region list.
    """
    scale, seed, ndisks, pattern, mode = spec
    cell = _Cell(tracer)
    cfg = redbud_mif_profile(ndisks=ndisks)
    cfg = replace(cfg, disk=replace(cfg.disk, request_header_s=LISTIO_HEADER_S))
    plane = cell.plane(cfg)
    snap = cell.metrics.snapshot()
    if pattern == "strided":
        bench = StridedAccessBenchmark(
            nstreams=8,
            records_per_stream=_scaled(256, scale, floor=32),
            record_bytes=16 * KiB,
            list_len=32,
            seed=seed,
        )
    elif pattern == "tile":
        bench = TileAccessBenchmark(
            tiles_x=4,
            tiles_y=2,
            tile_w_bytes=64 * KiB,
            tile_rows=_scaled(16, scale, floor=8),
            seed=seed,
        )
    else:
        raise ConfigError(f"unknown list-I/O pattern: {pattern!r}")
    f = bench.create_file(plane)
    w = cell.phase(f"write:{pattern}:{mode}", bench.phase_write(plane, f, mode))
    plane.close_file(f)
    r = cell.phase(f"read:{pattern}:{mode}", bench.phase_read(plane, f, mode))
    cell.capture(f"{pattern}:{mode}", plane, region_bytes=bench.region_bytes)
    headers = cell.metrics.since(snap).count("disk.request_headers")
    return cell.result(
        ListIORun(
            pattern=pattern,
            mode=mode,
            write_mib_s=w.bytes_moved / w.elapsed / MiB if w.elapsed > 0 else 0.0,
            read_mib_s=r.bytes_moved / r.elapsed / MiB if r.elapsed > 0 else 0.0,
            request_headers=headers,
        )
    )


@register("fig_listio")
def listio_benchmarks(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    patterns: tuple[str, ...] = ("strided", "tile"),
    modes: tuple[str, ...] = ("scalar", "listio"),
    ndisks: int = 5,
    jobs: int | None = None,
) -> RunResult:
    """List I/O: ROMIO-style strided and tile access, scalar loop vs one
    scatter-gather request per region list (readv/writev; docs/LISTIO.md).

    ``jobs`` changes only how the cells are scheduled, never the result,
    so it does not participate in the fingerprint.
    """
    run = _Run(
        "fig_listio", trace, scale=scale, seed=seed, patterns=patterns,
        modes=modes, ndisks=ndisks,
    )
    payload = ListIOResult()
    specs = [
        (scale, seed, ndisks, pattern, mode)
        for pattern in patterns
        for mode in modes
    ]
    for cell in run.cells(specs, _fig_listio_cell, jobs):
        payload.runs.append(cell.payload)
    return run.result(payload)


def print_fig_listio(run_result, args) -> int:
    result = run_result.payload
    table = Table(
        "List I/O — scalar loop vs scatter-gather lists (MiB/s)",
        ["pattern", "phase", "scalar", "listio", "gain"],
    )
    for pattern in ("strided", "tile"):
        try:
            scalar = result.get(pattern, "scalar")
            listio = result.get(pattern, "listio")
        except KeyError:
            continue
        for phase in ("write", "read"):
            s = scalar.write_mib_s if phase == "write" else scalar.read_mib_s
            v = listio.write_mib_s if phase == "write" else listio.read_mib_s
            table.add_row([pattern, phase, s, v, format_pct(v / s - 1)])
    table.print()
    headers = Table(
        "Request headers shipped (one per submitted batch per disk)",
        ["pattern", "scalar", "listio"],
    )
    for pattern in ("strided", "tile"):
        try:
            headers.add_row(
                [
                    pattern,
                    result.get(pattern, "scalar").request_headers,
                    result.get(pattern, "listio").request_headers,
                ]
            )
        except KeyError:
            continue
    headers.print()
    return 0


COMMANDS = (
    RunnerCommand(
        "fig_listio",
        "list I/O: strided/tile access, scalar loop vs readv/writev "
        "(docs/LISTIO.md)",
        print_fig_listio,
    ),
)
