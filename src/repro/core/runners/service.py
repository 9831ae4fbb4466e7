"""Open-loop service mode: arrival-rate-driven latency under load."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.config import FSConfig
from repro.core.run import (
    CliOption, RunnerCommand, RunResult, positive_float, positive_int, register,
)
from repro.core.sweep import CellResult, _Cell, _Run
from repro.errors import ConfigError
from repro.fault import Corruptor
from repro.fs.profiles import redbud_mif_profile
from repro.fs.verify import Scrubber
from repro.obs.export import timeseries_to_csv
from repro.obs.report import render_dashboard
from repro.obs.slo import SLObjective, SLOReport, evaluate as evaluate_slo, resolve_objectives
from repro.obs.timeseries import TimeSeriesSnapshot
from repro.obs.trace import NullTracer, SamplingTracer, Tracer, parse_sample
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop, Station
from repro.sim.metrics import ThroughputResult
from repro.sim.report import Table
from repro.units import KiB
from repro.workloads.service import (
    ROW_STREAM,
    ScrubSpec,
    ServiceSpec,
    ServiceTelemetry,
    ServiceWorkload,
    resolve_duration,
    resolve_rate,
)


@dataclass
class StationReport:
    """One service center's open-loop outcome at one operating point."""

    name: str
    offered: int
    started: int
    completed: int
    dropped: int
    busy_s: float
    #: Busy fraction of the arrival window (> 1.0 = backlog outlived it).
    saturation: float
    #: Completions per simulated second of the arrival window.
    goodput_ops_s: float
    p50_s: float
    p99_s: float
    p999_s: float
    mean_latency_s: float
    mean_queue_depth: float
    p99_queue_depth: float
    #: The bounded queue depth the station ran with — the context that
    #: makes saturation and drops interpretable.
    depth: int = 0
    #: Drops broken down by op kind routed to this station.
    drops_by_kind: dict[str, int] = field(default_factory=dict)

@dataclass
class ScrubSummary:
    """Online-scrub outcome for one service cell (docs/FSCK.md)."""

    steps: int
    findings: int
    repairs: int
    cycles: int
    #: Finding codes the live corruptor aimed for during the run.
    injected: list[str] = field(default_factory=list)
    #: Extra full rotations needed after the arrival window to reach clean.
    drain_cycles: int = 0
    clean_after: bool = False


@dataclass
class ServiceCell:
    """One (rate, …) operating point: arrivals plus per-station reports."""

    rate: float
    streams: int
    duration_s: float
    queue_depth: int
    arrivals: int
    active_streams: int
    stations: dict[str, StationReport] = field(default_factory=dict)
    #: How many of the cell's disk-array batches held one request and how
    #: many held more — the introspection that proves a run under a tracer
    #: saw the unobserved run's batches (:attr:`repro.disk.array.DiskArray.io_profile`).
    io_profile: dict[str, int] = field(default_factory=dict)
    #: Per-window telemetry frames (``--telemetry``); None when disabled.
    telemetry: TimeSeriesSnapshot | None = None
    #: SLO evaluation over :attr:`telemetry` (``--slo``); None when disabled.
    slo: SLOReport | None = None
    #: Online-scrub summary (``--scrub``); None when disabled.
    scrub: ScrubSummary | None = None

    def station(self, name: str) -> StationReport:
        try:
            return self.stations[name]
        except KeyError:
            raise KeyError(
                f"no station {name!r}; known: {sorted(self.stations)}"
            ) from None


@dataclass
class ServiceReport:
    """Payload of the ``service`` runner: one cell per swept rate."""

    cells: list[ServiceCell] = field(default_factory=list)

    def get(self, rate: float) -> ServiceCell:
        for cell in self.cells:
            if cell.rate == rate:
                return cell
        raise KeyError(f"no cell at rate {rate}; known: {[c.rate for c in self.cells]}")

    @property
    def slo_verdict(self) -> str | None:
        """Overall verdict: "pass" only if every evaluated cell passed.

        None when no cell carried an SLO report (``--slo`` not given).
        """
        reports = [c.slo for c in self.cells if c.slo is not None]
        if not reports:
            return None
        return "pass" if all(r.passed for r in reports) else "fail"


def _station_report(st, duration_s: float, drops_by_kind: dict[str, int]) -> StationReport:
    lat = st.latency.snapshot()
    q = st.queue_depth.snapshot()
    return StationReport(
        name=st.name,
        offered=st.offered,
        started=st.started,
        completed=st.completed,
        dropped=st.dropped,
        busy_s=st.busy_s,
        saturation=st.saturation(duration_s),
        goodput_ops_s=st.completed / duration_s if duration_s > 0 else 0.0,
        p50_s=lat.percentile(50.0),
        p99_s=lat.percentile(99.0),
        p999_s=lat.percentile(99.9),
        mean_latency_s=lat.mean,
        mean_queue_depth=q.mean,
        p99_queue_depth=q.percentile(99.0),
        depth=st.depth,
        drops_by_kind=dict(drops_by_kind),
    )


def _service_cell(spec, tracer=None) -> CellResult:
    """One open-loop operating point: build, arrive, drain, report."""
    svc, cfg, telemetry_window, objectives, scrub = spec
    cell = _Cell(tracer)
    plane = cell.plane(cfg)
    mds = cell.mds(cfg)
    wl = ServiceWorkload(svc, plane, mds)
    wl.setup()

    loop = EventLoop(SimClock())
    stations = {
        "data": Station("data", wl.data_service, svc.queue_depth),
        "meta": Station("meta", wl.meta_service, svc.queue_depth),
    }
    telem = None
    if telemetry_window is not None:
        telem = ServiceTelemetry(telemetry_window)
        loop.probe = telem.loop_probe
        for st in stations.values():
            st.probe = telem.station_probe(st.name)
        telem.track_cache(mds.metrics)
    sampler = tracer if isinstance(tracer, SamplingTracer) else None
    drops = {"data": {"write": 0, "read": 0}, "meta": {"meta": 0}}

    def arrive(station, kind, kind_drops):
        offer, name = station.offer, station.name
        arrived, dropped, sojourn = (
            ("service", f"{kind}.{what}", "station") for what in ("arrive", "drop", "sojourn")
        )

        def on_event(now, row):
            if offer(now, row) is None:
                kind_drops[kind] += 1

        def on_sampled_event(now, row):
            stream = row[ROW_STREAM]
            if not sampler.sampled(stream):
                return on_event(now, row)
            with sampler.op(stream):
                sampler.record(arrived, now, 0.0, None, name)
                done = offer(now, row)
                if done is None:
                    kind_drops[kind] += 1
                    sampler.record(dropped, now, 0.0, None, name)
                else:
                    sampler.record(sojourn, now, done - now, None, name)

        return on_event if sampler is None else on_sampled_event

    for kind in ServiceWorkload.KINDS:
        name = "meta" if kind == "meta" else "data"
        loop.add_blocks(wl.events(kind), arrive(stations[name], kind, drops[name]))

    scrubber = None
    injected: list[str] = []
    if scrub is not None:
        # Online scrub: one shard check/repair per interval, interleaved
        # with foreground arrivals.  Corruption stays on the data plane —
        # live metadata traffic would trip over a damaged namespace.
        scrubber = Scrubber(plane, mds, strict_accounting=False)
        corruptor = Corruptor(svc.seed + 7919)

        def on_scrub(now, step):
            if scrub.corrupt_every and step % scrub.corrupt_every == 0:
                hit = corruptor.corrupt_dataplane(plane, nfaults=scrub.nfaults)
                injected.extend(hit)
            else:
                hit = []
            result = scrubber.step()
            if telem is not None:
                series = telem.series
                series.incr(now, "scrub.steps")
                for key, value in (
                    ("scrub.findings", result.findings),
                    ("scrub.repairs", result.repaired),
                    ("scrub.injected", len(hit)),
                ):
                    if value:
                        series.incr(now, key, value)

        loop.add_blocks(scrub.ticks(), on_scrub)

    loop.run(until=svc.duration_s)
    for st in stations.values():
        st.drain()

    scrub_summary = None
    if scrubber is not None:
        # After the arrival window, let the scrubber finish healing any
        # damage injected late in the run: full rotations until the
        # offline checker reports clean (bounded — repair converges).
        drain_cycles = 0
        final = scrubber.full_check()
        while not final.clean and drain_cycles < 4:
            for _ in range(scrubber.shard_count):
                scrubber.step()
            drain_cycles += 1
            final = scrubber.full_check()
        scrub_summary = ScrubSummary(
            steps=scrubber.shards_checked,
            findings=scrubber.findings_found,
            repairs=scrubber.repairs_applied,
            cycles=scrubber.cycles,
            injected=injected,
            drain_cycles=drain_cycles,
            clean_after=final.clean,
        )

    if telem is not None:
        telem.finish(svc.duration_s)

    label = f"service:r{svc.rate:g}"
    cell.phase(
        label,
        ThroughputResult(
            bytes_moved=stations["data"].started * svc.request_bytes,
            elapsed=svc.duration_s,
            ops=sum(st.started for st in stations.values()),
        ),
    )
    for name, st in stations.items():
        cell.metrics.histogram_ref(f"service.{name}.latency_s").absorb(
            st.latency.snapshot()
        )
        cell.metrics.histogram_ref(f"service.{name}.queue_depth").absorb(
            st.queue_depth.snapshot()
        )
        cell.metrics.incr(f"service.{name}.dropped", st.dropped)
    snapshot = telem.snapshot() if telem is not None else None
    slo_report = (
        evaluate_slo(snapshot, objectives)
        if snapshot is not None and objectives
        else None
    )
    payload = ServiceCell(
        rate=svc.rate,
        streams=svc.streams,
        duration_s=svc.duration_s,
        queue_depth=svc.queue_depth,
        # Client arrivals only: the loop also dispatched the scrub ticks.
        arrivals=sum(st.offered for st in stations.values()),
        active_streams=wl.active_streams,
        stations={
            name: _station_report(st, svc.duration_s, drops[name])
            for name, st in stations.items()
        },
        io_profile=dict(plane.array.io_profile),
        telemetry=snapshot,
        slo=slo_report,
        scrub=scrub_summary,
    )
    return cell.result(payload)


#: Default telemetry windows per run: ``--telemetry`` without an explicit
#: window width divides the arrival window into this many frames.
TELEMETRY_WINDOWS = 50


def _resolve_telemetry_window(
    telemetry: bool | float, slo_active: bool, duration_s: float
) -> float | None:
    """The telemetry window width in seconds, or None when disabled.

    ``True`` (or any active SLO, which needs frames to evaluate) divides
    the run into :data:`TELEMETRY_WINDOWS` windows; a number is an explicit
    window width in simulated seconds.
    """
    if telemetry is False or telemetry is None:
        return duration_s / TELEMETRY_WINDOWS if slo_active else None
    if telemetry is True:
        return duration_s / TELEMETRY_WINDOWS
    window_s = float(telemetry)
    if not 0 < window_s < math.inf:
        raise ConfigError(f"telemetry window must be positive and finite: {telemetry}")
    return window_s


@register("service")
def service_mode(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    streams: int = 1000,
    rate: str | float = "small",
    duration: str | float = "short",
    queue_depth: int = 64,
    rates: tuple[str | float, ...] | None = None,
    read_fraction: float = 0.35,
    meta_fraction: float = 0.20,
    request_bytes: int = 64 * KiB,
    config: FSConfig | None = None,
    jobs: int | None = None,
    telemetry: bool | float = False,
    slo: bool | str | SLObjective | tuple[str | SLObjective, ...] | None = None,
    sample: int | str | None = None,
    scrub: bool | float = False,
    scrub_corrupt: int = 0,
    scrub_faults: int = 1,
) -> RunResult:
    """Open-loop service mode: latency under a fixed offered load.

    ``streams`` clients each arrive at ``rate`` ops/s (named "small" /
    "medium" / "large" or an explicit number) for ``duration`` simulated
    seconds ("short"/"long" or seconds; multiplied by ``scale``).  Data
    and metadata operations queue at bounded-depth stations over the disk
    array and the MDS; the payload reports p50/p99/p999 sojourn times,
    queue depths, drops, saturation and goodput per station.  ``rates``
    sweeps several operating points as independent cells (``jobs`` fans
    them out; results are identical at any job count).

    Observability (docs/TELEMETRY.md) — all observe-only, none of it
    enters the fingerprint or perturbs results:

    - ``telemetry`` — per-window time-series frames on each cell: ``True``
      for :data:`TELEMETRY_WINDOWS` windows, or an explicit window width
      in simulated seconds.
    - ``slo`` — declarative SLO objectives evaluated per cell: ``True``
      / ``"default"`` for :data:`~repro.obs.slo.DEFAULT_OBJECTIVES`, or
      spec strings like ``"data.latency_s:p99<=0.05"`` (comma-separated
      or a tuple).  Implies telemetry.
    - ``sample`` — sampled per-op tracing: ``"1/N"`` (or N) traces every
      N-th stream end-to-end via a :class:`~repro.obs.trace.
      SamplingTracer`, bounding trace volume at any stream count.
      Ignored when an explicit ``trace=`` tracer is passed.

    ``scrub`` enables online scrubbing (docs/FSCK.md): ``True`` steps the
    :class:`~repro.fs.verify.Scrubber` once per telemetry-sized window
    (duration / :data:`TELEMETRY_WINDOWS`), a number is an explicit step
    interval in simulated seconds.  ``scrub_corrupt`` > 0 additionally
    injects ``scrub_faults`` seeded data-plane corruptions before every
    ``scrub_corrupt``-th step (implies scrubbing), so the scrub has live
    damage to converge on; per-window ``scrub.*`` counters appear under
    ``telemetry`` and the cell payload carries a :class:`ScrubSummary`.
    Scrubbing repairs live state, so it enters the fingerprint when
    enabled; the default stays fingerprint-identical.
    """
    rate_points = tuple(resolve_rate(r) for r in (rates if rates is not None else (rate,)))
    duration_s = resolve_duration(duration) * scale
    cfg = config if config is not None else redbud_mif_profile()
    objectives = resolve_objectives(slo)
    telemetry_window = _resolve_telemetry_window(
        telemetry, objectives is not None, duration_s
    )
    if sample is not None and (trace is None or trace is False):
        trace = SamplingTracer(every=parse_sample(sample))
    scrub_spec = None
    if scrub or scrub_corrupt:
        interval_s = (
            duration_s / TELEMETRY_WINDOWS
            if isinstance(scrub, bool) else float(scrub)
        )
        scrub_spec = ScrubSpec(
            interval_s=interval_s,
            corrupt_every=scrub_corrupt,
            nfaults=scrub_faults,
        )
    # Scrubbing repairs live state, so it participates in the fingerprint
    # — but only when enabled, keeping default fingerprints unchanged.
    scrub_kwargs = (
        {}
        if scrub_spec is None
        else {
            "scrub_interval_s": scrub_spec.interval_s,
            "scrub_corrupt": scrub_spec.corrupt_every,
            "scrub_faults": scrub_spec.nfaults,
        }
    )
    run = _Run(
        "service", trace, scale=scale, seed=seed, streams=streams,
        rates=rate_points, duration_s=duration_s, queue_depth=queue_depth,
        read_fraction=read_fraction, meta_fraction=meta_fraction,
        request_bytes=request_bytes, profile=cfg.name, **scrub_kwargs,
    )
    specs = [
        (
            ServiceSpec(
                streams=streams,
                rate=r,
                duration_s=duration_s,
                queue_depth=queue_depth,
                read_fraction=read_fraction,
                meta_fraction=meta_fraction,
                request_bytes=request_bytes,
                seed=seed,
            ),
            cfg,
            telemetry_window,
            objectives,
            scrub_spec,
        )
        for r in rate_points
    ]
    payload = ServiceReport()
    for cell in run.cells(specs, _service_cell, jobs):
        payload.cells.append(cell.payload)
    return run.result(payload)


def _cell_artifact_path(path: str, report, cell) -> str:
    """Artifact path for one cell: rate-suffixed when the run swept rates."""
    if len(report.cells) <= 1:
        return path
    root, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}.r{cell.rate:g}"
    return f"{root}.r{cell.rate:g}.{ext}"


def _format_drops(st) -> str:
    """Per-kind drop breakdown, e.g. ``w=2 r=1`` (``-`` when drop-free)."""
    if not st.dropped:
        return "-"
    return " ".join(
        f"{kind[0]}={n}" for kind, n in sorted(st.drops_by_kind.items()) if n
    )


def print_service(run_result, args) -> int:
    report = run_result.payload
    table = Table(
        "Open-loop service mode — sojourn latency under offered load",
        ["rate", "station", "depth", "started", "dropped", "drops by kind",
         "p50 (s)", "p99 (s)", "p999 (s)", "saturation", "goodput/s"],
    )
    for cell in report.cells:
        for name in sorted(cell.stations):
            st = cell.stations[name]
            table.add_row(
                [
                    f"{cell.rate:g}", name, st.depth, st.started, st.dropped,
                    _format_drops(st),
                    f"{st.p50_s:.2e}", f"{st.p99_s:.2e}", f"{st.p999_s:.2e}",
                    f"{st.saturation:.2f}", f"{st.goodput_ops_s:.0f}",
                ]
            )
    table.print()
    for cell in report.cells:
        print(
            f"rate {cell.rate:g}: {cell.arrivals} arrivals over "
            f"{cell.streams} streams ({cell.active_streams} active), "
            f"queue depth {cell.queue_depth}, {cell.duration_s:g} s window"
        )
    for cell in report.cells:
        if cell.scrub is None:
            continue
        s = cell.scrub
        state = "clean" if s.clean_after else "STILL DIRTY"
        print(
            f"rate {cell.rate:g} scrub: {s.steps} step(s) over "
            f"{s.cycles} rotation(s), {s.findings} finding(s), "
            f"{s.repairs} repair(s), {len(s.injected)} live fault(s); "
            f"{state} after {s.drain_cycles} drain cycle(s)"
        )

    telemetry_out = getattr(args, "telemetry_out", None)
    dashboard_out = getattr(args, "dashboard_out", None)
    for cell in report.cells:
        if cell.telemetry is None:
            continue
        dashboard = render_dashboard(
            cell.telemetry, title=f"telemetry (rate {cell.rate:g})"
        )
        print()
        print(dashboard)
        if telemetry_out:
            path = _cell_artifact_path(telemetry_out, report, cell)
            timeseries_to_csv(cell.telemetry, path)
            print(f"wrote telemetry CSV to {path}")
        if dashboard_out:
            path = _cell_artifact_path(dashboard_out, report, cell)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dashboard + "\n")
            print(f"wrote dashboard to {path}")

    if any(cell.slo is not None for cell in report.cells):
        slo_table = Table(
            "SLO verdicts — error-budget burn rate per objective",
            ["rate", "objective", "windows", "bad", "worst", "compliance",
             "burn rate", "verdict"],
        )
        for cell in report.cells:
            if cell.slo is None:
                continue
            for res in cell.slo.results:
                slo_table.add_row(
                    [
                        f"{cell.rate:g}", res.objective.name, res.windows,
                        res.bad_windows, f"{res.worst:.2e}",
                        f"{res.compliance:.1%}", f"{res.burn_rate:.2f}",
                        res.verdict,
                    ]
                )
        print()
        slo_table.print()
        print(f"overall SLO verdict: {report.slo_verdict}")

    if args.out:
        doc = {
            "fingerprint": run_result.fingerprint,
            "cells": [dataclasses.asdict(cell) for cell in report.cells],
        }
        if report.slo_verdict is not None:
            doc["slo_verdict"] = report.slo_verdict
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote latency report to {args.out}")
    if any(c.scrub is not None and not c.scrub.clean_after for c in report.cells):
        return 1
    return 1 if report.slo_verdict == "fail" else 0


def _rate_or_name(text: str) -> str | float:
    """A named rate/duration stays a string; anything numeric parses."""
    try:
        return float(text)
    except ValueError:
        return text


def _checked(check: Callable[[Any], object], parse: Callable[[str], Any] = str):
    """An ``argparse`` type: ``parse`` the text, then pass it through the
    run's own validator ``check``, so a value the run would reject is a
    usage error before anything runs.  The run gets the parsed value."""

    def convert(text: str) -> Any:
        try:
            value = parse(text)
            check(value)
        except (ConfigError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return convert


_rate = _checked(resolve_rate, _rate_or_name)


def _rate_list(text: str) -> tuple[str | float, ...]:
    rates = tuple(_rate(t.strip()) for t in text.split(",") if t.strip())
    if not rates:
        raise argparse.ArgumentTypeError(f"needs at least one rate: {text!r}")
    return rates


COMMANDS = (
    RunnerCommand(
        "service",
        "open-loop service mode: arrival-driven load, latency percentiles "
        "(docs/SERVICE.md)",
        print_service,
        options=(
            CliOption(("--streams",), "streams", dict(
                type=positive_int, default=1000,
                help="number of client streams (default 1000)")),
            CliOption(("--rate",), "rate", dict(
                type=_rate, default="small",
                help="per-stream ops/s: small|medium|large or a number")),
            CliOption(("--duration",), "duration", dict(
                type=_checked(resolve_duration, _rate_or_name), default="short",
                help="arrival window: short|long or seconds (x scale)")),
            CliOption(("--queue-depth",), "queue_depth", dict(
                type=positive_int, default=64,
                help="bounded station queue depth (arrivals beyond it drop)")),
            CliOption(("--rates",), "rates", dict(
                type=_rate_list, default=None, metavar="R1,R2,...",
                help="sweep several rates as independent cells")),
            CliOption(("--telemetry",), "telemetry", dict(
                nargs="?", const=True, default=False, type=positive_float,
                metavar="WINDOW_S",
                help="collect per-window time-series telemetry; optional "
                "window width in simulated seconds (default: duration/50)")),
            CliOption(("--slo",), "slo", dict(
                nargs="?", const="default", default=None, metavar="SPECS",
                type=_checked(resolve_objectives),
                help="evaluate SLO objectives (implies --telemetry): "
                "comma-separated SERIES:pP<=THRESHOLD[:wS][:bF] specs, "
                "or no value for the defaults; a fail verdict exits 1")),
            CliOption(("--sample",), "sample", dict(
                type=_checked(parse_sample), default=None, metavar="1/N",
                help="trace every Nth stream end-to-end (sampled tracing "
                "bounds trace volume at any stream count)")),
            CliOption(("--scrub",), "scrub", dict(
                nargs="?", const=True, default=False, type=positive_float,
                metavar="INTERVAL_S",
                help="run the incremental scrubber alongside the workload, "
                "one shard per tick; optional tick interval in simulated "
                "seconds (default: duration/50; docs/FSCK.md)")),
            CliOption(("--scrub-corrupt",), "scrub_corrupt", dict(
                type=_checked(lambda n: ScrubSpec(corrupt_every=n), int),
                default=0, metavar="N",
                help="with --scrub: inject live corruption every N scrub "
                "ticks (0 = none)")),
            CliOption(("--scrub-faults",), "scrub_faults", dict(
                type=positive_int, default=1, metavar="N",
                help="faults per live corruption round (default 1)")),
            CliOption(("--telemetry-out",), None, dict(
                default=None, metavar="PATH", dest="telemetry_out",
                help="write the per-window telemetry as CSV to PATH "
                "(rate-suffixed when sweeping --rates)")),
            CliOption(("--dashboard-out",), None, dict(
                default=None, metavar="PATH", dest="dashboard_out",
                help="write the ASCII sparkline dashboard to PATH")),
            CliOption(("--out",), None, dict(
                default=None, metavar="PATH",
                help="also write the latency report as JSON to PATH")),
        ),
    ),
)
