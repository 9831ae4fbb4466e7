"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables and figures, run one-off
micro-benchmarks with a fragmentation visualization, and synthesize or
replay shared-file traces.  Everything is simulated — no disks are touched.

Runner-backed subcommands are **registry-driven**: each is one declarative
:class:`RunnerCommand` entry (name, help, default scale, extra options,
printer) and the parser wires them up in a loop.  Shared options follow
the runner's actual signature — every entry gets ``--scale``/``--seed``,
and ``--jobs`` appears automatically when the registered runner accepts
``jobs``.  ``--list`` walks the same runner registry.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
from collections.abc import Callable
from typing import Any

from repro import __version__
from repro.bench import baseline as bench_baseline
from repro.core import parallel
from repro.core.run import run as run_experiment
from repro.core.run import runner_names
from repro.core.runners import interference_claim, prealloc_waste
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import (
    lustre_profile,
    redbud_mif_profile,
    redbud_vanilla_profile,
    with_alloc_policy,
)
from repro.obs.export import timeseries_to_csv
from repro.obs.report import render_dashboard
from repro.sim.report import Table, format_pct
from repro.sim.visual import extent_histogram, layout_map, utilization_bars
from repro.units import KiB, MiB
from repro.workloads.replay import read_trace, replay, save_trace
from repro.workloads.streams import SharedFileMicrobench
from repro.workloads.traces import synth_checkpoint_trace


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "list", False):
        for name in runner_names():
            print(name)
        return 0
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    return args.func(args)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


#: Named scales accepted wherever --scale takes a value ("smoke" is the
#: pinned baseline configuration; see repro.bench.baseline).
NAMED_SCALES = {"smoke": 0.05}


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--jobs`` option for parallel-sweep runners."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes for independent sweep cells (default: "
        f"${parallel.JOBS_ENV} or 1); results are identical at any value",
    )


def _scale(text: str) -> float:
    if text in NAMED_SCALES:
        return NAMED_SCALES[text]
    try:
        value = float(text)
    except ValueError:
        names = ", ".join(sorted(NAMED_SCALES))
        raise argparse.ArgumentTypeError(
            f"must be a float or one of: {names}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _rate_or_name(text: str) -> str | float:
    """A named rate/duration stays a string; anything numeric parses."""
    try:
        return float(text)
    except ValueError:
        return text


def _rate_list(text: str) -> tuple[str | float, ...]:
    return tuple(_rate_or_name(t.strip()) for t in text.split(",") if t.strip())


# -- declarative runner-backed subcommands ------------------------------------

@dataclasses.dataclass(frozen=True)
class CliOption:
    """One extra ``add_argument`` for a runner command.

    ``forward`` names the runner kwarg the parsed value is passed to
    (``None`` = printer-only option, e.g. an output path).
    """

    flags: tuple[str, ...]
    forward: str | None = None
    kwargs: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class RunnerCommand:
    """Declarative spec for one runner-backed CLI subcommand."""

    name: str
    help: str
    printer: "Callable[[Any, argparse.Namespace], int]"
    default_scale: float = 1.0
    #: Fixed kwargs the CLI always passes to the runner.
    run_kwargs: dict = dataclasses.field(default_factory=dict)
    options: tuple[CliOption, ...] = ()


def _runner_params(name: str):
    """Signature parameters of the registered runner ``name``."""
    from repro.core.run import RUNNERS, _load

    _load()
    return inspect.signature(RUNNERS[name]).parameters


def _runner_command(spec: RunnerCommand):
    """The ``args -> exit code`` handler for one declarative entry."""

    def cmd(args: argparse.Namespace) -> int:
        kwargs = dict(spec.run_kwargs)
        kwargs["jobs"] = getattr(args, "jobs", None)
        for opt in spec.options:
            if opt.forward is not None:
                kwargs[opt.forward] = getattr(args, opt.forward)
        result = run_experiment(spec.name, scale=args.scale, seed=args.seed, **kwargs)
        return spec.printer(result, args)

    return cmd


def _register_runner_commands(sub) -> None:
    """Wire every :data:`RUNNER_COMMANDS` entry into the subparser set."""
    for spec in RUNNER_COMMANDS:
        params = _runner_params(spec.name)
        p = sub.add_parser(spec.name, help=spec.help)
        p.add_argument("--scale", type=_scale, default=spec.default_scale)
        p.add_argument("--seed", type=int, default=0)
        if "jobs" in params:
            _add_jobs(p)
        for opt in spec.options:
            p.add_argument(*opt.flags, **opt.kwargs)
        p.set_defaults(func=_runner_command(spec))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'MiF: Mitigating the intra-file "
        "Fragmentation in parallel file system' (ICPP 2011).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--list", action="store_true",
        help="list registered experiment runners and exit",
    )
    sub = parser.add_subparsers(dest="command")

    _register_runner_commands(sub)

    p = sub.add_parser("claims", help="§I and §III.C headline claims")
    p.add_argument("--scale", type=_scale, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_claims)

    p = sub.add_parser(
        "trace",
        help="run an experiment with structured tracing; export the trace "
        "and print a per-layer simulated-time breakdown",
    )
    p.add_argument("runner", choices=runner_names(),
                   help="registered experiment runner to trace")
    p.add_argument("--scale", type=_scale, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="output path (default: <runner>.trace.<ext>)")
    p.add_argument("--format", choices=("chrome", "jsonl"), default="chrome",
                   help="chrome = chrome://tracing JSON; jsonl = one event per line")
    p.add_argument("--capacity", type=_positive_int, default=262144,
                   help="trace ring-buffer capacity (oldest events evicted)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "inspect",
        help="run an experiment and print its layout fragmentation report(s)",
    )
    p.add_argument("runner", choices=runner_names(),
                   help="registered experiment runner to inspect")
    p.add_argument("--scale", type=_scale, default=0.25,
                   help="workload scale: a float, or 'smoke' (=0.05)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tag", default=None,
                   help="only print captures whose tag contains this substring")
    p.add_argument("--max-files", type=_positive_int, default=4,
                   help="worst-interleave files to detail per report")
    p.add_argument("--no-heatmap", action="store_true",
                   help="omit the ASCII block-map heatmap")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also dump all reports as JSON to PATH")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "bench",
        help="benchmark baseline harness: emit/compare BENCH_<name>.json",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    b = bench_sub.add_parser(
        "run", help="run pinned-configuration baselines and write BENCH files"
    )
    b.add_argument("--out-dir", default=".",
                   help="directory to write BENCH_<name>.json into")
    b.add_argument("--names", default=",".join(bench_baseline.PINNED_RUNNERS),
                   help="comma-separated runner names")
    b.add_argument("--scale", type=_scale, default=bench_baseline.PINNED_SCALE)
    b.add_argument("--seed", type=int, default=bench_baseline.PINNED_SEED)
    b.add_argument("--layouts", action="store_true",
                   help="also write LAYOUT_<name>.txt report/heatmap artifacts")
    _add_jobs(b)
    b.set_defaults(func=cmd_bench_run)
    b = bench_sub.add_parser(
        "compare",
        help="re-run baselines and diff against committed BENCH files "
        "(exit 1 on regression)",
    )
    b.add_argument("--baseline-dir", default=".",
                   help="directory holding the committed BENCH_<name>.json")
    b.add_argument("--current-dir", default=None,
                   help="compare against BENCH files in this directory "
                   "instead of re-running")
    b.add_argument("--names", default=",".join(bench_baseline.PINNED_RUNNERS),
                   help="comma-separated runner names")
    b.add_argument("--scale", type=_scale, default=bench_baseline.PINNED_SCALE)
    b.add_argument("--seed", type=int, default=bench_baseline.PINNED_SEED)
    _add_jobs(b)
    b.set_defaults(func=cmd_bench_compare)

    p = sub.add_parser(
        "microbench", help="one-off shared-file run with a layout map"
    )
    p.add_argument("--policy", default="ondemand",
                   choices=["vanilla", "reservation", "static", "ondemand", "delayed", "cow"])
    p.add_argument("--streams", type=int, default=32)
    p.add_argument("--file-mib", type=int, default=128)
    p.add_argument("--request-kib", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_microbench)

    p = sub.add_parser("trace-synth", help="synthesize an LLNL-style trace file")
    p.add_argument("path")
    p.add_argument("--procs", type=int, default=32)
    p.add_argument("--region-kib", type=int, default=4096)
    p.add_argument("--request-kib", type=int, default=16)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_trace_synth)

    p = sub.add_parser("trace-replay", help="replay a trace under each policy")
    p.add_argument("path")
    p.add_argument("--policies", default="reservation,ondemand")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_trace_replay)

    p = sub.add_parser(
        "defrag", help="fragment a shared file, then defragment it"
    )
    p.add_argument("--streams", type=int, default=32)
    p.add_argument("--file-mib", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_defrag)

    p = sub.add_parser(
        "fsck",
        help="check (and optionally repair) a corrupted crashed image; "
        "--online scrubs incrementally while the service workload runs "
        "(docs/FSCK.md)",
    )
    p.add_argument("--scale", type=_scale, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layout", default="embedded", choices=["embedded", "normal"],
                   help="metadata layout of the crashed image")
    _add_jobs(p)
    p.add_argument("--corrupt", type=_positive_int, default=4, metavar="N",
                   help="faults injected per plane before checking "
                   "(offline), or per live injection round (--online)")
    p.add_argument("--repair", action="store_true",
                   help="apply repairs after the check and re-verify")
    p.add_argument("--online", action="store_true",
                   help="scrub one shard at a time while the service "
                   "workload runs with live corruption, then verify the "
                   "image drained to clean")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("info", help="show the three system profiles")
    p.set_defaults(func=cmd_info)
    return parser


# -- figure printers (result, args) -> exit code -------------------------------

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


def cmd_claims(args) -> int:
    claim = interference_claim(scale=args.scale, seed=args.seed)
    print(
        f"§I interference: fragmented {claim.fragmented_mib_s:.1f} vs contiguous "
        f"{claim.contiguous_mib_s:.1f} MiB/s -> {claim.loss_fraction:.0%} lost "
        f"(paper: >40%)"
    )
    waste = prealloc_waste(seed=args.seed)
    print(
        f"§III.C prealloc waste: 256 KiB static occupies {waste.waste_ratio:.1f}x "
        f"the space of 16 KiB on kernel-tree files"
    )
    return 0


# -- utility commands --------------------------------------------------------------

def cmd_inspect(args) -> int:
    result = run_experiment(args.runner, scale=args.scale, seed=args.seed)
    if not result.layouts:
        print(
            f"{args.runner}: no layout captures (runner does not build a "
            f"DataPlane/MetadataServer)",
            file=sys.stderr,
        )
        return 1
    tags = [t for t in sorted(result.layouts) if not args.tag or args.tag in t]
    if not tags:
        print(
            f"{args.runner}: no capture tag contains {args.tag!r}; "
            f"captures: {sorted(result.layouts)}",
            file=sys.stderr,
        )
        return 1
    print(f"{args.runner} (fingerprint {result.fingerprint}): "
          f"{len(tags)} layout capture(s)")
    for tag in tags:
        report = result.layouts[tag]
        if args.no_heatmap:
            report = dataclasses.replace(report, heatmap="")
        print()
        print(report.format(max_files=args.max_files))
    if args.json:
        doc = {tag: result.layouts[tag].to_dict() for tag in tags}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"\nwrote {len(tags)} report(s) to {args.json}")
    return 0


def cmd_bench_run(args) -> int:
    names = [n.strip() for n in args.names.split(",") if n.strip()]
    os.makedirs(args.out_dir, exist_ok=True)
    for name in names:
        kwargs = {} if args.jobs is None else {"jobs": args.jobs}
        result = run_experiment(name, scale=args.scale, seed=args.seed, **kwargs)
        doc = bench_baseline.render(result, scale=args.scale, seed=args.seed)
        path = os.path.join(args.out_dir, bench_baseline.baseline_filename(name))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bench_baseline.dumps(doc))
        print(f"{name}: wrote {path}")
        if args.layouts and result.layouts:
            lpath = os.path.join(args.out_dir, f"LAYOUT_{name}.txt")
            with open(lpath, "w", encoding="utf-8") as fh:
                for tag in sorted(result.layouts):
                    fh.write(result.layouts[tag].format())
                    fh.write("\n\n")
            print(f"{name}: wrote {lpath}")
    return 0


def cmd_bench_compare(args) -> int:
    names = [n.strip() for n in args.names.split(",") if n.strip()]
    failed = False
    for name in names:
        base_path = os.path.join(
            args.baseline_dir, bench_baseline.baseline_filename(name)
        )
        try:
            baseline = bench_baseline.load(base_path)
        except FileNotFoundError:
            print(f"{name}: FAIL — no committed baseline at {base_path}")
            failed = True
            continue
        if args.current_dir is not None:
            cur_path = os.path.join(
                args.current_dir, bench_baseline.baseline_filename(name)
            )
            current = bench_baseline.load(cur_path)
        else:
            current = bench_baseline.collect(
                name, scale=args.scale, seed=args.seed, jobs=args.jobs
            )
        regressions = bench_baseline.compare(baseline, current)
        if regressions:
            print(f"{name}: FAIL — {bench_baseline.format_regressions(regressions)}")
            failed = True
        else:
            print(f"{name}: ok ({len(bench_baseline.flatten(current))} metrics)")
    return 1 if failed else 0


def cmd_trace(args) -> int:
    from repro.obs import Tracer, format_breakdown, to_chrome, to_jsonl

    tracer = Tracer(capacity=args.capacity)
    result = run_experiment(
        args.runner, scale=args.scale, seed=args.seed, trace=tracer
    )
    events = tracer.events()
    ext = "json" if args.format == "chrome" else "jsonl"
    out = args.out or f"{args.runner}.trace.{ext}"
    if args.format == "chrome":
        to_chrome(events, out)
    else:
        to_jsonl(events, out)
    print(
        f"{args.runner}: {len(events)} events retained "
        f"({tracer.dropped} evicted) -> {out}"
    )
    print()
    print(format_breakdown(events))
    phase_table = Table(
        f"phases ({result.name}, fingerprint {result.fingerprint})",
        ["phase", "elapsed (s)", "MiB/s", "ops/s"],
    )
    for label in sorted(result.phases):
        ph = result.phases[label]
        phase_table.add_row(
            [label, f"{ph.elapsed:.4f}", f"{ph.mib_per_s:.1f}", f"{ph.ops_per_s:.0f}"]
        )
    print()
    phase_table.print()
    shown = False
    for name in ("disk.request_latency_s", "cache.read_latency_s", "mds.op_latency_s"):
        h = result.metrics.histogram(name)
        if h.count == 0:
            continue
        if not shown:
            print()
            print("latency percentiles (simulated seconds):")
            shown = True
        print(
            f"  {name}: n={h.count} p50={h.percentile(50):.2e} "
            f"p90={h.percentile(90):.2e} p99={h.percentile(99):.2e} "
            f"max={h.maximum:.2e}"
        )
    return 0


def cmd_microbench(args) -> int:
    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=5), args.policy)
    plane = DataPlane(cfg)
    file_bytes = args.file_mib * MiB
    file_bytes -= file_bytes % args.streams
    bench = SharedFileMicrobench(
        nstreams=args.streams,
        file_bytes=file_bytes,
        write_request_bytes=args.request_kib * KiB,
        seed=args.seed,
    )
    f = bench.create_shared_file(plane)
    write = bench.phase1_write(plane, f)
    plane.close_file(f)
    read = bench.phase2_read(plane, f)
    print(f"policy={args.policy} streams={args.streams} file={args.file_mib} MiB")
    print(f"write {write.mib_per_s:.1f} MiB/s   read-back {read.mib_per_s:.1f} MiB/s")
    print(f"\nPAG 0 layout (letters = logical file regions):")
    print(layout_map(plane, f, slot=0))
    print(f"\n{extent_histogram(f)}")
    print(f"\n{utilization_bars(plane)}")
    return 0


def cmd_trace_synth(args) -> int:
    records = synth_checkpoint_trace(
        args.procs,
        args.region_kib * KiB,
        args.request_kib * KiB,
        jitter=args.jitter,
        seed=args.seed,
    )
    save_trace(records, args.path)
    print(f"wrote {len(records)} records to {args.path}")
    return 0


def cmd_trace_replay(args) -> int:
    records = read_trace(args.path)
    total = sum(r.nbytes for r in records)
    print(f"replaying {len(records)} records ({total // MiB} MiB) ...")
    for policy in args.policies.split(","):
        cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=5), policy.strip())
        plane = DataPlane(cfg)
        f = plane.create_file("/trace.dat", expected_bytes=total)
        result = replay(plane, f, records, seed=args.seed)
        print(
            f"  {policy.strip():12s} {result.mib_per_s:8.1f} MiB/s, "
            f"{f.extent_count} extents"
        )
    return 0


def cmd_defrag(args) -> int:
    from repro.fs.defrag import defragment

    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=5), "reservation")
    plane = DataPlane(cfg)
    file_bytes = args.file_mib * MiB - (args.file_mib * MiB) % args.streams
    bench = SharedFileMicrobench(
        nstreams=args.streams, file_bytes=file_bytes,
        write_request_bytes=16 * KiB, seed=args.seed,
    )
    f = bench.create_shared_file(plane)
    bench.phase1_write(plane, f)
    plane.close_file(f)
    before = bench.phase2_read(plane, f)
    print(f"before: {before.mib_per_s:.1f} MiB/s read-back, {f.extent_count} extents")
    print(layout_map(plane, f, slot=0))
    plane.array.reset_timelines()
    result = defragment(plane, f)
    print(
        f"defrag: moved {result.blocks_moved} blocks in {result.elapsed_s:.2f} s "
        f"(simulated), {result.extents_before} -> {result.extents_after} extents"
    )
    after = bench.phase2_read(plane, f)
    print(f"after:  {after.mib_per_s:.1f} MiB/s read-back, {f.extent_count} extents")
    print(layout_map(plane, f, slot=0))
    return 0


def cmd_fsck(args) -> int:
    from repro.fault import build_crashed_image
    from repro.fs.verify import (
        check_dataplane,
        check_mds,
        repair_dataplane,
        repair_mds,
        shard_work,
    )

    if args.online:
        result = run_experiment(
            "service",
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            telemetry=True,
            scrub=True,
            scrub_corrupt=5,
            scrub_faults=args.corrupt,
        )
        cell = result.payload.cells[0]
        scrub = cell.scrub
        print(f"online scrub over {cell.duration_s:g} s of service load "
              f"({cell.arrivals} arrivals):")
        print(f"  steps: {scrub.steps} ({scrub.cycles} full rotation(s), "
              f"{scrub.drain_cycles} drain cycle(s))")
        print(f"  injected live: {len(scrub.injected)} fault(s) "
              f"({args.corrupt} per round)")
        print(f"  findings: {scrub.findings}, repairs applied: {scrub.repairs}")
        windows = sum(
            1 for fr in cell.telemetry.frames
            if any(k.startswith("scrub.") for k in fr.counters)
        )
        print(f"  telemetry: scrub counters in {windows} of "
              f"{len(cell.telemetry.frames)} window(s)")
        state = "clean" if scrub.clean_after else "STILL DIRTY"
        print(f"  final full check: {state}")
        return 0 if scrub.clean_after else 1

    img = build_crashed_image(
        scale=args.scale, seed=args.seed, layout=args.layout,
        data_faults=args.corrupt, meta_faults=args.corrupt,
    )
    data_shards, meta_shards = shard_work(img.plane, img.mds)
    print(f"crashed image: {img.nfiles} file(s) / {img.extents} extent(s) on "
          f"the data plane, {img.inodes} inode(s) in {img.ndirs} "
          f"{args.layout} dir(s); {len(img.injected)} fault(s) injected")
    print(f"shards: {len(data_shards)} data (per PAG) + "
          f"{len(meta_shards)} metadata")
    if args.repair:
        repair = repair_dataplane(img.plane, jobs=args.jobs).merge(
            repair_mds(img.mds, jobs=args.jobs)
        )
        _print_repair("fsck", repair)
        return 0 if repair.converged else 1
    report = check_dataplane(img.plane, strict_accounting=False, jobs=args.jobs)
    report = report.merge(check_mds(img.mds, jobs=args.jobs))
    print(f"checked {report.checked_extents} extent(s), "
          f"{report.checked_inodes} inode(s)")
    for f in report.findings:
        print(f"  ! [{f.code}] {f.message}")
    print("clean" if report.clean else f"{len(report.findings)} finding(s) "
          "(re-run with --repair to fix)")
    return 0 if report.clean else 1


def _print_repair(label: str, repair) -> None:
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


def print_faults(run_result, args) -> int:
    result = run_result.payload
    print(f"fault campaign (seed={result.seed})")
    print(
        f"  injected: {result.injected_lse} latent sector error(s), "
        f"{result.injected_torn} torn write(s), "
        f"{result.injected_crashes} crash(es), "
        f"{len(result.corruptions)} structural corruption(s)"
    )
    if result.crash_after_requests is not None:
        print(
            f"  crash point: after {result.crash_after_requests} MDS disk "
            f"request(s); journal replayed {result.replayed_records} "
            f"record(s), discarded {result.discarded_records} uncommitted"
        )
    print(f"  scrub: {result.scrub_healed} sector(s) healed by rewrite")
    if result.corruptions:
        print(f"  corruptions: {', '.join(result.corruptions)}")
    print()
    _print_repair("data plane", result.plane_repair)
    print()
    _print_repair("metadata", result.mds_repair)
    return 0 if result.clean_after else 1


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


#: Every runner-backed subcommand, declaratively.  ``build_parser`` wires
#: these in a loop; ``--jobs`` attaches itself by inspecting the registered
#: runner's signature.
RUNNER_COMMANDS: tuple[RunnerCommand, ...] = (
    RunnerCommand(
        "fig6a", "Fig 6(a): throughput vs stream count", print_fig6a,
        run_kwargs={"stream_counts": (32, 48, 64)},
    ),
    RunnerCommand("fig6b", "Fig 6(b): throughput vs request size", print_fig6b),
    RunnerCommand("fig7", "Fig 7: IOR2/BTIO macro benchmarks", print_fig7),
    RunnerCommand("table1", "Table I: extents and MDS CPU", print_table1),
    RunnerCommand(
        "fig8", "Fig 8: Metarates metadata benchmark", print_fig8,
        default_scale=0.2,
    ),
    RunnerCommand(
        "fig9", "Fig 9: file system aging", print_fig9, default_scale=0.5,
        run_kwargs={"utilizations": (0.0, 0.4, 0.8)},
    ),
    RunnerCommand(
        "fig10", "Fig 10: PostMark and applications", print_fig10,
        default_scale=0.5,
    ),
    RunnerCommand(
        "fig_listio",
        "list I/O: strided/tile access, scalar loop vs readv/writev "
        "(docs/LISTIO.md)",
        print_fig_listio,
    ),
    RunnerCommand(
        "fig_cache",
        "cache pressure: legacy LRU vs the adaptive tiered cache "
        "(per-stream readahead, SLRU tiers, directory prefetch; "
        "docs/CACHE.md)",
        print_fig_cache,
    ),
    RunnerCommand(
        "faults",
        "seeded fault campaign: crash/recover the MDS, scrub latent "
        "sector errors, corrupt both planes and fsck-repair to clean",
        print_faults,
    ),
    RunnerCommand(
        "fig_fsck",
        "parallel fsck: crashed-image check/repair sweep, modeled shard "
        "makespan vs worker count (docs/FSCK.md)",
        print_fig_fsck,
    ),
    RunnerCommand(
        "service",
        "open-loop service mode: arrival-driven load, latency percentiles "
        "(docs/SERVICE.md)",
        print_service,
        options=(
            CliOption(("--streams",), "streams", dict(
                type=_positive_int, default=1000,
                help="number of client streams (default 1000)")),
            CliOption(("--rate",), "rate", dict(
                type=_rate_or_name, default="small",
                help="per-stream ops/s: small|medium|large or a number")),
            CliOption(("--duration",), "duration", dict(
                type=_rate_or_name, default="short",
                help="arrival window: short|long or seconds (x scale)")),
            CliOption(("--queue-depth",), "queue_depth", dict(
                type=_positive_int, default=64,
                help="bounded station queue depth (arrivals beyond it drop)")),
            CliOption(("--rates",), "rates", dict(
                type=_rate_list, default=None, metavar="R1,R2,...",
                help="sweep several rates as independent cells")),
            CliOption(("--telemetry",), "telemetry", dict(
                nargs="?", const=True, default=False, type=float,
                metavar="WINDOW_S",
                help="collect per-window time-series telemetry; optional "
                "window width in simulated seconds (default: duration/50)")),
            CliOption(("--slo",), "slo", dict(
                nargs="?", const="default", default=None, metavar="SPECS",
                help="evaluate SLO objectives (implies --telemetry): "
                "comma-separated SERIES:pP<=THRESHOLD[:wS][:bF] specs, "
                "or no value for the defaults; a fail verdict exits 1")),
            CliOption(("--sample",), "sample", dict(
                default=None, metavar="1/N",
                help="trace every Nth stream end-to-end (sampled tracing "
                "bounds trace volume at any stream count)")),
            CliOption(("--cache-profile",), "cache_profile", dict(
                choices=["legacy", "adaptive"], default="legacy",
                help="MDS buffer-cache profile: legacy flat LRU or the "
                "adaptive tiered cache (docs/CACHE.md); per-tier hit/miss "
                "and prefetch-accuracy series appear under --telemetry")),
            CliOption(("--scrub",), "scrub", dict(
                nargs="?", const=True, default=False, type=float,
                metavar="INTERVAL_S",
                help="run the incremental scrubber alongside the workload, "
                "one shard per tick; optional tick interval in simulated "
                "seconds (default: duration/50; docs/FSCK.md)")),
            CliOption(("--scrub-corrupt",), "scrub_corrupt", dict(
                type=int, default=0, metavar="N",
                help="with --scrub: inject live corruption every N scrub "
                "ticks (0 = none)")),
            CliOption(("--scrub-faults",), "scrub_faults", dict(
                type=_positive_int, default=1, metavar="N",
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


def cmd_info(args) -> int:
    table = Table(
        "System profiles (§V.A-B)",
        ["profile", "preallocation", "directory layout", "htree"],
    )
    for cfg in (redbud_vanilla_profile(), lustre_profile(), redbud_mif_profile()):
        table.add_row(
            [cfg.name, cfg.alloc.policy, cfg.meta.layout, cfg.meta.htree_index]
        )
    table.print()
    print()
    print("registered runners (inspect/bench/trace targets):")
    print("  " + " ".join(runner_names()))
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI entry
    sys.exit(main())
