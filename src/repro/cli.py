"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables and figures, trace or inspect one
run, write the pinned ``BENCH_<name>.json`` baselines and check a crashed
image.  Everything is simulated — no disks are touched.

Runner-backed subcommands are **registry-driven**: each is one declarative
:class:`~repro.core.run.RunnerCommand` row (name, help, default scale, extra
options, printer) declared beside its runner under
:mod:`repro.core.runners`, and the parser wires them up in a loop.  Shared
options follow the runner's actual signature — every entry gets
``--scale``/``--seed``, and ``--jobs`` appears automatically when the
registered runner accepts ``jobs``.  ``--list`` walks the same runner
registry.  This module holds that loop and the utility commands.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys

from repro import __version__
from repro.bench import baseline as bench_baseline
from repro.core import sweep
from repro.core.run import RUNNERS, RunnerCommand, positive_float, positive_int, runner_names
from repro.core.run import run as run_experiment
from repro.core.runners import RUNNER_COMMANDS
from repro.core.runners.fsck import print_repair, shard_work
from repro.fs.profiles import lustre_profile, redbud_mif_profile, redbud_vanilla_profile
from repro.sim.report import Table


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


#: Named scales accepted wherever --scale takes a value ("smoke" is the
#: pinned baseline configuration; see repro.bench.baseline).
NAMED_SCALES = {"smoke": 0.05}


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--jobs`` option for parallel-sweep runners."""
    parser.add_argument(
        "--jobs", type=positive_int, default=None, metavar="N",
        help="worker processes for independent sweep cells (default: "
        f"${sweep.JOBS_ENV} or 1); results are identical at any value",
    )


def _scale(text: str) -> float:
    if text in NAMED_SCALES:
        return NAMED_SCALES[text]
    try:
        return positive_float(text)
    except ValueError:
        names = ", ".join(sorted(NAMED_SCALES))
        raise argparse.ArgumentTypeError(
            f"must be a float or one of: {names}"
        ) from None


def _runner_list(text: str) -> list[str]:
    """``argparse`` type: a comma-separated list of registered runners,
    each named once (two runs of one runner would write one file twice)."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"needs at least one runner: {text!r}")
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown runner(s) {', '.join(unknown)}; "
            f"choose from: {', '.join(runner_names())}"
        )
    twice = sorted({n for n in names if names.count(n) > 1})
    if twice:
        raise argparse.ArgumentTypeError(f"duplicate runner(s): {', '.join(twice)}")
    return names


# -- declarative runner-backed subcommands ------------------------------------

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
        params = inspect.signature(RUNNERS[spec.name]).parameters
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
    p.add_argument("--capacity", type=positive_int, default=262144,
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
    p.add_argument("--max-files", type=positive_int, default=4,
                   help="worst-interleave files to detail per report")
    p.add_argument("--no-heatmap", action="store_true",
                   help="omit the ASCII block-map heatmap")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also dump all reports as JSON to PATH")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "bench",
        help="benchmark baseline harness: write BENCH_<name>.json",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    b = bench_sub.add_parser(
        "run", help="run pinned-configuration baselines and write BENCH files"
    )
    b.add_argument("--out-dir", default=".",
                   help="directory to write BENCH_<name>.json into")
    b.add_argument("--names", type=_runner_list,
                   default=",".join(bench_baseline.PINNED_RUNNERS),
                   help="comma-separated runner names")
    b.add_argument("--scale", type=_scale, default=bench_baseline.PINNED_SCALE)
    b.add_argument("--seed", type=int, default=bench_baseline.PINNED_SEED)
    _add_jobs(b)
    b.set_defaults(func=cmd_bench_run)

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
    p.add_argument("--corrupt", type=positive_int, default=4, metavar="N",
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

# -- utility commands --------------------------------------------------------------

def cmd_inspect(args) -> int:
    result = run_experiment(args.runner, scale=args.scale, seed=args.seed)
    if not result.layouts:
        print(
            f"{args.runner}: no layout captures (runner captured no layout)",
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
    os.makedirs(args.out_dir, exist_ok=True)
    for name in args.names:
        kwargs = {} if args.jobs is None else {"jobs": args.jobs}
        result = run_experiment(name, scale=args.scale, seed=args.seed, **kwargs)
        doc = bench_baseline.render(result, scale=args.scale, seed=args.seed)
        path = os.path.join(args.out_dir, bench_baseline.baseline_filename(name))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bench_baseline.dumps(doc))
        print(f"{name}: wrote {path}")
    return 0


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


def cmd_fsck(args) -> int:
    from repro.fault import build_crashed_image
    from repro.fs.verify import (
        check_dataplane,
        check_mds,
        repair_dataplane,
        repair_mds,
    )

    if args.online:
        result = run_experiment(
            "service",
            scale=args.scale,
            seed=args.seed,
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
        repair = repair_dataplane(img.plane).merge(repair_mds(img.mds))
        print_repair("fsck", repair)
        return 0 if repair.converged else 1
    report = check_dataplane(img.plane, strict_accounting=False)
    report = report.merge(check_mds(img.mds))
    print(f"checked {report.checked_extents} extent(s), "
          f"{report.checked_inodes} inode(s)")
    for f in report.findings:
        print(f"  ! [{f.code}] {f.message}")
    print("clean" if report.clean else f"{len(report.findings)} finding(s) "
          "(re-run with --repair to fix)")
    return 0 if report.clean else 1


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
