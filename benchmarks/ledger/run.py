"""Host-time ledger: wall clock, throughput and memory of the simulator.

    python3 benchmarks/ledger/run.py [--seed N] [--workload NAME] [--spans] [--out FILE]

runs every workload of ``BENCHMARK.json`` (or the named one), checks its
outputs and prints every metric by name with its unit.  This process only
orchestrates: each workload runs in a child of its own (``child.py``), one
after the other, with ``PYTHONHASHSEED=0``, ``REPRO_JOBS`` unset and
``jobs=1`` — the child being timed is the only load on the box.

Other modes:

    --trace 0|1   benchmark-driver contract: one workload, one pass, and a
                  last stdout line ``{"correct", "attempted", "failed",
                  "metrics"}`` holding the end-to-end (0) or per-layer (1)
                  metrics
    --selftest    every workload at smoke size on seeds 0 and 1, with the
                  span pass; verifies the names emitted against BENCHMARK.json
    --md FILE     render the "which layer owns the wall clock" table from a
                  result file written by --out
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-up is measured this many times per run (fresh processes, so each pays
#: the import and a cold warm-up) and reported as the median.
SETUP_REPEATS = 2
#: A child that has not finished by now is hung; the driver allows 180 s.
CHILD_TIMEOUT_S = 170
#: How a run summarises each end-to-end metric's samples.  Timings are already
#: in yardstick-normalised seconds (see ``yardstick.py``), sample by sample,
#: so the slow spells of a shared box cancel and the median is steady; the
#: fastest sample, steadier than the median on raw seconds, is not once the
#: yardstick's own noise is in every sample.  Set-up has one sample per fresh
#: process.
SUMMARY = {
    "host_s": statistics.median,
    "sim_ops_per_s": statistics.median,
    "peak_rss_mib": max,
    "setup_s": statistics.median,
    "failed_share": max,
}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
LIMITS = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}


class LedgerError(RuntimeError):
    """A child failed, or the result does not match BENCHMARK.json."""


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, *flags: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("REPRO_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), *flags,
    ]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise LedgerError(f"child exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def end_to_end(workload: str, seed: int, size_flags: tuple[str, ...]) -> dict:
    """The untraced pass: SETUP_REPEATS set-ups, one of which goes on to
    take the timed samples."""
    setups = [
        run_child(workload, seed, "--setup-only", *size_flags)["setup_s"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    child = run_child(workload, seed, *size_flags)
    return end_to_end_result(child, setups + [child["setup_s"]])


def end_to_end_result(child: dict, setups: list[float]) -> dict:
    host = child["host_s"]
    samples = {
        "host_s": host,
        "sim_ops_per_s": [child["ops"] / h for h in host],
        "peak_rss_mib": [child["peak_rss_mib"]],
        "setup_s": setups,
        "failed_share": [child["failed"] / child["attempted"]],
    }
    return {
        "sim_digest": child["sim_digest"],
        "ops": child["ops"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "failed_checks": child["failed_checks"],
        # What the clock read before the yardstick was divided out.
        "raw": {
            "host_s": child["host_raw_s"],
            "yard_s": child["yard_s"],
            "setup_s": child["setup_raw_s"],
        },
        "end_to_end": {
            name: {"value": SUMMARY[name](values), "samples": values}
            for name, values in samples.items()
        },
    }


def per_layer_result(child: dict) -> dict:
    """From a ``--spans`` child: per-layer self time and calls, exact
    counters, and the harness's own indicators."""
    sp = child["spans"]
    host = child["host_s"]
    span_wall = sp["sample_wall_s"]  # the layers are those of this sample
    values: dict[str, float] = {}
    for layer, row in sp["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    values.update(sp["counters"])
    q1, q3 = quartiles(host)
    values.update({
        "harness.span_overhead_ratio": span_wall / statistics.median(host),
        "harness.wall_over_cpu": sum(child["host_raw_s"]) / sum(child["cpu_s"]),
        "harness.host_s_iqr": q3 - q1,
        "harness.samples": len(host),
    })
    covered = sum(row["self_s"] for row in sp["layers"].values())
    unbalanced = (
        ["layer_self_times_sum_to_span_wall"]
        if abs(covered - span_wall) > 0.01 * span_wall else []
    )
    return {
        "sim_digest": child["sim_digest"],
        "attempted": child["attempted"] + 1,
        "failed": child["failed"] + len(unbalanced),
        "failed_checks": child["failed_checks"] + unbalanced,
        "span_wall_s": span_wall,
        "span_samples": len(sp["wall_s"]),
        "per_layer": {name: {"value": v} for name, v in values.items()},
        "setup_layers": sp["setup_layers"],
    }


def merge(first: dict, second: dict) -> dict:
    """Both passes' results in one record; check counts add up."""
    out = {**first, **second}
    for key in ("attempted", "failed", "failed_checks"):
        out[key] = first[key] + second[key]
    return out


def attach_units(result: dict, spec: dict) -> None:
    """Units live in BENCHMARK.json only; a name it does not list is an
    error, except ``failed_share``, which travels as failed/attempted."""
    for section in ("end_to_end", "per_layer"):
        units = {m["name"]: m["unit"] for m in spec[section]}
        units.setdefault("failed_share", "ratio")
        for name, metric in result.get(section, {}).items():
            if name not in units:
                raise LedgerError(f"{section} metric {name!r} is not in BENCHMARK.json")
            metric["unit"] = units[name]


def show(workload: str, result: dict) -> None:
    for section in ("end_to_end", "per_layer"):
        for name, metric in result.get(section, {}).items():
            note = ""
            samples = metric.get("samples", ())
            if len(samples) > 1:
                q1, q3 = quartiles(samples)
                note = (
                    f"  ({SUMMARY[name].__name__} of n={len(samples)}; "
                    f"median {statistics.median(samples):.6g}, iqr {q3 - q1:.6g})"
                )
            print(f"{workload:18s} {name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    print(
        f"{workload:18s} sim_digest={result['sim_digest']} "
        f"checks={result['attempted']} failed={result['failed']}"
        + (f" {result['failed_checks']}" if result["failed_checks"] else "")
    )


def driver_line(result: dict, section: str, spec: dict) -> str:
    names = [m["name"] for m in spec[section]]
    missing = [n for n in names if n not in result[section]]
    if missing:
        raise LedgerError(f"{section} metrics not measured: {missing}")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": result[section][n]["value"], "unit": result[section][n]["unit"]}
            for n in names
        },
    })


def render_md(doc: dict) -> str:
    """Markdown table: share of the span pass's wall clock per layer."""
    names = [w for w, r in doc["workloads"].items() if "per_layer" in r]
    if not names:
        raise LedgerError("result file has no span pass; re-run with --spans")
    layers = [
        n[: -len(".self_s")]
        for n in doc["workloads"][names[0]]["per_layer"] if n.endswith(".self_s")
    ]
    lines = [
        "| layer | " + " | ".join(names) + " |",
        "|:--|" + "--:|" * len(names),
    ]
    walls = {w: doc["workloads"][w]["span_wall_s"] for w in names}
    for layer in layers:
        cells = []
        for w in names:
            share = doc["workloads"][w]["per_layer"][f"{layer}.self_s"]["value"] / walls[w]
            cells.append(f"{100 * share:.1f}%" if share >= 0.0005 else "-")
        lines.append(f"| `{layer}` | " + " | ".join(cells) + " |")
    lines.append(
        "| **span-pass wall / sample** | "
        + " | ".join(f"{walls[w]:.3f} s" for w in names) + " |"
    )
    lines.append(
        "| **untraced `host_s`** | "
        + " | ".join(
            f"{doc['workloads'][w]['end_to_end']['host_s']['value']:.3f} s" for w in names
        ) + " |"
    )
    return "\n".join(lines)


def selftest(spec: dict) -> int:
    """Smoke-size run of everything; returns the number of problems."""
    problems: list[str] = []
    for section, (lo, hi) in LIMITS.items():
        if not lo <= len(spec[section]) <= hi:
            problems.append(f"{len(spec[section])} {section} outside {lo}..{hi}")
    names = [m["name"] for s in LIMITS for m in spec[s]]
    problems += [f"bad name {n!r}" for n in names if not NAME_RE.fullmatch(n)]
    problems += [f"name used twice: {n}" for n in set(names) if names.count(n) > 1]
    want = {s: {m["name"] for m in spec[s]} for s in ("end_to_end", "per_layer")}
    smoke = ("--size", "smoke", "--samples", "1")
    for seed in (0, 1):
        for w in (m["name"] for m in spec["workloads"]):
            # One --spans child measures everything both passes report.
            child = run_child(w, seed, "--spans", *smoke)
            result = {
                **end_to_end_result(child, [child["setup_s"]]),
                **per_layer_result(child),
            }
            attach_units(result, spec)
            for section, wanted in want.items():
                got = set(result[section]) - {"failed_share"}
                if got != wanted:
                    problems.append(
                        f"{w} seed {seed} {section}: missing {sorted(wanted - got)}, "
                        f"extra {sorted(got - wanted)}"
                    )
            if result["failed"]:
                problems.append(f"{w} seed {seed}: failed {result['failed_checks']}")
            print(f"selftest {w} seed {seed}: {result['attempted']} checks", flush=True)
    for p in problems:
        print(f"SELFTEST PROBLEM: {p}")
    print(f"selftest: {len(problems)} problems")
    return len(problems)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run only this workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measuring time per pass (default: run_seconds)")
    ap.add_argument("--spans", action="store_true", help="add the per-layer span pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), help="driver mode (see above)")
    ap.add_argument("--out", help="write the full result as JSON")
    ap.add_argument("--md", metavar="FILE", help="render the layer table of a result file")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if args.md:
        print(render_md(load_json(args.md)))
        return 0
    spec = load_json(SPEC_PATH)
    if args.selftest:
        return 1 if selftest(spec) else 0

    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        ap.error(f"unknown workload {args.workload!r}; choose from {known}")
    if args.trace is not None and args.workload is None:
        ap.error("--trace needs --workload")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    flags = ("--seconds", str(seconds))
    doc = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for w in [args.workload] if args.workload else known:
        if args.trace == 1:
            result = per_layer_result(run_child(w, args.seed, "--spans", *flags))
        else:
            result = end_to_end(w, args.seed, flags)
            if args.spans:
                result = merge(
                    result, per_layer_result(run_child(w, args.seed, "--spans", *flags))
                )
        attach_units(result, spec)
        show(w, result)
        doc["workloads"][w] = result
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    failed = sum(r["failed"] for r in doc["workloads"].values())
    if args.trace is not None:
        section = "per_layer" if args.trace else "end_to_end"
        print(driver_line(doc["workloads"][args.workload], section, spec))
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except LedgerError as exc:
        sys.exit(f"ledger: {exc}")
