"""Compare two ledger result files against the bounds in BENCHMARK.json.

    python3 benchmarks/ledger/compare.py A.json B.json

A is the base (the parent commit, or the first of two runs of one commit),
B the candidate; both are files written by ``run.py --out``.  One row per
(workload, end-to-end metric): both values, the ratio B/A, how much worse B
is as a share of A, the bound, and a verdict:

    ok          B is not worse than A by more than the bound
    unresolved  the bound is exceeded but the two interquartile ranges
                overlap, so the runs cannot tell the difference from noise
    REGRESSION  the bound is exceeded and the ranges are disjoint

Exit status is 1 on any REGRESSION or any increase of ``failed_share``,
else 0.  ``sim_digest`` and the exact per-layer counters are compared too
and reported, not gated: a fidelity change may move them, a speed-only
change must not.
"""

from __future__ import annotations

import sys

from run import SPEC_PATH, load_json, quartiles

#: Per-layer metrics that are measurements, not exact counters.
MEASURED_SUFFIXES = (".self_s",)
MEASURED_PREFIXES = ("harness.",)


def verdict(a: dict, b: dict, better: str, bound: float):
    """``(worse-by share of A, verdict)`` for one metric of two runs."""
    va, vb = a["value"], b["value"]
    worse = (vb - va) / va if better == "lower" else (va - vb) / va
    if worse <= bound:
        return worse, "ok"
    (a1, a3), (b1, b3) = quartiles(a["samples"]), quartiles(b["samples"])
    overlap = a1 <= b3 and b1 <= a3
    return worse, "unresolved" if overlap else "REGRESSION"


def exact_counters(result: dict) -> dict[str, float]:
    return {
        name: m["value"]
        for name, m in result.get("per_layer", {}).items()
        if not name.endswith(MEASURED_SUFFIXES) and not name.startswith(MEASURED_PREFIXES)
    }


def compare(a: dict, b: dict, spec: dict) -> int:
    """Print the table; returns the number of gate failures."""
    failures = 0
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); digests and counters will too")
    print(
        f"{'workload':18s} {'metric':14s} {'A':>12s} {'B':>12s} "
        f"{'B/A':>7s} {'worse by':>9s} {'bound':>6s}  verdict"
    )
    for w in (m["name"] for m in spec["workloads"]):
        if w not in a["workloads"] or w not in b["workloads"]:
            print(f"{w:18s} missing from {'A' if w not in a['workloads'] else 'B'}")
            failures += 1
            continue
        ra, rb = a["workloads"][w], b["workloads"][w]
        for m in spec["end_to_end"]:
            name = m["name"]
            ma, mb = ra["end_to_end"][name], rb["end_to_end"][name]
            worse, word = verdict(ma, mb, m["better"], m["bound"])
            ma, mb = ma["value"], mb["value"]
            failures += word == "REGRESSION"
            print(
                f"{w:18s} {name:14s} {ma:12.6g} {mb:12.6g} {mb / ma:7.3f} "
                f"{100 * worse:+8.1f}% {100 * m['bound']:5.0f}%  {word}"
                f"  (base A = {ma:.6g} {m['unit']})"
            )
        fa = ra["end_to_end"]["failed_share"]["value"]
        fb = rb["end_to_end"]["failed_share"]["value"]
        word = "ok" if fb <= fa else "REGRESSION"
        failures += word == "REGRESSION"
        print(f"{w:18s} {'failed_share':14s} {fa:12.6g} {fb:12.6g} {'':7s} {'':9s} {0:5.0f}%  {word}")
        same = ra["sim_digest"] == rb["sim_digest"]
        print(f"{w:18s} sim_digest {'identical' if same else 'DIFFERS'} ({ra['sim_digest']} / {rb['sim_digest']})")
        ca, cb = exact_counters(ra), exact_counters(rb)
        if ca and cb:
            moved = sorted(n for n in ca if ca[n] != cb.get(n))
            print(f"{w:18s} exact counters {'identical' if not moved else 'DIFFER: ' + ', '.join(moved)}")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    failures = compare(load_json(argv[0]), load_json(argv[1]), load_json(SPEC_PATH))
    print(f"{failures} gate failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
