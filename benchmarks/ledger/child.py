"""One workload in one process: set up, sample, check, print raw measurements.

``run.py`` starts this file once per (workload, pass) and reads the single
JSON line it prints last.  Everything here is sequential and in-process —
no pools, ``jobs=1`` — so the only load on the box is the sample being timed.

Order of work: import the simulator, build fixtures, run one untimed
full-size warm-up sample (all of that is ``setup_s``), then timed samples
until the time budget is spent.  The yardstick (``yardstick.py``) runs
right after set-up and between every two samples, so each timing can be
divided by the speed the box had at that moment.  With ``--spans`` the
budget is split: a third goes to plain samples (the base of
``harness.span_overhead_ratio``), then the span wrappers are installed,
set-up is replayed under them (the ``setup_layers`` split) and the rest of
the budget goes to spanned samples.
"""

from time import perf_counter, process_time

# Child start.  Taken before the simulator is imported so ``setup_s`` pays
# for the import, as a user starting the program does.
T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import yardstick  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fewest timed samples per pass, however slow the box.
MIN_SAMPLES = 3
#: Yardstick passes timed right after set-up; their median normalises ``setup_s``.
SETUP_YARDS = 5
#: Yardstick time between two samples, as a share of one sample's time.  The
#: ratio sample/yardstick is steadiest when both get about the same time.
YARD_SHARE = 0.4
ARRAY_PATH = "repro.disk.disk:SimulatedDisk.submit_arrays"
OBJECT_PATH = "repro.disk.disk:SimulatedDisk.submit_batch"


class Checker:
    """Counts output checks; remembers which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []
        self._first = None

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def sample(self, outcome) -> None:
        """One sample's own checks, plus: the simulated document and the
        exact counters are the same as the first sample's."""
        for name, ok in outcome.checks.items():
            self.expect(name, ok)
        if self._first is None:
            self._first = outcome
        self.expect("sim_digest_repeats", outcome.digest == self._first.digest)
        self.expect("counters_repeat", outcome.counters == self._first.counters)


def take_sample(wl, fixture):
    """``(wall seconds, cpu seconds, outcome)`` of one timed call."""
    state = wl.restore(fixture)
    gc.collect()
    c0 = process_time()
    t0 = perf_counter()
    result = wl.timed(state)
    wall = perf_counter() - t0
    cpu = process_time() - c0
    return wall, cpu, wl.outcome(fixture, result)


def take_yard(reps: int) -> float:
    """Mean seconds of ``reps`` yardstick passes, run now."""
    return sum(yardstick.run() for _ in range(reps)) / reps


def sample_until(budget_s: float, count: int | None, one) -> list:
    """Results of calling ``one()`` ``count`` times, or until another call
    would overrun ``budget_s`` (never fewer than :data:`MIN_SAMPLES`)."""
    start = perf_counter()
    results = []
    while True:
        results.append(one())
        if count is not None:
            if len(results) >= count:
                return results
        elif len(results) >= MIN_SAMPLES:
            spent = perf_counter() - start
            if spent + spent / len(results) > budget_s:
                return results


def plain_pass(wl, fixture, checker, budget_s, count, reps):
    """``(wall seconds, cpu seconds, yardstick seconds, last outcome)`` of
    the plain samples.  There is one more yardstick reading than samples:
    sample ``i`` ran between readings ``i`` and ``i + 1``."""
    yards = [take_yard(reps)]

    def one():
        wall, cpu, outcome = take_sample(wl, fixture)
        yards.append(take_yard(reps))
        checker.sample(outcome)
        return wall, cpu, outcome

    walls, cpus, outcomes = zip(*sample_until(budget_s, count, one))
    return list(walls), list(cpus), yards, outcomes[-1]


def layer_split(rec, wall_s: float, checker) -> dict:
    """Per-layer ``{self_s, calls}`` of the spans recorded since the last
    reset; ``core`` also takes the wall clock no span covered."""
    for problem in rec.check():
        checker.expect(f"span_accounting: {problem}", False)
    wall_ns = round(wall_s * 1e9)
    checker.expect("spans_within_wall", rec.root_ns[0] <= wall_ns)
    layers = {
        layer: {"self_s": ns / 1e9, "calls": calls}
        for layer, (ns, calls) in rec.by_layer().items()
    }
    layers["core"]["self_s"] += (wall_ns - rec.root_ns[0]) / 1e9
    return layers


def span_pass(wl, size, seed, fixture, checker, budget_s, count, reps):
    """Install the wrappers, replay set-up under them, take spanned samples."""
    for problem in spans.self_check():
        checker.expect(f"span_self_check: {problem}", False)
    rec = spans.Recorder()
    rec.install()

    t0 = perf_counter()
    take_sample(wl, wl.setup(seed, size))
    setup_layers = layer_split(rec, perf_counter() - t0, checker)

    first: list = []
    yards = [take_yard(reps)]

    def one():
        state = wl.restore(fixture)
        gc.collect()
        rec.reset()
        t0 = perf_counter()
        result = wl.timed(state)
        wall = perf_counter() - t0
        layers = layer_split(rec, wall, checker)
        yards.append(take_yard(reps))
        outcome = wl.outcome(fixture, result)
        checker.sample(outcome)
        calls = {layer: row["calls"] for layer, row in layers.items()}
        counters = dict(
            outcome.counters,
            **{
                "disk.array.array_path_calls": rec.entry_calls(ARRAY_PATH),
                "disk.array.object_path_calls": rec.entry_calls(OBJECT_PATH),
            },
        )
        first.append((calls, counters))
        checker.expect("span_calls_repeat", calls == first[0][0])
        checker.expect("path_calls_repeat", counters == first[0][1])
        return wall, layers, counters

    samples = sample_until(budget_s, count, one)
    walls = yardstick.normalise([wall for wall, _, _ in samples], yards)
    # The split of the median sample, like host_s, in the same normalised
    # seconds: every row is scaled by what the yardstick read around it.
    mid = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    raw_wall, layers, counters = samples[mid]
    for row in layers.values():
        row["self_s"] *= walls[mid] / raw_wall
    return {
        "wall_s": walls,
        "sample_wall_s": walls[mid],
        "layers": layers,
        "counters": counters,
        "setup_layers": setup_layers,
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--samples", type=int, help="exact samples per pass, ignoring --seconds")
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--spans", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    checker = Checker()
    fixture = wl.setup(args.seed, args.size)
    warm_wall, _, warm = take_sample(wl, fixture)
    checker.sample(warm)
    setup_raw_s = perf_counter() - T0
    setup_yard_s = statistics.median(yardstick.run() for _ in range(SETUP_YARDS))
    out = {
        "workload": wl.name, "seed": args.seed, "size": args.size,
        "setup_s": setup_raw_s * yardstick.REF_S / setup_yard_s,
        "setup_raw_s": setup_raw_s,
    }
    if not args.setup_only:
        budget = args.seconds / 3 if args.spans else args.seconds
        reps = max(1, round(YARD_SHARE * warm_wall / setup_yard_s))
        walls, cpus, yards, last = plain_pass(
            wl, fixture, checker, budget, args.samples, reps
        )
        out.update(
            host_s=yardstick.normalise(walls, yards), host_raw_s=walls, cpu_s=cpus,
            yard_s=yards, ops=last.ops, sim_digest=last.digest,
            spans=(
                span_pass(
                    wl, args.size, args.seed, fixture, checker,
                    args.seconds - budget, args.samples, reps,
                )
                if args.spans else None
            ),
        )
    out.update(
        attempted=checker.attempted,
        failed=len(checker.failed),
        failed_checks=sorted(set(checker.failed)),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
