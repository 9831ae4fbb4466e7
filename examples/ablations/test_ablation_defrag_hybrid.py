"""Ablation: fix fragmentation after the fact vs never fragmenting.

Compares three life-cycles for the shared-file workload:

- **reservation** — fragment and live with it;
- **reservation + defrag** — fragment, then pay an offline rewrite
  (e4defrag-style) before reading;
- **hybrid (MiF deployment)** — fallocate when the size is declared,
  on-demand windows when it is not: never fragments in the first place.
"""

from repro.fs.dataplane import DataPlane
from repro.fs.profiles import redbud_vanilla_profile, with_alloc_policy
from repro.sim.report import Table
from repro.units import KiB, MiB
from repro.workloads.streams import SharedFileMicrobench

from conftest import SEED
from defrag import defragment


def _run(policy: str, defrag: bool, declared: bool, seed: int):
    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=5), policy)
    plane = DataPlane(cfg)
    bench = SharedFileMicrobench(
        nstreams=32, file_bytes=192 * MiB, write_request_bytes=16 * KiB, seed=seed
    )
    if declared:
        f = bench.create_shared_file(plane)
    else:
        f = plane.create_file("/shared.chk")  # size undeclared
    bench.phase1_write(plane, f)
    plane.close_file(f)
    defrag_s = 0.0
    if defrag:
        plane.array.reset_timelines()
        defrag_s = defragment(plane, f).elapsed_s
    read = bench.phase2_read(plane, f)
    return read.mib_per_s, defrag_s, f.extent_count


def test_ablation_defrag_vs_hybrid():
    def run():
        return {
            "reservation": _run("reservation", False, True, SEED),
            "reservation+defrag": _run("reservation", True, True, SEED),
            "hybrid (declared)": _run("hybrid", False, True, SEED),
            "hybrid (undeclared)": _run("hybrid", False, False, SEED),
        }

    result = run()
    table = Table(
        "Ablation — defragment-later vs never-fragment (32-stream shared file)",
        ["configuration", "read MiB/s", "defrag cost (s)", "extents"],
    )
    for name, (tput, cost, extents) in result.items():
        table.add_row([name, tput, cost, extents])
    table.print()

    # Defrag repairs the layout (reads approach the contiguous bound)...
    assert result["reservation+defrag"][0] > 1.5 * result["reservation"][0]
    # ...but costs a full rewrite that MiF configurations never pay.
    assert result["reservation+defrag"][1] > 0
    assert result["hybrid (declared)"][1] == 0.0
    # Declared hybrid == fallocate-contiguous; undeclared still beats
    # plain reservation without any offline pass.
    assert result["hybrid (declared)"][2] <= 8
    assert result["hybrid (undeclared)"][0] > result["reservation"][0]
