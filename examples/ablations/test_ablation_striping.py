"""Ablation: stripe geometry under on-demand preallocation.

The paper stripes data over 5 disks (micro-benchmark) and 8 disks (macro
benchmarks) with no further analysis; this ablation sweeps disk count and
stripe-unit size to show where the technique's benefit comes from — the
per-(stream, PAG) windows operate per rotation slot, so very small stripe
units dice each stream's region across allocators and cost contiguity.
"""

from dataclasses import replace

from repro.fs.dataplane import DataPlane
from repro.fs.profiles import redbud_vanilla_profile, with_alloc_policy
from repro.sim.report import Table
from repro.units import KiB, MiB
from repro.workloads.streams import SharedFileMicrobench

from conftest import SEED


def _run(ndisks: int, stripe_blocks: int, policy: str, seed: int):
    cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
    cfg = replace(cfg, stripe_blocks=stripe_blocks)
    plane = DataPlane(cfg)
    bench = SharedFileMicrobench(
        nstreams=32, file_bytes=96 * MiB, write_request_bytes=16 * KiB, seed=seed
    )
    f = bench.create_shared_file(plane)
    bench.phase1_write(plane, f)
    plane.close_file(f)
    read = bench.phase2_read(plane, f)
    return read.mib_per_s, f.extent_count


def test_ablation_disk_count():
    def run():
        return {
            nd: _run(nd, 256, "ondemand", SEED) for nd in (2, 5, 8)
        }

    result = run()
    table = Table(
        "Ablation — disk count (on-demand, 32 streams, 96 MiB shared file)",
        ["disks", "read MiB/s", "extents"],
    )
    for nd, (tput, extents) in sorted(result.items()):
        table.add_row([nd, tput, extents])
    table.print()
    # More spindles, more parallel bandwidth.
    assert result[8][0] > result[2][0]


def test_ablation_stripe_unit():
    def run():
        return {
            sb: _run(5, sb, "ondemand", SEED)
            for sb in (16, 64, 256, 1024)  # 64 KiB .. 4 MiB units
        }

    result = run()
    table = Table(
        "Ablation — stripe unit (on-demand, 32 streams, 5 disks)",
        ["stripe (blocks)", "read MiB/s", "extents"],
    )
    for sb, (tput, extents) in sorted(result.items()):
        table.add_row([sb, tput, extents])
    table.print()
    # Tiny stripe units fragment every stream across allocators: the
    # extent count at 64 KiB units dwarfs the 1 MiB-unit count.
    assert result[16][1] > result[256][1]
