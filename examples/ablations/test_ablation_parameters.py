"""Ablations over MiF's design parameters (DESIGN.md §4).

- window scale (§III.C: "scale is 2 or 4") and the max-preallocation cap;
- miss threshold (§III.B's random-workload cut-off);
- fragmentation-degree threshold for embedded spill preallocation.
"""

from dataclasses import replace

from repro.config import AllocPolicyParams, MetaParams
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import redbud_mif_profile, redbud_vanilla_profile
from repro.meta.mds import MetadataServer
from repro.sim.report import Table
from repro.units import KiB, MiB
from repro.workloads.metarates import MetaratesWorkload
from repro.workloads.streams import SharedFileMicrobench

from conftest import SEED


def _micro_with_alloc(alloc: AllocPolicyParams, nstreams=32, seed=0):
    cfg = replace(redbud_vanilla_profile(ndisks=5), alloc=alloc)
    plane = DataPlane(cfg)
    bench = SharedFileMicrobench(
        nstreams=nstreams, file_bytes=96 * MiB, write_request_bytes=16 * KiB, seed=seed
    )
    f = bench.create_shared_file(plane)
    bench.phase1_write(plane, f)
    plane.close_file(f)
    read = bench.phase2_read(plane, f)
    return read.mib_per_s, f.extent_count


def test_ablation_window_scale():
    def run():
        out = {}
        for scale in (2, 4):
            for cap in (256, 2048):
                alloc = AllocPolicyParams(
                    policy="ondemand", window_scale=scale, max_preallocation_blocks=cap
                )
                out[(scale, cap)] = _micro_with_alloc(alloc, seed=SEED)
        return out

    result = run()
    table = Table(
        "Ablation — window scale x max preallocation (32-stream micro-bench)",
        ["scale", "cap (blocks)", "read MiB/s", "extents"],
    )
    for (scale, cap), (tput, extents) in sorted(result.items()):
        table.add_row([scale, cap, tput, extents])
    table.print()
    # Faster ramp-up (scale 4) must not fragment more than scale 2.
    assert result[(4, 2048)][1] <= result[(2, 2048)][1] * 1.5
    # A tiny cap forces more windows, hence more extents.
    assert result[(2, 256)][1] >= result[(2, 2048)][1]


def test_ablation_miss_threshold():
    def run():
        out = {}
        for threshold in (1, 3, 8):
            alloc = AllocPolicyParams(policy="ondemand", miss_threshold=threshold)
            out[threshold] = _micro_with_alloc(alloc, seed=SEED)
        return out

    result = run()
    table = Table(
        "Ablation — miss threshold (sequential shared-file workload)",
        ["threshold", "read MiB/s", "extents"],
    )
    for threshold, (tput, extents) in sorted(result.items()):
        table.add_row([threshold, tput, extents])
    table.print()
    # A purely sequential workload is threshold-insensitive: each stream
    # misses once per region at most.
    tputs = [v[0] for v in result.values()]
    assert max(tputs) - min(tputs) < 0.35 * max(tputs)


def test_ablation_frag_degree_threshold():
    def run():
        out = {}
        for threshold in (1.0, 4.0, 64.0):
            cfg = redbud_mif_profile()
            cfg = replace(cfg, meta=replace(cfg.meta, frag_degree_threshold=threshold))
            mds = MetadataServer(cfg)
            wl = MetaratesWorkload(nclients=4, files_per_dir=400)
            dirs = wl.setup_dirs(mds)
            # Make the directories "fragmented": every file carries many
            # mapping records.
            wl.run_create(mds, dirs)
            for c, d in enumerate(dirs):
                for i in range(0, 400, 4):
                    mds.set_extent_records(d, wl._filename(c, i), 40)
            mds.drop_caches()
            snap = mds.metrics.snapshot()
            t0 = mds.elapsed_s
            for d in dirs:
                mds.readdir_stat(d)
            out[threshold] = (
                mds.elapsed_s - t0,
                mds.metrics.since(snap).count("disk.requests"),
            )
        return out

    result = run()
    table = Table(
        "Ablation — fragmentation-degree threshold (embedded spill blocks)",
        ["threshold", "readdir-stat time (s)", "disk requests"],
    )
    for threshold, (secs, reqs) in sorted(result.items()):
        table.add_row([threshold, secs, reqs])
    table.print()
    # All configurations complete; an aggressive threshold (1.0)
    # preallocates spill blocks at create time and must not be slower than
    # the lazy one by more than the extra content it reads.
    assert all(v[0] > 0 for v in result.values())
