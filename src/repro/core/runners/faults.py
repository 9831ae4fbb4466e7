"""Fault campaign: crash + torn-write + latent-sector-error injection, then
journal replay and fsck repair (robustness layer, not a paper figure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.run import RunnerCommand, RunResult, register
from repro.core.runners.fsck import print_repair
from repro.core.sweep import _Run, _scaled
from repro.errors import CrashError, LatentSectorError
from repro.fault import Corruptor, FaultInjector, FaultPlan
from repro.fs.profiles import redbud_mif_profile
from repro.fs.stream import make_stream_id
from repro.fs.verify import RepairResult, repair_dataplane, repair_mds
from repro.obs.trace import NullTracer, Tracer
from repro.rng import derive_rng
from repro.sim.metrics import ThroughputResult
from repro.units import KiB
from repro.workloads.metarates import MetaratesWorkload


@dataclass
class FaultCampaignResult:
    """Outcome of one seeded fault campaign."""

    seed: int
    crash_after_requests: int | None
    injected_lse: int
    injected_torn: int
    injected_crashes: int
    replayed_records: int
    discarded_records: int
    scrub_healed: int
    #: Finding codes the structural corruptor aimed for.
    corruptions: list[str]
    mds_repair: "RepairResult"
    plane_repair: "RepairResult"

    @property
    def clean_after(self) -> bool:
        return self.mds_repair.converged and self.plane_repair.converged


@register("faults")
def fault_campaign(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    jobs: int | None = None,
) -> RunResult:
    """Three-phase robustness campaign:

    1. **Crash**: a metarates-style create workload against an embedded-
       layout MDS with an armed injector; the seeded crash point fires
       mid-workload and :meth:`MetadataServer.crash_recover` replays the
       committed journal records.
    2. **Scrub**: a striped data plane whose first disk carries latent
       sector errors and torn multi-block writes; a read scrub detects the
       bad sectors and heals them by rewriting.
    3. **Repair**: the structural corruptor damages both planes and the
       fsck repair routines fix them, proving the dirty→clean round trip.

    The campaign is one sequential cell, so ``jobs`` is accepted for the
    unified ``run()`` surface but has nothing to fan out.
    """
    del jobs
    run = _Run("faults", trace, scale=scale, seed=seed)
    cfg = redbud_mif_profile()

    # Phase 1: crash the MDS mid-workload, then recover.
    mds = run.mds(cfg)
    mds_plan = FaultPlan.seeded(
        seed, mds.disk.capacity_blocks, torn_every=4, crash_window=(20, 80)
    )
    mds_injector = FaultInjector(mds_plan)
    mds.disk.attach_injector(mds_injector)
    wl = MetaratesWorkload(nclients=2, files_per_dir=_scaled(60, scale, floor=10))
    t0 = mds.elapsed_s
    try:
        dirs = wl.setup_dirs(mds)
        wl.run_create(mds, dirs)
    except CrashError:
        pass
    mds_injector.disarm()
    replayed = mds.crash_recover()
    # Post-recovery activity proves the server still works (and gives the
    # structural corruptor a populated namespace to damage).
    survivors = mds.mkdir(mds.root, "survivors")
    for i in range(_scaled(40, scale, floor=8)):
        mds.create(survivors, f"s{i:04d}")
    run.phase(
        "crash-recover",
        ThroughputResult(bytes_moved=0, elapsed=mds.elapsed_s - t0, ops=mds.ops),
    )

    # Phase 2: data-plane LSE scrub.  The injector rides the disk that
    # serves the files' writes (files land wherever their PAG layout says,
    # not necessarily disk 0); tears fire during the writes, and latent
    # sector errors *develop* on written sectors afterwards — an LSE baked
    # in up front would be healed by the very write that stored the data.
    # No crash point, so the scrub itself runs to completion.
    plane = run.plane(cfg)
    data_plan = FaultPlan.seeded(
        seed + 1,
        cfg.disk.capacity_blocks,
        lse_count=0,
        torn_every=3,
        crash_window=None,
    )
    data_injector = FaultInjector(data_plan)
    chunk = 64 * KiB
    rounds = _scaled(12, scale, floor=4)
    files = [plane.create_file(f"data{i:02d}") for i in range(3)]
    injected_disk = None
    for r in range(rounds):
        for i, f in enumerate(files):
            starts, nblocks = plane.write(f, make_stream_id(i, 0), r * chunk, chunk)
            if injected_disk is None and starts.shape[0]:
                idx, _ = plane.array.locate(int(starts[0]))
                injected_disk = plane.array.disks[idx]
                injected_disk.attach_injector(data_injector)
            plane.array.submit_batch(starts, nblocks, True)
    lse_rng = derive_rng(seed + 1, "fault", "develop")
    written = sorted(data_injector.written)
    if written:
        picks = {
            written[int(lse_rng.integers(0, len(written)))] for _ in range(6)
        }
        data_injector.develop_lse(picks)
    healed = 0
    for f in files:
        starts, nblocks = plane.read(f, 0, f.size_bytes)
        for at in range(starts.shape[0]):
            req = starts[at:at + 1], nblocks[at:at + 1]
            try:
                plane.array.submit_batch(*req, False)
            except LatentSectorError:
                plane.array.submit_batch(*req, True)
                plane.array.submit_batch(*req, False)  # verify the heal took
                healed += 1
    run.phase(
        "scrub",
        ThroughputResult(
            bytes_moved=rounds * chunk * len(files),
            elapsed=plane.array.elapsed_s,
            ops=healed,
        ),
    )

    # Phase 3: structural corruption, then fsck repair to convergence.
    data_injector.disarm()
    corruptor = Corruptor(seed)
    codes = corruptor.corrupt_dataplane(plane, nfaults=3)
    codes += corruptor.corrupt_mds(mds, nfaults=3)
    plane_repair = repair_dataplane(plane)
    mds_repair = repair_mds(mds)
    run.capture("post-repair", mds)

    payload = FaultCampaignResult(
        seed=seed,
        crash_after_requests=mds_plan.crash_after_requests,
        injected_lse=mds_injector.lse_errors + data_injector.lse_errors,
        injected_torn=mds_injector.torn_writes + data_injector.torn_writes,
        injected_crashes=mds_injector.crashes + data_injector.crashes,
        replayed_records=replayed,
        discarded_records=run.metrics.count("mds.discarded_records"),
        scrub_healed=healed,
        corruptions=codes,
        mds_repair=mds_repair,
        plane_repair=plane_repair,
    )
    return run.result(payload)


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
    print_repair("data plane", result.plane_repair)
    print()
    print_repair("metadata", result.mds_repair)
    return 0 if result.clean_after else 1


COMMANDS = (
    RunnerCommand(
        "faults",
        "seeded fault campaign: crash/recover the MDS, scrub latent "
        "sector errors, corrupt both planes and fsck-repair to clean",
        print_faults,
    ),
)
