"""§I / §III.C headline claims (plain functions, not registered runners)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runners.fig6 import micro_stream_count
from repro.core.sweep import _scaled
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import redbud_vanilla_profile, with_alloc_policy
from repro.units import KiB, MiB
from repro.workloads.filesizes import kernel_tree_sizes
from repro.workloads.streams import SharedFileMicrobench


@dataclass
class InterferenceClaim:
    fragmented_mib_s: float
    contiguous_mib_s: float

    @property
    def loss_fraction(self) -> float:
        """I/O performance lost to intra-file interference (paper: >40%)."""
        return 1.0 - self.fragmented_mib_s / self.contiguous_mib_s


def interference_claim(scale: float = 1.0, seed: int = 0) -> InterferenceClaim:
    """§I: intra-file interference can reduce I/O performance by >40%."""
    fig = micro_stream_count(
        stream_counts=(64,), policies=("reservation", "static"),
        scale=scale, seed=seed,
    ).payload
    return InterferenceClaim(
        fragmented_mib_s=fig.throughput["reservation"][64],
        contiguous_mib_s=fig.throughput["static"][64],
    )


@dataclass
class FppGap:
    """Shared-file vs file-per-process read-back throughput (MiB/s)."""

    shared: dict[str, float] = field(default_factory=dict)   # policy -> MiB/s
    per_process: dict[str, float] = field(default_factory=dict)

    def gap(self, policy: str) -> float:
        """file-per-process / shared ratio (paper: ~5x under traditional
        placement; MiF's goal is to pull it toward 1)."""
        return self.per_process[policy] / self.shared[policy]


def file_per_process_gap(
    policies: tuple[str, ...] = ("reservation", "ondemand"),
    nstreams: int = 32,
    scale: float = 1.0,
    ndisks: int = 5,
    seed: int = 0,
) -> FppGap:
    """§II.A.1: per-process files beat one shared file "by a factor of 5"
    under traditional placement; on-demand preallocation closes the gap."""
    from repro.workloads.fpp import FilePerProcessBench

    total = _scaled(192 * MiB, scale, floor=32 * MiB)
    total -= total % nstreams
    out = FppGap()
    for policy in policies:
        cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
        plane = DataPlane(cfg)
        bench = SharedFileMicrobench(
            nstreams=nstreams, file_bytes=total, write_request_bytes=16 * KiB,
            seed=seed,
        )
        f = bench.create_shared_file(plane)
        bench.phase1_write(plane, f)
        plane.close_file(f)
        out.shared[policy] = bench.phase2_read(plane, f).mib_per_s

        cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
        plane = DataPlane(cfg)
        fpp = FilePerProcessBench(
            nstreams=nstreams, total_bytes=total, write_request_bytes=16 * KiB,
            seed=seed,
        )
        files = fpp.create_files(plane)
        fpp.phase1_write(plane, files)
        for g in files:
            plane.close_file(g)
        out.per_process[policy] = fpp.phase2_read(plane, files).mib_per_s
    return out


@dataclass
class PreallocWaste:
    """§III.C: space occupied by static preallocation on small files."""

    prealloc_bytes: int
    occupied_small: int
    occupied_large: int

    @property
    def waste_ratio(self) -> float:
        return self.occupied_large / self.occupied_small


def prealloc_waste(
    nfiles: int = 5000, small: int = 16 * KiB, large: int = 256 * KiB, seed: int = 0
) -> PreallocWaste:
    """§III.C: static 256 KiB preallocation on kernel-tree files occupies
    far more space than 16 KiB (the paper measured ~100×... on 8 GiB vs
    80 MiB; the ratio here is bounded by 256/16 = 16× because occupation
    is dominated by the preallocation floor)."""
    sizes = kernel_tree_sizes(nfiles, seed=seed)
    block = 4096
    occupied = {}
    for prealloc in (small, large):
        total = 0
        for s in sizes:
            total += max(int(s), prealloc)
        occupied[prealloc] = -(-total // block) * block
    return PreallocWaste(
        prealloc_bytes=large,
        occupied_small=occupied[small],
        occupied_large=occupied[large],
    )


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
