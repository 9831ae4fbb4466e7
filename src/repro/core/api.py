"""High-level convenience API.

One-call entry points for the common things a user of the library does:
build a file system from a named profile, compare allocation policies on a
workload, and produce a fragmentation report for a file.  Examples and the
CLI build on these; experiment runners live in
:mod:`repro.core.runners` behind :func:`repro.core.run.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.profiles import (
    lustre_profile,
    redbud_mif_profile,
    redbud_vanilla_profile,
    with_alloc_policy,
)
from repro.fs.redbud import RedbudFileSystem
from repro.sim.visual import extent_histogram, layout_map
from repro.units import KiB, MiB
from repro.workloads.streams import SharedFileMicrobench

PROFILES = {
    "redbud-orig": redbud_vanilla_profile,
    "lustre": lustre_profile,
    "redbud-mif": redbud_mif_profile,
}


def build_filesystem(profile: str = "redbud-mif", **overrides) -> RedbudFileSystem:
    """Build a ready file system from a named profile.

    >>> fs = build_filesystem("redbud-mif")
    >>> fs.config.alloc.policy
    'ondemand'
    """
    try:
        factory = PROFILES[profile]
    except KeyError:
        raise ConfigError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        ) from None
    return RedbudFileSystem(factory(**overrides))


@dataclass
class PolicyComparison:
    """Outcome of :func:`compare_policies` for one policy."""

    policy: str
    write_mib_s: float
    read_mib_s: float
    extents: int


@dataclass
class ComparisonReport:
    """All policies on one workload, ready to print."""

    nstreams: int
    file_bytes: int
    results: list[PolicyComparison] = field(default_factory=list)

    def best_read(self) -> PolicyComparison:
        return max(self.results, key=lambda r: r.read_mib_s)

    def get(self, policy: str) -> PolicyComparison:
        for r in self.results:
            if r.policy == policy:
                return r
        raise KeyError(policy)


def compare_policies(
    policies: tuple[str, ...] = ("reservation", "static", "ondemand"),
    nstreams: int = 32,
    file_mib: int = 128,
    request_kib: int = 16,
    ndisks: int = 5,
    seed: int = 0,
) -> ComparisonReport:
    """Run the shared-file micro-benchmark under each policy."""
    if file_mib <= 0 or request_kib <= 0:
        raise ConfigError("file_mib and request_kib must be positive")
    file_bytes = file_mib * MiB - (file_mib * MiB) % nstreams
    report = ComparisonReport(nstreams=nstreams, file_bytes=file_bytes)
    for policy in policies:
        cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
        plane = DataPlane(cfg)
        bench = SharedFileMicrobench(
            nstreams=nstreams,
            file_bytes=file_bytes,
            write_request_bytes=request_kib * KiB,
            seed=seed,
        )
        f = bench.create_shared_file(plane)
        write = bench.phase1_write(plane, f)
        plane.close_file(f)
        read = bench.phase2_read(plane, f)
        report.results.append(
            PolicyComparison(
                policy=policy,
                write_mib_s=write.mib_per_s,
                read_mib_s=read.mib_per_s,
                extents=f.extent_count,
            )
        )
    return report


def fragmentation_report(plane: DataPlane, f: RedbudFile) -> str:
    """Human-readable fragmentation report for one file."""
    lines = [
        f"file {f.name}: {f.extent_count} extents over {f.width} slots, "
        f"{f.written_blocks} written blocks",
        "",
        extent_histogram(f),
        "",
        "slot 0 layout (letters = logical regions):",
        layout_map(plane, f, slot=0),
    ]
    return "\n".join(lines)
