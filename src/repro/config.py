"""Configuration dataclasses for the simulated storage stack.

Every tunable in the simulator lives here so that experiment code can build
a complete stack from a single :class:`FSConfig`.  Defaults mirror the
paper's testbed where stated (4 KiB blocks, ~170 MB/s sequential disks,
5- or 8-disk stripes, Lustre's ext4-style reservation, MiF's scale-2/4
window ramp) and ordinary Linux defaults elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.units import DEFAULT_BLOCK_SIZE, GiB, KiB, MiB


@dataclass(frozen=True)
class DiskParams:
    """Single-spindle performance model.

    The service time of a request starting at block ``b`` with the head at
    block ``h`` is ``positioning(|b - h|) + nblocks * transfer``.  Positioning
    is zero for ``b == h`` (sequential continuation) and otherwise a
    distance-dependent seek plus average rotational latency.  The defaults
    approximate the paper's fabric disks: ~170 MB/s sequential and a few
    milliseconds per random positioning.
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    capacity_blocks: int = (64 * GiB) // DEFAULT_BLOCK_SIZE
    seq_bandwidth: float = 170.0 * MiB  # bytes/second, paper reports ~170.2 MB/s
    min_seek_s: float = 0.0005   # settle time for a near seek
    max_seek_s: float = 0.0080   # full-stroke seek
    rotational_s: float = 0.0021  # avg rotational latency (7200 rpm / 2 ≈ 4.2ms/2)
    #: Positioning gaps of at most this many blocks are charged the near-seek
    #: cost only (head stays on track; models track buffer / skip-read).
    near_gap_blocks: int = 64
    #: Fixed per-submission charge (request shipping + command setup,
    #: seconds), paid once per submitted batch by each disk the batch
    #: touches.  A scatter-gather list request ships its whole region list
    #: under one header, while a loop of scalar operations pays one header
    #: per operation — PVFS's "noncontiguous I/O in one request" effect
    #: (see docs/LISTIO.md).  The default of 0 preserves the historical
    #: positioning+transfer-only model.
    request_header_s: float = 0.0

    def __post_init__(self) -> None:
        if self.block_size <= 0 or self.block_size % 512 != 0:
            raise ConfigError(f"block_size must be a positive multiple of 512: {self.block_size}")
        if self.capacity_blocks <= 0:
            raise ConfigError(f"capacity_blocks must be positive: {self.capacity_blocks}")
        if self.seq_bandwidth <= 0:
            raise ConfigError(f"seq_bandwidth must be positive: {self.seq_bandwidth}")
        if not (0 <= self.min_seek_s <= self.max_seek_s):
            raise ConfigError(
                f"need 0 <= min_seek_s <= max_seek_s, got {self.min_seek_s}, {self.max_seek_s}"
            )
        if self.rotational_s < 0:
            raise ConfigError(f"rotational_s must be >= 0: {self.rotational_s}")
        if self.near_gap_blocks < 0:
            raise ConfigError(f"near_gap_blocks must be >= 0: {self.near_gap_blocks}")
        if self.request_header_s < 0:
            raise ConfigError(f"request_header_s must be >= 0: {self.request_header_s}")

    @property
    def transfer_s_per_block(self) -> float:
        """Seconds to transfer one block at the sequential rate."""
        return self.block_size / self.seq_bandwidth


@dataclass(frozen=True)
class SchedulerParams:
    """I/O scheduler model (per disk).

    ``elevator`` sorts each dispatch batch by physical block and merges runs
    whose gap is at most ``merge_gap_blocks`` — the mechanism behind the
    paper's observation that "the scheduler underlying file systems can not
    merge the fragmentary requests" when fragments are far apart.  ``fifo``
    dispatches in arrival order (used in tests and ablations).
    """

    kind: str = "elevator"  # "elevator" | "fifo"
    #: Requests whose gap is within this many blocks merge into one
    #: skip-transfer (drive track buffer + OS readahead amortization).
    merge_gap_blocks: int = 128
    #: Maximum number of requests considered in one dispatch round, like
    #: the kernel's nr_requests bound (plus NCQ).
    batch_limit: int = 512

    def __post_init__(self) -> None:
        if self.kind not in ("elevator", "fifo"):
            raise ConfigError(f"unknown scheduler kind: {self.kind!r}")
        if self.merge_gap_blocks < 0:
            raise ConfigError(f"merge_gap_blocks must be >= 0: {self.merge_gap_blocks}")
        if self.batch_limit <= 0:
            raise ConfigError(f"batch_limit must be positive: {self.batch_limit}")


@dataclass(frozen=True)
class CacheParams:
    """Buffer cache with kernel-style sequential readahead.

    The readahead window starts at ``readahead_init_blocks`` and doubles on
    every correctly-predicted sequential access up to
    ``readahead_max_blocks`` — the behaviour §V.D.1 credits for the growing
    readdir-stat win of embedded directories on large directories
    (docs/CACHE.md).
    """

    capacity_blocks: int = 4096
    readahead_init_blocks: int = 4
    readahead_max_blocks: int = 32
    #: Concurrent sequential streams tracked by the readahead table (the
    #: kernel keeps a context per open file / access pattern; a readdirplus
    #: interleaves a dentry stream with an inode-table stream and both
    #: deserve a window).
    ra_contexts: int = 4

    def __post_init__(self) -> None:
        if self.capacity_blocks < 0:
            raise ConfigError(f"capacity_blocks must be >= 0: {self.capacity_blocks}")
        if self.readahead_init_blocks < 0 or self.readahead_max_blocks < 0:
            raise ConfigError("readahead windows must be >= 0")
        if self.readahead_init_blocks > self.readahead_max_blocks:
            raise ConfigError("readahead_init_blocks must be <= readahead_max_blocks")
        if self.ra_contexts < 1:
            raise ConfigError(f"ra_contexts must be >= 1: {self.ra_contexts}")


@dataclass(frozen=True)
class AllocPolicyParams:
    """Parameters shared by the preallocation policies (§III).

    ``policy`` selects among:

    - ``vanilla``      — no preallocation, first-fit per write (Table I "Vanilla")
    - ``reservation``  — traditional per-inode reservation (ext4/GPFS style)
    - ``static``       — fallocate-style whole-file persistent preallocation
    - ``ondemand``     — MiF on-demand preallocation (per-stream windows)
    - ``delayed``      — delayed allocation at flush time (related work)
    - ``cow``          — log-structured copy-on-write appends (Ceph-style)
    - ``hybrid``       — static when the size is declared, on-demand
      otherwise (§II.B's "complementarity")
    """

    policy: str = "ondemand"
    #: §III.C initialisation: window = write size * scale, scale ∈ {2, 4}.
    window_scale: int = 2
    #: §III.C cap: min(size, max_preallocation_size).
    max_preallocation_blocks: int = 2048  # 8 MiB with 4 KiB blocks
    #: §III.B: misses tolerated before a stream is classified random and its
    #: preallocation is turned off.
    miss_threshold: int = 3
    #: Traditional reservation window size in blocks (ext4 default 8 MiB is
    #: far larger than its effective per-file reservation; 2 MiB is typical).
    reservation_blocks: int = 512
    #: Blocks batched per allocation for the delayed policy.
    delayed_batch_blocks: int = 256

    def __post_init__(self) -> None:
        if self.policy not in (
            "vanilla", "reservation", "static", "ondemand", "delayed", "cow", "hybrid"
        ):
            raise ConfigError(f"unknown allocation policy: {self.policy!r}")
        if self.window_scale < 2:
            raise ConfigError(f"window_scale must be >= 2: {self.window_scale}")
        if self.max_preallocation_blocks <= 0:
            raise ConfigError("max_preallocation_blocks must be positive")
        if self.miss_threshold <= 0:
            raise ConfigError("miss_threshold must be positive")
        if self.reservation_blocks <= 0:
            raise ConfigError("reservation_blocks must be positive")
        if self.delayed_batch_blocks <= 0:
            raise ConfigError("delayed_batch_blocks must be positive")


@dataclass(frozen=True)
class MetaParams:
    """Metadata file system and directory layout parameters (§IV).

    ``layout`` selects traditional placement (``normal``) or MiF's
    ``embedded`` directory.  ``htree_index`` models ext4's hashed lookup
    (enabled in the Lustre profile; Redbud's ext3 MFS lacks it), charged as a
    CPU-time discount on lookups rather than a disk effect.
    """

    layout: str = "embedded"  # "normal" | "embedded"
    inode_size: int = 256      # bytes; ext3/4 default on modern mkfs
    dentry_size: int = 64      # bytes per directory entry, avg incl. name
    #: Extent descriptor size in the inode tail / spill blocks (§IV.A).
    extent_record_size: int = 16
    #: Blocks preallocated in fresh directory content for future sub-files.
    dir_prealloc_blocks: int = 4
    #: Growth factor applied to the directory preallocation when it fills.
    dir_prealloc_scale: int = 2
    #: §IV.A fragmentation degree = extent count / file count; above this an
    #: extra spill block is preallocated next to the inode block.
    frag_degree_threshold: float = 4.0
    #: Inodes whose extent map exceeds this many records spill (inode tail
    #: capacity = (inode_size - fixed header) / extent_record_size).
    inode_header_size: int = 128
    #: Deleted files per directory batched before lazy free runs (§IV.A).
    lazy_free_batch: int = 64
    #: ext4 Htree lookup (Lustre MDS) vs linear ext3 scan (Redbud MDS).
    htree_index: bool = False
    #: CPU charge per dentry compared in a linear lookup, and per lookup for
    #: the Htree path (seconds).  Only affects CPU-bound metadata workloads.
    lookup_cpu_s_per_entry: float = 1.0e-7
    htree_lookup_cpu_s: float = 2.0e-6
    #: Journal: sequential commit region; checkpoint flushes dirty home
    #: blocks.  ``journal_interval_ops`` metadata ops per checkpoint batch.
    journal_blocks: int = 8192
    journal_interval_ops: int = 64
    #: Block groups in the metadata file system.
    block_groups: int = 32
    blocks_per_group: int = 32768
    #: Inode-table capacity per group (ext3-style fixed tables; unused by
    #: the embedded layout, which stores inodes in directory content).
    inodes_per_group: int = 8192

    def __post_init__(self) -> None:
        if self.layout not in ("normal", "embedded"):
            raise ConfigError(f"unknown directory layout: {self.layout!r}")
        if self.inode_size <= 0 or self.inode_size > 4096:
            raise ConfigError(f"inode_size out of range: {self.inode_size}")
        if self.inode_header_size >= self.inode_size:
            raise ConfigError("inode_header_size must leave room for the extent tail")
        if self.dentry_size <= 0 or self.extent_record_size <= 0:
            raise ConfigError("dentry_size and extent_record_size must be positive")
        if self.dir_prealloc_blocks <= 0 or self.dir_prealloc_scale < 1:
            raise ConfigError("directory preallocation parameters must be positive")
        if self.frag_degree_threshold <= 0:
            raise ConfigError("frag_degree_threshold must be positive")
        if self.lazy_free_batch <= 0:
            raise ConfigError("lazy_free_batch must be positive")
        if self.journal_blocks <= 0 or self.journal_interval_ops <= 0:
            raise ConfigError("journal parameters must be positive")
        if self.block_groups <= 0 or self.blocks_per_group <= 0:
            raise ConfigError("block group geometry must be positive")
        if self.inodes_per_group <= 0:
            raise ConfigError("inodes_per_group must be positive")

    @property
    def inode_tail_extents(self) -> int:
        """Extent records that fit in the inode tail before spilling."""
        return (self.inode_size - self.inode_header_size) // self.extent_record_size


@dataclass(frozen=True)
class FSConfig:
    """Complete configuration of a simulated parallel file system."""

    name: str = "redbud-mif"
    ndisks: int = 5                      # data disks (paper: 5 or 8 stripes)
    stripe_blocks: int = 256             # stripe unit, 1 MiB with 4 KiB blocks
    pags_per_disk: int = 4               # parallel allocation groups per disk
    disk: DiskParams = field(default_factory=DiskParams)
    scheduler: SchedulerParams = field(default_factory=SchedulerParams)
    cache: CacheParams = field(default_factory=CacheParams)
    alloc: AllocPolicyParams = field(default_factory=AllocPolicyParams)
    meta: MetaParams = field(default_factory=MetaParams)
    mds_disk: DiskParams = field(default_factory=DiskParams)
    #: Constant MDS request charge (network + request handling, seconds);
    #: aggregation pays it once per aggregated pair instead of twice.
    mds_request_overhead_s: float = 0.0002
    #: CPU time the MDS spends per extent handled (merging/indexing); the
    #: source of Table I's CPU-utilization column.
    mds_cpu_s_per_extent: float = 0.00002

    def __post_init__(self) -> None:
        if self.ndisks <= 0:
            raise ConfigError(f"ndisks must be positive: {self.ndisks}")
        if self.stripe_blocks <= 0:
            raise ConfigError(f"stripe_blocks must be positive: {self.stripe_blocks}")
        if self.pags_per_disk <= 0:
            raise ConfigError(f"pags_per_disk must be positive: {self.pags_per_disk}")
        if self.mds_request_overhead_s < 0 or self.mds_cpu_s_per_extent < 0:
            raise ConfigError("MDS cost parameters must be >= 0")

    def with_layout(self, layout: str) -> "FSConfig":
        """Copy of this config with a different directory layout."""
        return replace(self, meta=replace(self.meta, layout=layout))
