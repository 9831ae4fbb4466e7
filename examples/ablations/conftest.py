"""Shared pieces of the ablation sweeps: the seed and a small FSConfig.

Each ``test_ablation_*.py`` sweeps one design parameter, prints the table
(run with ``-s`` to see it) and asserts the trade-off it demonstrates.  No
claim of the paper cites them — those are the rows of ``repro claims``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.config import (
    AllocPolicyParams,
    CacheParams,
    DiskParams,
    FSConfig,
    MetaParams,
    SchedulerParams,
)

#: Every sweep is deterministic in this seed.
SEED = 0

# ``mds_cluster`` (the §IV.C/D metadata cluster model), ``replication``
# (the §II.B read-replica baseline), ``defrag`` and ``mdtest`` sit beside
# the example scripts, one directory up.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def small_config(policy: str = "ondemand", layout: str = "embedded", **kw) -> FSConfig:
    """Small, fast FSConfig for metadata-side ablations (mirrors the test
    suite's fixture without importing from it)."""
    blocks = 16384
    return FSConfig(
        name=f"bench-{policy}-{layout}",
        ndisks=kw.pop("ndisks", 2),
        stripe_blocks=kw.pop("stripe_blocks", 64),
        pags_per_disk=kw.pop("pags_per_disk", 2),
        disk=DiskParams(capacity_blocks=blocks),
        mds_disk=DiskParams(capacity_blocks=blocks),
        scheduler=SchedulerParams(),
        cache=CacheParams(capacity_blocks=kw.pop("cache_blocks", 1024)),
        alloc=AllocPolicyParams(policy=policy, **kw.pop("alloc_kw", {})),
        meta=MetaParams(
            layout=layout,
            block_groups=4,
            blocks_per_group=2048,
            inodes_per_group=256,
            journal_blocks=128,
            journal_interval_ops=16,
            dir_prealloc_blocks=2,
            **kw.pop("meta_kw", {}),
        ),
        **kw,
    )
