"""Ablation: MDS clusters and the embedded directory (§IV.C, §IV.D).

§IV.D: subtree-partitioned clusters keep a directory's metadata on one
server, so the embedded layout's locality survives; hashed-pathname
distribution scatters sibling inodes across servers and "the embedded
directory can not improve the disk performance".

§IV.C: for extreme large (sharded) directories, the primary's collection
of sub-file name hashes answers lookups in one RPC instead of probing
every shard.
"""

from repro.sim.report import Table

from conftest import small_config
from mds_cluster import MDSCluster


def test_ablation_distribution_locality():
    def run():
        out = {}
        for layout in ("normal", "embedded"):
            for dist in ("subtree", "hash-path"):
                cluster = MDSCluster(
                    small_config(layout=layout), nservers=4, distribution=dist
                )
                d = cluster.mkdir("proj")
                for i in range(512):
                    cluster.create(d, f"f{i:04d}")
                cluster.flush()
                cluster.drop_caches()
                before = sum(
                    s.metrics.count("disk.requests") for s in cluster.servers
                )
                cluster.readdir_stat(d)
                out[(layout, dist)] = (
                    sum(s.metrics.count("disk.requests") for s in cluster.servers)
                    - before
                )
        return out

    result = run()
    table = Table(
        "Ablation — readdir-stat disk requests, 512-file dir, 4 MDS servers",
        ["layout", "distribution", "disk requests"],
    )
    for (layout, dist), reqs in sorted(result.items()):
        table.add_row([layout, dist, reqs])
    table.print()

    subtree_ratio = result[("embedded", "subtree")] / result[("normal", "subtree")]
    hash_ratio = result[("embedded", "hash-path")] / result[("normal", "hash-path")]
    # §IV.D: embedded's relative saving shrinks under hashed distribution.
    assert subtree_ratio < 1.0
    assert hash_ratio > subtree_ratio


def test_ablation_large_directory_hash_collection():
    def run():
        out = {}
        for hash_collection in (True, False):
            cluster = MDSCluster(
                small_config(layout="embedded"),
                nservers=4,
                distribution="subtree",
                hash_collection=hash_collection,
            )
            d = cluster.mkdir("checkpoints", sharded=True)
            for i in range(256):
                cluster.create(d, f"rank{i:05d}.chk")
            cluster.metrics.reset()
            for i in range(256):
                cluster.stat(d, f"rank{i:05d}.chk")
            out[hash_collection] = cluster.rpcs()
        return out

    result = run()
    table = Table(
        "Ablation — sharded-directory lookups, 256 files over 4 servers",
        ["primary hash collection", "RPCs for 256 lookups"],
    )
    table.add_row(["yes (§IV.C)", result[True]])
    table.add_row(["no (broadcast probe)", result[False]])
    table.print()
    # The collection answers ownership in one hop.
    assert result[True] < result[False]
    assert result[True] <= 256 * 2
