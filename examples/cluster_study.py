#!/usr/bin/env python3
"""MDS-cluster study (§IV.C, §IV.D): where the embedded directory's
locality assumption holds and where it breaks.

Builds a 512-file directory on a 4-server metadata cluster under both
distribution schemes and both directory layouts, then issues one
aggregated ls -l; also demonstrates the extreme-large-directory path with
and without the primary's name-hash collection.

Run:  python examples/cluster_study.py
"""

from repro.config import FSConfig, MetaParams
from repro.sim.report import Table

from mds_cluster import MDSCluster


def cluster_config(layout: str) -> FSConfig:
    return FSConfig(name=f"cluster-{layout}", meta=MetaParams(layout=layout))


def main() -> None:
    table = Table(
        "readdir-stat over a 512-file directory, 4 MDS servers, cold caches",
        ["layout", "distribution", "disk requests", "makespan (ms)"],
    )
    for layout in ("normal", "embedded"):
        for dist in ("subtree", "hash-path"):
            cluster = MDSCluster(
                cluster_config(layout), nservers=4, distribution=dist
            )
            d = cluster.mkdir("proj")
            for i in range(512):
                cluster.create(d, f"f{i:04d}")
            cluster.flush()
            cluster.drop_caches()
            before_reqs = sum(
                s.metrics.count("disk.requests") for s in cluster.servers
            )
            before_time = cluster.makespan_s
            cluster.readdir_stat(d)
            reqs = (
                sum(s.metrics.count("disk.requests") for s in cluster.servers)
                - before_reqs
            )
            table.add_row(
                [layout, dist, reqs, (cluster.makespan_s - before_time) * 1e3]
            )
    table.print()
    print(
        "Under subtree partitioning a directory's metadata shares one disk\n"
        "and the embedded sweep shines; hashed-pathname distribution\n"
        "scatters sibling inodes over servers — §IV.D: 'the embedded\n"
        "directory can not improve the disk performance'.\n"
    )

    table = Table(
        "Extreme large directory (sharded over 4 servers): 256 lookups",
        ["primary name-hash collection", "RPCs"],
    )
    for hc in (True, False):
        cluster = MDSCluster(
            cluster_config("embedded"),
            nservers=4,
            distribution="subtree",
            hash_collection=hc,
        )
        d = cluster.mkdir("checkpoints", sharded=True)
        for i in range(256):
            cluster.create(d, f"rank{i:05d}.chk")
        cluster.metrics.reset()
        for i in range(256):
            cluster.stat(d, f"rank{i:05d}.chk")
        table.add_row(["yes (§IV.C)" if hc else "no (broadcast)", cluster.rpcs()])
    table.print()


if __name__ == "__main__":
    main()
