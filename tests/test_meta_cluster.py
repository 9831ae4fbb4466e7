"""MDS cluster: subtree vs hash-path distribution, sharded directories.

The cluster model is ``examples/mds_cluster.py``: nothing in the package
uses it, and these tests keep it working against the metadata server."""

import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError, FileNotFound

from tests.conftest import small_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
from mds_cluster import MDSCluster  # noqa: E402


def make_cluster(distribution="subtree", nservers=4, layout="embedded", **kw):
    return MDSCluster(
        small_config(layout=layout), nservers=nservers, distribution=distribution, **kw
    )


class TestBasics:
    def test_validation(self):
        with pytest.raises(ConfigError):
            make_cluster(nservers=0)
        with pytest.raises(ConfigError):
            make_cluster(distribution="round-robin")

    def test_namespace_roundtrip_both_distributions(self):
        for dist in ("subtree", "hash-path"):
            cluster = make_cluster(dist)
            d = cluster.mkdir("proj")
            for i in range(20):
                cluster.create(d, f"f{i}")
            inode = cluster.stat(d, "f3")
            assert inode.name == "f3"
            inodes = cluster.readdir_stat(d)
            assert {i.name for i in inodes} == {f"f{i}" for i in range(20)}
            cluster.delete(d, "f3")
            assert {i.name for i in cluster.readdir_stat(d)} == {
                f"f{i}" for i in range(20) if i != 3
            }

    def test_duplicate_dir_rejected(self):
        cluster = make_cluster()
        cluster.mkdir("d")
        with pytest.raises(ConfigError):
            cluster.mkdir("d")


class TestDistributionLocality:
    def test_subtree_keeps_directory_on_one_server(self):
        cluster = make_cluster("subtree")
        d = cluster.mkdir("proj")
        for i in range(30):
            cluster.create(d, f"f{i}")
        busy = [s.ops for s in cluster.servers]
        assert sum(1 for b in busy if b > 0) == 1

    def test_hash_path_spreads_inodes(self):
        cluster = make_cluster("hash-path")
        d = cluster.mkdir("proj")
        for i in range(30):
            cluster.create(d, f"f{i}")
        busy = [s.ops for s in cluster.servers]
        assert sum(1 for b in busy if b > 0) > 1

    def test_embedded_gain_vanishes_under_hash_path(self):
        """§IV.D: hashed distribution sacrifices the locality embedded
        directories exploit — measured as the per-directory disk footprint
        of an aggregated ls -l."""

        def rdstat_requests(layout: str, dist: str) -> int:
            cluster = make_cluster(dist, layout=layout)
            d = cluster.mkdir("proj")
            for i in range(512):
                cluster.create(d, f"f{i:04d}")
            cluster.flush()
            cluster.drop_caches()
            before = sum(
                s.metrics.count("disk.requests") for s in cluster.servers
            )
            cluster.readdir_stat(d)
            return (
                sum(s.metrics.count("disk.requests") for s in cluster.servers)
                - before
            )

        # Subtree: embedded reads far fewer blocks than normal.
        subtree_ratio = rdstat_requests("embedded", "subtree") / rdstat_requests(
            "normal", "subtree"
        )
        # Hash-path: entries scatter over 4 servers; the relative embedded
        # saving shrinks (each server only holds a fragment).
        hash_ratio = rdstat_requests("embedded", "hash-path") / rdstat_requests(
            "normal", "hash-path"
        )
        assert subtree_ratio < 1.0
        assert hash_ratio > subtree_ratio


class TestShardedDirectories:
    def test_sharded_create_and_stat(self):
        cluster = make_cluster("subtree")
        d = cluster.mkdir("giant", sharded=True)
        for i in range(64):
            cluster.create(d, f"p{i:05d}")
        assert cluster.stat(d, "p00042").name == "p00042"
        assert len(cluster.readdir_stat(d)) == 64

    def test_shards_balance_across_servers(self):
        cluster = make_cluster("subtree")
        d = cluster.mkdir("giant", sharded=True)
        for i in range(200):
            cluster.create(d, f"p{i:05d}")
        counts = [s.metrics.count("mds.op.create") for s in cluster.servers]
        assert min(counts) > 0  # every server holds a shard's worth

    def test_hash_collection_avoids_broadcast(self):
        """§IV.C: the primary's name-hash collection answers lookups with
        one RPC; without it the cluster probes every shard."""
        with_index = make_cluster("subtree", hash_collection=True)
        without = make_cluster("subtree", hash_collection=False)
        for cluster in (with_index, without):
            d = cluster.mkdir("giant", sharded=True)
            for i in range(64):
                cluster.create(d, f"p{i:05d}")
            cluster.metrics.reset()
            for i in range(0, 64, 7):
                cluster.stat(d, f"p{i:05d}")
        assert with_index.rpcs() < without.rpcs()

    def test_missing_name_raises_in_both_modes(self):
        for hc in (True, False):
            cluster = make_cluster("subtree", hash_collection=hc)
            d = cluster.mkdir("giant", sharded=True)
            cluster.create(d, "exists")
            with pytest.raises(FileNotFound):
                cluster.stat(d, "missing")


class TestParallelTimelines:
    def test_makespan_is_max_not_sum(self):
        cluster = make_cluster("subtree", nservers=2)
        d1 = cluster.mkdir("a")
        d2 = cluster.mkdir("bb")  # hashes elsewhere with high probability
        for i in range(50):
            cluster.create(d1, f"f{i}")
            cluster.create(d2, f"f{i}")
        assert cluster.makespan_s <= cluster.total_busy_s
        assert cluster.makespan_s == max(s.elapsed_s for s in cluster.servers)
