"""Metadata server clusters (§IV.C, §IV.D).

Two distribution schemes frame where the embedded directory helps:

- **subtree** — "all metadata in the subtree-based partition are delegated
  to an individual metadata server.  Since on-disk metadata of a
  directory's subfiles is often accessed by the same metadata server,
  embedded directory algorithm can be integrated ... seamlessly" (§IV.D).
  Each directory (with every entry) lives wholly on one server.

- **hash-path** — "some metadata server clusters distribute the metadata
  objects by the hash value of the absolute pathname.  In this case, inode
  structures of the subfiles in the same directory are often managed by
  different servers ... the embedded directory can not improve the disk
  performance" (§IV.D).  The directory's entry list stays on its primary,
  but each file's inode lives on the server hashed from its path, so an
  aggregated readdir-stat fans out across the cluster.

§IV.C's extreme-large-directory support is modelled too: a directory may be
*sharded* across servers, and the primary "collects the hash values of the
subfiles' names" so lookups go straight to the owning shard instead of
broadcasting.

No runner or claim of the package uses it: it is an example-side model
built on the library's :class:`~repro.meta.mds.MetadataServer`, imported by
``cluster_study.py`` and the ``ablations/`` cluster sweeps.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.config import FSConfig
from repro.errors import ConfigError, FileNotFound
from repro.meta.inode import Inode
from repro.meta.mds import MetadataServer
from repro.sim.metrics import Metrics

DISTRIBUTIONS = ("subtree", "hash-path")


def _name_hash(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


@dataclass
class ClusterDir:
    """A directory as the cluster sees it."""

    name: str
    primary: int                 # server index owning the entry list
    handles: dict[int, object]   # server index -> that server's dir handle
    sharded: bool = False
    #: §IV.C: primary-side collection of name hashes for sharded dirs.
    name_hashes: dict[int, int] | None = None  # hash -> owning server


class MDSCluster:
    """N metadata servers behind one namespace."""

    def __init__(
        self,
        config: FSConfig,
        nservers: int = 4,
        distribution: str = "subtree",
        hash_collection: bool = True,
    ) -> None:
        if nservers <= 0:
            raise ConfigError(f"nservers must be positive: {nservers}")
        if distribution not in DISTRIBUTIONS:
            raise ConfigError(f"unknown distribution: {distribution!r}")
        self.config = config
        self.distribution = distribution
        self.hash_collection = hash_collection
        self.metrics = Metrics()
        self.servers = [MetadataServer(config) for _ in range(nservers)]
        self._dirs: dict[str, ClusterDir] = {}

    @property
    def nservers(self) -> int:
        return len(self.servers)

    # -- timing ---------------------------------------------------------------
    @property
    def makespan_s(self) -> float:
        """Cluster wall time: the busiest server's timeline (servers work
        in parallel; clients spread load)."""
        return max(s.elapsed_s for s in self.servers)

    @property
    def total_busy_s(self) -> float:
        return sum(s.elapsed_s for s in self.servers)

    def rpcs(self) -> int:
        return self.metrics.count("cluster.rpcs")

    def _rpc(self, n: int = 1) -> None:
        self.metrics.incr("cluster.rpcs", n)

    # -- namespace ----------------------------------------------------------
    def mkdir(self, name: str, sharded: bool = False) -> ClusterDir:
        """Create a top-level directory; ``sharded`` spreads its *entries*
        over every server (§IV.C extreme large directory)."""
        if name in self._dirs:
            raise ConfigError(f"directory exists: {name}")
        primary = _name_hash(name) % self.nservers
        handles: dict[int, object] = {}
        if sharded:
            for idx, server in enumerate(self.servers):
                handles[idx] = server.mkdir(server.root, f"{name}.shard{idx}")
                self._rpc()
        else:
            handles[primary] = self.servers[primary].mkdir(
                self.servers[primary].root, name
            )
            self._rpc()
            if self.distribution == "hash-path":
                # Shadow dirs hold remotely-hashed inodes of this directory.
                for idx, server in enumerate(self.servers):
                    if idx != primary:
                        handles[idx] = server.mkdir(server.root, f"{name}.remote")
                        self._rpc()
        d = ClusterDir(
            name=name,
            primary=primary,
            handles=handles,
            sharded=sharded,
            name_hashes={} if (sharded and self.hash_collection) else None,
        )
        self._dirs[name] = d
        return d

    def _owner_of(self, d: ClusterDir, name: str) -> int:
        if d.sharded:
            return _name_hash(f"{d.name}/{name}") % self.nservers
        if self.distribution == "hash-path":
            return _name_hash(f"/{d.name}/{name}") % self.nservers
        return d.primary

    def create(self, d: ClusterDir, name: str) -> Inode:
        owner = self._owner_of(d, name)
        if d.sharded:
            inode = self.servers[owner].create(d.handles[owner], name)
            self._rpc()
            if d.name_hashes is not None:
                d.name_hashes[_name_hash(name)] = owner
            return inode
        if self.distribution == "hash-path" and owner != d.primary:
            # Entry on the primary via its shadow-less dentry list is
            # approximated by creating the name on the primary too (dentry
            # only, negligible inode) — modelled as the remote create plus
            # one extra primary RPC.
            inode = self.servers[owner].create(d.handles[owner], name)
            self._rpc(2)
            return inode
        inode = self.servers[d.primary].create(d.handles[d.primary], name)
        self._rpc()
        return inode

    def stat(self, d: ClusterDir, name: str) -> Inode:
        owner = self._lookup_owner(d, name)
        inode = self.servers[owner].stat(d.handles[owner], name)
        self._rpc()
        return inode

    def _lookup_owner(self, d: ClusterDir, name: str) -> int:
        """§IV.C: with hash collection the primary answers ownership from
        memory; without it the cluster must probe every shard."""
        if not d.sharded:
            return self._owner_of(d, name)
        if d.name_hashes is not None:
            try:
                return d.name_hashes[_name_hash(name)]
            except KeyError:
                raise FileNotFound(name) from None
        # Broadcast probe: one RPC per shard until found.
        for idx in range(self.nservers):
            self._rpc()
            try:
                self.servers[idx].layout.stat(d.handles[idx], name)
                return idx
            except FileNotFound:
                continue
        raise FileNotFound(name)

    def readdir_stat(self, d: ClusterDir) -> list[Inode]:
        """Aggregated ls -l across the cluster.

        subtree: one request to the primary.  hash-path: the primary lists
        entries but every remotely-hashed inode costs its owner a stat.
        sharded: one readdirplus per shard (they run in parallel).
        """
        if d.sharded:
            out: list[Inode] = []
            for idx, handle in d.handles.items():
                out.extend(self.servers[idx].readdir_stat(handle))
                self._rpc()
            return out
        if self.distribution == "subtree":
            self._rpc()
            return self.servers[d.primary].readdir_stat(d.handles[d.primary])
        # hash-path: entries are spread; each server readdir-stats its own
        # shadow directory (locality within a directory is gone — §IV.D).
        out = []
        for idx, handle in d.handles.items():
            out.extend(self.servers[idx].readdir_stat(handle))
            self._rpc()
        return out

    def delete(self, d: ClusterDir, name: str) -> None:
        owner = self._lookup_owner(d, name)
        self.servers[owner].delete(d.handles[owner], name)
        self._rpc()
        if d.sharded and d.name_hashes is not None:
            d.name_hashes.pop(_name_hash(name), None)

    # -- maintenance -------------------------------------------------------------
    def flush(self) -> None:
        for s in self.servers:
            s.flush()

    def drop_caches(self) -> None:
        for s in self.servers:
            s.drop_caches()
