"""Client file system sessions (§II.A.2, §V.A).

Redbud's "client file system is optimized to reduce the interaction cost by
congregating numbers of common operation pairs" — this module models that
client side: per-client sessions that

- **aggregate** open+getlayout into one MDS request and cache the returned
  layout, so subsequent I/O on the file costs no MDS interaction until the
  layout generation changes;
- **aggregate** readdir+stat (``ls -l``) into one readdirplus and serve
  repeat stats of listed entries from the client's attribute cache;
- stamp every data operation with the session's stream id (client id +
  thread pid), which is what the on-demand allocator keys its windows on.

No runner of the package uses it: the file system's own
:meth:`~repro.fs.redbud.RedbudFileSystem.getlayout` and
:meth:`~repro.fs.redbud.RedbudFileSystem.readdir_stat` are the aggregated
MDS calls the runners reach.  ``tests/test_fs_extensions.py`` and
``tests/test_fs_listio.py`` import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.fs.redbud import RedbudFileSystem
from repro.fs.stream import make_stream_id
from repro.meta.inode import Inode


@dataclass
class CachedLayout:
    """Client-side copy of a file's layout, validated by generation."""

    inode: Inode
    extent_records: int
    generation: int


@dataclass
class ClientStats:
    """Interaction accounting for one session."""

    mds_requests: int = 0
    layout_cache_hits: int = 0
    attr_cache_hits: int = 0


class ClientSession:
    """One client node's view of the file system."""

    def __init__(
        self,
        fs: RedbudFileSystem,
        client_id: int,
        attr_cache_capacity: int = 4096,
    ) -> None:
        if client_id < 0:
            raise ReproError(f"client_id must be >= 0: {client_id}")
        if attr_cache_capacity < 0:
            raise ReproError(f"attr_cache_capacity must be >= 0: {attr_cache_capacity}")
        self.fs = fs
        self.client_id = client_id
        self.attr_cache_capacity = attr_cache_capacity
        self.stats = ClientStats()
        self._layouts: dict[str, CachedLayout] = {}
        self._attrs: dict[str, Inode] = {}
        #: Layout generations bump on every server-side layout change.
        self._generations: dict[str, int] = {}

    # -- stream identity ---------------------------------------------------------
    def stream(self, pid: int = 0) -> int:
        """Stream id for one of this client's threads."""
        return make_stream_id(self.client_id, pid)

    # -- namespace ----------------------------------------------------------
    def create(self, path: str, expected_bytes: int | None = None):
        self.stats.mds_requests += 1
        f = self.fs.create(path, expected_bytes=expected_bytes)
        self._generations[path] = 0
        return f

    def unlink(self, path: str) -> None:
        self.stats.mds_requests += 1
        self.fs.unlink(path)
        self._layouts.pop(path, None)
        self._attrs.pop(path, None)
        self._generations.pop(path, None)

    # -- the open-getlayout aggregation ------------------------------------------
    def open(self, path: str) -> CachedLayout:
        """Open with layout caching.

        The first open issues one aggregated open+getlayout; repeats hit
        the client cache while the server-side generation is unchanged.
        """
        return self._layout(path)

    def _layout(self, path: str) -> CachedLayout:
        """One layout lookup with hit/miss accounting.

        Every data operation — read, write, readv, writev — routes through
        here exactly once, so ``stats.layout_cache_hits`` and
        ``stats.mds_requests`` count the same way on both sides of the
        read/write split (the write path historically skipped the lookup
        entirely, leaving its interaction accounting inconsistent with the
        read path's).
        """
        generation = self._generations.get(path)
        cached = self._layouts.get(path)
        if cached is not None and generation == cached.generation:
            self.stats.layout_cache_hits += 1
            return cached
        inode = self.fs.getlayout(path)  # one aggregated MDS request
        self.stats.mds_requests += 1
        f = self.fs.file_handle(path)
        layout = CachedLayout(
            inode=inode,
            extent_records=f.extent_count,
            generation=self._generations.setdefault(path, 0),
        )
        self._layouts[path] = layout
        return layout

    def write(self, path: str, offset: int, nbytes: int, pid: int = 0) -> float:
        """Write through the session; extends invalidate the cached layout
        (its generation bumps when new extents appear)."""
        self._layout(path)  # layout needed; usually a cache hit
        f = self.fs.file_handle(path)
        before = (f.mapped_blocks, f.extent_count)
        elapsed = self.fs.write(path, offset, nbytes, stream=self.stream(pid))
        if (f.mapped_blocks, f.extent_count) != before:
            self._generations[path] = self._generations.get(path, 0) + 1
        return elapsed

    def read(self, path: str, offset: int, nbytes: int, pid: int = 0) -> float:
        self._layout(path)  # layout needed; usually a cache hit
        return self.fs.read(path, offset, nbytes)

    # -- scatter-gather list I/O ---------------------------------------------------
    def writev(
        self, path: str, regions: list[tuple[int, int]], pid: int = 0
    ) -> float:
        """Scatter-gather write: the whole region list costs one layout
        lookup (one billed MDS round trip on a cache miss) and one
        submitted batch, instead of one of each per region."""
        self._layout(path)
        f = self.fs.file_handle(path)
        before = (f.mapped_blocks, f.extent_count)
        elapsed = self.fs.writev(path, regions, stream=self.stream(pid))
        if (f.mapped_blocks, f.extent_count) != before:
            self._generations[path] = self._generations.get(path, 0) + 1
        return elapsed

    def readv(
        self, path: str, regions: list[tuple[int, int]], pid: int = 0
    ) -> float:
        """Scatter-gather read: one layout lookup and one submitted batch
        for the whole region list."""
        self._layout(path)
        return self.fs.readv(path, regions)

    # -- the readdir-stat aggregation ----------------------------------------------
    def ls_l(self, dirpath: str) -> list[Inode]:
        """Aggregated ls -l; fills the client attribute cache."""
        inodes = self.fs.readdir_stat(dirpath)
        self.stats.mds_requests += 1
        for inode in inodes:
            if len(self._attrs) >= self.attr_cache_capacity:
                break
            self._attrs[f"{dirpath.rstrip('/')}/{inode.name}"] = inode
        return inodes

    def stat(self, path: str) -> Inode:
        """Stat served from the attribute cache when a prior ls -l (or
        stat) already fetched it."""
        cached = self._attrs.get(path)
        if cached is not None:
            self.stats.attr_cache_hits += 1
            return cached
        inode = self.fs.stat(path)
        self.stats.mds_requests += 1
        if len(self._attrs) < self.attr_cache_capacity:
            self._attrs[path] = inode
        return inode

    def invalidate(self, path: str | None = None) -> None:
        """Drop cached state (lease expiry / revoked delegation)."""
        if path is None:
            self._layouts.clear()
            self._attrs.clear()
        else:
            self._layouts.pop(path, None)
            self._attrs.pop(path, None)


def make_clients(fs: RedbudFileSystem, n: int) -> list[ClientSession]:
    """Convenience: n client sessions over one file system.

    >>> from repro.fs.redbud import RedbudFileSystem
    >>> from repro.fs.profiles import redbud_mif_profile
    >>> clients = make_clients(RedbudFileSystem(redbud_mif_profile()), 3)
    >>> [c.client_id for c in clients]
    [0, 1, 2]
    """
    if n <= 0:
        raise ReproError(f"need at least one client: {n}")
    return [ClientSession(fs, i) for i in range(n)]
