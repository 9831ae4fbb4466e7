"""Redbud file system facade: path-based namespace over the metadata server
plus the striped data plane.

Examples and integration tests use this convenience API; experiment engines
that need explicit concurrency control (batching concurrent streams'
requests) drive the :class:`~repro.fs.dataplane.DataPlane` and
:class:`~repro.meta.mds.MetadataServer` directly — both are exposed as
attributes.
"""

from __future__ import annotations

import posixpath

from repro.config import FSConfig
from repro.errors import FileExists, FileNotFound, MetadataError, NoSpaceError
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.stream import StreamId
from repro.meta.mds import MetadataServer
from repro.obs.trace import NullTracer, Tracer
from repro.sim.metrics import Metrics


class RedbudFileSystem:
    """Parallel file system: clients see paths; data is striped over PAGs;
    metadata lives at the MDS."""

    def __init__(
        self,
        config: FSConfig,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()
        self.data = DataPlane(config, self.metrics, tracer)
        self.mds = MetadataServer(config, self.metrics, tracer)
        self._dirs: dict[str, object] = {"/": self.mds.root}
        self._files: dict[str, RedbudFile] = {}

    # -- namespace -----------------------------------------------------------
    def mkdir(self, path: str) -> None:
        path = _norm(path)
        if path in self._dirs or path in self._files:
            raise FileExists(path)
        parent, name = self._split(path)
        handle = self.mds.mkdir(self._dir_handle(parent), name)
        self._dirs[path] = handle

    def create(self, path: str, expected_bytes: int | None = None) -> RedbudFile:
        path = _norm(path)
        if path in self._dirs or path in self._files:
            raise FileExists(path)
        parent, name = self._split(path)
        self.mds.create(self._dir_handle(parent), name)
        try:
            f = self.data.create_file(path, expected_bytes=expected_bytes)
        except NoSpaceError:
            self.mds.delete(self._dir_handle(parent), name)
            raise
        self._files[path] = f
        return f

    def open(self, path: str) -> RedbudFile:
        """Open with the aggregated open-getlayout pair (§II.A.2)."""
        path = _norm(path)
        f = self._file_handle(path)
        parent, name = self._split(path)
        self.mds.open_getlayout(self._dir_handle(parent), name)
        return f

    def getlayout(self, path: str):
        """The aggregated open+getlayout, returning the inode (what a
        client caches)."""
        path = _norm(path)
        parent, name = self._split(path)
        return self.mds.open_getlayout(self._dir_handle(parent), name)

    def unlink(self, path: str) -> None:
        path = _norm(path)
        f = self._file_handle(path)
        parent, name = self._split(path)
        self.mds.delete(self._dir_handle(parent), name)
        self.data.delete_file(f)
        del self._files[path]

    def rename(self, src: str, dst: str) -> None:
        src, dst = _norm(src), _norm(dst)
        sparent, sname = self._split(src)
        dparent, dname = self._split(dst)
        self.mds.rename(
            self._dir_handle(sparent), sname, self._dir_handle(dparent), dname
        )
        if src in self._files:
            f = self._files[dst] = self._files.pop(src)
            f.name = dst  # the data plane's file goes by its path too
        elif src in self._dirs:
            self._dirs[dst] = self._dirs.pop(src)
            prefix = src + "/"
            for old in [p for p in self._dirs if p.startswith(prefix)]:
                self._dirs[dst + old[len(src):]] = self._dirs.pop(old)
            for old in [p for p in self._files if p.startswith(prefix)]:
                f = self._files[dst + old[len(src):]] = self._files.pop(old)
                f.name = dst + old[len(src):]
        else:
            raise FileNotFound(src)

    # -- metadata ops ------------------------------------------------------------
    def stat(self, path: str):
        path = _norm(path)
        parent, name = self._split(path)
        return self.mds.stat(self._dir_handle(parent), name)

    def utime(self, path: str) -> None:
        path = _norm(path)
        parent, name = self._split(path)
        self.mds.utime(self._dir_handle(parent), name)

    def readdir(self, path: str) -> list[str]:
        return self.mds.readdir(self._dir_handle(_norm(path)))

    def readdir_stat(self, path: str):
        """ls -l via the aggregated readdirplus request."""
        return self.mds.readdir_stat(self._dir_handle(_norm(path)))

    def sync_layout_to_mds(self, path: str) -> None:
        """Push a file's current data-plane extent count into its MDS inode
        (layout update after extends)."""
        path = _norm(path)
        f = self._file_handle(path)
        parent, name = self._split(path)
        self.mds.set_extent_records(
            self._dir_handle(parent), name, f.extent_count
        )

    # -- data ops (single-stream convenience: submits immediately) ----------------
    def write(self, path: str, offset: int, nbytes: int, stream: StreamId = 0) -> float:
        """Write and wait; returns simulated disk seconds."""
        f = self._file_handle(_norm(path))
        return self.data.array.submit_batch(*self.data.write(f, stream, offset, nbytes), True)

    def read(self, path: str, offset: int, nbytes: int) -> float:
        """Read and wait; returns simulated disk seconds."""
        f = self._file_handle(_norm(path))
        return self.data.array.submit_batch(*self.data.read(f, offset, nbytes), False)

    def writev(
        self,
        path: str,
        regions: list[tuple[int, int]],
        stream: StreamId = 0,
    ) -> float:
        """Scatter-gather write: one list request over ``(offset, nbytes)``
        regions, submitted as a single batch (see docs/LISTIO.md)."""
        f = self._file_handle(_norm(path))
        return self.data.array.submit_batch(*self.data.writev(f, stream, regions), True)

    def readv(self, path: str, regions: list[tuple[int, int]]) -> float:
        """Scatter-gather read: one list request over ``(offset, nbytes)``
        regions, submitted as a single batch (see docs/LISTIO.md)."""
        f = self._file_handle(_norm(path))
        return self.data.array.submit_batch(*self.data.readv(f, regions), False)

    def fsync(self, path: str) -> float:
        f = self._file_handle(_norm(path))
        return self.data.array.submit_batch(*self.data.fsync(f), True)

    # -- handles -----------------------------------------------------------------
    def file_handle(self, path: str) -> RedbudFile:
        return self._file_handle(_norm(path))

    def dir_handle(self, path: str):
        return self._dir_handle(_norm(path))

    def exists(self, path: str) -> bool:
        path = _norm(path)
        return path in self._files or path in self._dirs

    def _dir_handle(self, path: str):
        try:
            return self._dirs[path]
        except KeyError:
            raise FileNotFound(f"no such directory: {path}") from None

    def _file_handle(self, path: str) -> RedbudFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(f"no such file: {path}") from None

    def _split(self, path: str) -> tuple[str, str]:
        parent, name = posixpath.split(path)
        if not name:
            raise MetadataError(f"invalid path: {path!r}")
        return (parent or "/", name)


def _norm(path: str) -> str:
    if not path.startswith("/"):
        raise MetadataError(f"paths must be absolute: {path!r}")
    norm = posixpath.normpath(path)
    return norm
