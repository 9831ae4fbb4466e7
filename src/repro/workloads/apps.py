"""Application workloads over a kernel-like source tree (§V.D.3, Fig. 10).

"the three applications all use files (or tar.gz) of linux kernel code
(v2.6.30)": tar (read every file, metadata-heavy), make (read sources,
compile — CPU-intensive — and write objects), and make-clean (delete the
objects).  Each of 10 clients runs the workload in its own directory
concurrently, approximating "activities common to small scale software
development environments".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.fs.redbud import RedbudFileSystem
from repro.workloads.base import MetaOp, drive, mds_executor
from repro.workloads.filesizes import kernel_tree_sizes, tarball_bytes


@dataclass
class AppResult:
    """Execution-time breakdown of one application run."""

    elapsed_s: float
    mds_s: float
    data_s: float
    cpu_s: float
    ops: int


@dataclass(frozen=True)
class KernelTree:
    """A kernel-source-like tree: dirs of small files under one root."""

    files_per_dir: int = 100
    dirs: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.files_per_dir <= 0 or self.dirs <= 0:
            raise ConfigError("files_per_dir and dirs must be positive")

    @property
    def nfiles(self) -> int:
        return self.files_per_dir * self.dirs

    def sizes(self) -> np.ndarray:
        return kernel_tree_sizes(self.nfiles, seed=self.seed)

    def populate(self, fs: RedbudFileSystem, root: str) -> list[str]:
        """Create the tree under ``root``; returns all file paths."""
        sizes = self.sizes()
        paths: list[str] = []
        i = 0
        fs.mkdir(root)
        for d in range(self.dirs):
            dpath = f"{root}/dir{d:03d}"
            fs.mkdir(dpath)
            for _ in range(self.files_per_dir):
                path = f"{dpath}/src{i:05d}.c"
                fs.create(path)
                fs.write(path, 0, int(sizes[i]))
                paths.append(path)
                i += 1
        return paths


class _AppBase:
    """Shared timing harness: drives the send-based op program each app
    defines (``program(root)``) against the file system with MDS/data/CPU
    accounting.

    Application programs are result-dependent — tar lists a directory
    before reading its files, make compiles what ``readdir`` reports — so
    they use the send-based protocol of
    :func:`repro.workloads.base.drive`: each yielded
    :class:`~repro.workloads.base.MetaOp`'s return value is sent back into
    the generator.
    """

    #: Extra client-side CPU seconds charged per operated file.
    cpu_s_per_file = 0.0

    def __init__(self, tree: KernelTree) -> None:
        self.tree = tree

    def run(self, fs: RedbudFileSystem, root: str) -> AppResult:
        mds0 = fs.mds.elapsed_s
        data0 = fs.data.array.total_busy_s
        ops = drive(self.program(root), mds_executor(fs))
        mds_s = fs.mds.elapsed_s - mds0
        data_s = fs.data.array.total_busy_s - data0
        cpu_s = ops * self.cpu_s_per_file
        return AppResult(
            elapsed_s=mds_s + data_s + cpu_s,
            mds_s=mds_s,
            data_s=data_s,
            cpu_s=cpu_s,
            ops=ops,
        )


class TarApp(_AppBase):
    """tar: readdir-stat every directory, read every file, write the
    archive sequentially — file-intensive, metadata-heavy."""

    cpu_s_per_file = 2e-5  # header formatting + gzip of a few KiB

    def program(self, root: str):
        ops = 0
        for d in range(self.tree.dirs):
            dpath = f"{root}/dir{d:03d}"
            inodes = yield MetaOp("readdir_stat", (dpath,))
            ops += 1
            for inode in inodes:
                path = f"{dpath}/{inode.name}"
                f = yield MetaOp("file_handle", (path,))
                size = max(1, f.size_bytes)
                yield MetaOp("open", (path,))
                yield MetaOp("read", (path, 0, size))
                ops += 1
        archive = f"{root}/archive.tar.gz"
        yield MetaOp("create", (archive,))
        yield MetaOp("write", (archive, 0, max(1, tarball_bytes(self.tree.sizes()))))
        ops += 1
        return ops


class MakeApp(_AppBase):
    """make: read every source, compile (CPU-heavy), write one object per
    source — "Make program generates CPU-intensive workload" (§V.D.3), so
    the directory-placement win is small."""

    cpu_s_per_file = 1e-2  # compilation dominates

    def program(self, root: str):
        ops = 0
        sizes = self.tree.sizes()
        i = 0
        for d in range(self.tree.dirs):
            dpath = f"{root}/dir{d:03d}"
            names = yield MetaOp("readdir", (dpath,))
            for name in names:
                if not name.endswith(".c"):
                    continue
                src = f"{dpath}/{name}"
                yield MetaOp("open", (src,))
                handle = yield MetaOp("file_handle", (src,))
                yield MetaOp("read", (src, 0, max(1, handle.size_bytes)))
                obj = f"{dpath}/{name[:-2]}.o"
                yield MetaOp("create", (obj,))
                # Object files are roughly source-sized for -O0 builds.
                yield MetaOp("write", (obj, 0, int(max(1, sizes[min(i, sizes.size - 1)]))))
                i += 1
                ops += 1
        return ops


class MakeCleanApp(_AppBase):
    """make clean: stat + delete every object file — deletion-heavy."""

    cpu_s_per_file = 1e-6

    def program(self, root: str):
        ops = 0
        for d in range(self.tree.dirs):
            dpath = f"{root}/dir{d:03d}"
            names = yield MetaOp("readdir", (dpath,))
            for name in list(names):
                if name.endswith(".o"):
                    yield MetaOp("unlink", (f"{dpath}/{name}",))
                    ops += 1
        return ops
