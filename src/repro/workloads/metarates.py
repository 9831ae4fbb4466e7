"""Metarates-like metadata benchmark (§V.D.1, Fig. 8).

"We used Metarates application, which was an MPI application that
coordinated file system accesses from multiple clients. ... Metarates
application enforced each client to work in its own directory; each single
directory contained 5000 subfiles."  The MDS uses synchronous writes; a
cluster of 10 clients accesses one MDS with a single disk.

Clients issue operations round-robin (the MDS serializes them), so
concurrent clients' footprints interleave exactly as they would at a real
MDS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.meta.mds import MetadataServer
from repro.sim.metrics import ThroughputResult
from repro.workloads.base import MetaOp, drive, mds_executor, meta_runs


@dataclass(frozen=True)
class MetaratesWorkload:
    """Paper configuration: 10 clients × 5000 files each."""

    nclients: int = 10
    files_per_dir: int = 5000

    def __post_init__(self) -> None:
        if self.nclients <= 0 or self.files_per_dir <= 0:
            raise ConfigError("nclients and files_per_dir must be positive")

    def _dirname(self, client: int) -> str:
        return f"client{client:03d}"

    def _filename(self, client: int, i: int) -> str:
        return f"c{client:03d}_f{i:06d}"

    def setup_dirs(self, mds: MetadataServer) -> list:
        """Create one working directory per client under the root."""
        return [
            mds.mkdir(mds.root, self._dirname(c)) for c in range(self.nclients)
        ]

    # -- the four Fig. 8 workloads -----------------------------------------------
    def run_create(self, mds: MetadataServer, dirs: list) -> ThroughputResult:
        """Concurrent create: clients round-robin one create at a time."""
        return self._timed(mds, self.per_file_program(dirs, "create"))

    def run_utime(self, mds: MetadataServer, dirs: list) -> ThroughputResult:
        return self._timed(mds, self.per_file_program(dirs, "utime"))

    def run_delete(self, mds: MetadataServer, dirs: list) -> ThroughputResult:
        return self._timed(mds, self.per_file_program(dirs, "delete"))

    def run_readdir_stat(self, mds: MetadataServer, dirs: list, repeats: int = 1) -> ThroughputResult:
        """Aggregated readdirplus over every client directory."""
        return self._timed(mds, self.readdir_stat_program(dirs, repeats))

    # -- lazy send-based programs ----------------------------------------------
    def per_file_program(self, dirs: list, method: str):
        """Round-robin ``method`` over every (file, client) pair: clients
        take turns one op at a time, exactly the MDS-side interleaving of
        Metarates' MPI coordination.  Nobody reads the results, so the
        phase is yielded as :class:`~repro.workloads.base.MetaOpRun`
        records; returns the op count."""
        return meta_runs(method, (
            (d, self._filename(c, i))
            for i in range(self.files_per_dir)
            for c, d in enumerate(dirs)
        ))

    def readdir_stat_program(self, dirs: list, repeats: int = 1):
        """Aggregated readdirplus; counts the readdir plus each returned
        per-entry stat (results flow back through :func:`drive`)."""
        count = 0
        for _ in range(repeats):
            for d in dirs:
                inodes = yield MetaOp("readdir_stat", (d,))
                count += 1 + len(inodes)  # readdir + per-entry stat results
        return count

    def _timed(self, mds: MetadataServer, program) -> ThroughputResult:
        start = mds.elapsed_s
        ops = drive(program, mds_executor(mds))
        mds.flush()
        return ThroughputResult(
            bytes_moved=0, elapsed=mds.elapsed_s - start, ops=ops
        )
