"""IOR2-like macro-benchmark (§V.C.2, Fig. 7).

"IOR2, which is configured at shared mode; basically it writes a large
amount of data to one file and then reads them back to verify the
correctness of the data; each of the m MPI processes is responsible to read
or write 1/m of a file."  Requests are 32-64 KiB and "each process accesses
contiguous data in its access scope" — which is why the paper sees a smaller
on-demand gain for IOR than for BTIO.

Collective I/O is modelled after the paper's profiling: "the size of
collective-I/O requests is around 40MB" — aggregator processes exchange
data and issue few huge contiguous writes, so placement policy barely
matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.stream import make_stream_id
from repro.sim.metrics import ThroughputResult
from repro.workloads.base import READ, WRITE, StreamProgram, run_data_phase


@dataclass(frozen=True)
class IORBenchmark:
    """IOR shared-mode parameters (paper: 16 nodes × 4 cores, 8 disks)."""

    nprocs: int = 64
    file_bytes: int = 512 * 1024 * 1024
    request_bytes: int = 64 * 1024      # paper: 32K-64K
    collective: bool = False
    collective_request_bytes: int = 40 * 1024 * 1024
    aggregators: int = 16               # one per node

    def __post_init__(self) -> None:
        if self.nprocs <= 0 or self.file_bytes <= 0 or self.request_bytes <= 0:
            raise ConfigError("nprocs, file_bytes, request_bytes must be positive")
        if self.file_bytes % self.nprocs != 0:
            raise ConfigError("file_bytes must divide evenly among processes")
        if self.aggregators <= 0 or self.collective_request_bytes <= 0:
            raise ConfigError("collective parameters must be positive")

    @property
    def share_bytes(self) -> int:
        return self.file_bytes // self.nprocs

    def create_file(self, plane: DataPlane, name: str = "/ior.dat") -> RedbudFile:
        return plane.create_file(name, expected_bytes=self.file_bytes)

    def _programs(self, f: RedbudFile, write: bool) -> list[StreamProgram]:
        if self.collective:
            # Aggregated two-phase I/O: few streams, huge contiguous requests.
            nstreams = self.aggregators
            share = self.file_bytes // nstreams
            request = min(self.collective_request_bytes, share)
        else:
            nstreams = self.nprocs
            share = self.share_bytes
            request = self.request_bytes
        cursor = np.arange(0, share, request, dtype=np.int64)
        nbytes = np.minimum(request, share - cursor)
        return [
            StreamProgram.from_columns(
                make_stream_id(p // 4, p % 4),
                f,
                WRITE if write else READ,
                p * share + cursor,
                nbytes,
            )
            for p in range(nstreams)
        ]

    def write_phase(self, plane: DataPlane, f: RedbudFile) -> ThroughputResult:
        return run_data_phase(plane, self._programs(f, write=True))

    def read_phase(self, plane: DataPlane, f: RedbudFile) -> ThroughputResult:
        return run_data_phase(plane, self._programs(f, write=False))
