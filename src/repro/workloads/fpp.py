"""File-per-process counterpart of the shared-file micro-benchmark.

§II.A.1 cites Wang's trace study: "the throughput of using an individual
output file for each node exceeds that of using a shared file for all
nodes by a factor of 5" — because per-process files never interleave at
the allocator.  MiF's pitch is to close that gap *without* giving up the
shared file (which the applications need for later analysis).

This workload writes the same total volume as
:class:`~repro.workloads.streams.SharedFileMicrobench`, but into one file
per process, then reads everything back with the same segmented pattern.
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
class FilePerProcessBench:
    """Same knobs as the shared-file bench, one output file per stream."""

    nstreams: int = 32
    total_bytes: int = 192 * 1024 * 1024
    write_request_bytes: int = 16 * 1024
    read_request_bytes: int = 64 * 1024
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nstreams <= 0 or self.total_bytes <= 0:
            raise ConfigError("nstreams and total_bytes must be positive")
        if self.total_bytes % self.nstreams != 0:
            raise ConfigError("total_bytes must divide evenly among streams")
        if self.write_request_bytes <= 0 or self.read_request_bytes <= 0:
            raise ConfigError("request sizes must be positive")

    @property
    def file_bytes(self) -> int:
        return self.total_bytes // self.nstreams

    def create_files(self, plane: DataPlane) -> list[RedbudFile]:
        return [
            plane.create_file(f"/rank{p:04d}.out", expected_bytes=self.file_bytes)
            for p in range(self.nstreams)
        ]

    def _sequential_programs(
        self, files: list[RedbudFile], kind: int, request_bytes: int, first_client: int
    ) -> list[StreamProgram]:
        """One program per file, covering it in ``request_bytes`` ops."""
        offsets = np.arange(0, self.file_bytes, request_bytes, dtype=np.int64)
        nbytes = np.minimum(request_bytes, self.file_bytes - offsets)
        return [
            StreamProgram.from_columns(
                make_stream_id(first_client + p // 4, p % 4), f, kind, offsets, nbytes
            )
            for p, f in enumerate(files)
        ]

    def phase1_write(self, plane: DataPlane, files: list[RedbudFile]) -> ThroughputResult:
        """Each process appends its own file; arrivals still interleave at
        the allocator (the processes run concurrently)."""
        programs = self._sequential_programs(files, WRITE, self.write_request_bytes, 0)
        return run_data_phase(plane, programs, seed=self.seed)

    def phase2_read(self, plane: DataPlane, files: list[RedbudFile]) -> ThroughputResult:
        """Read everything back, each process its own file sequentially."""
        programs = self._sequential_programs(files, READ, self.read_request_bytes, 1000)
        return run_data_phase(plane, programs, seed=self.seed)
