"""NPB BTIO-like macro-benchmark (§V.C.2, Fig. 7).

BTIO "solves the 3D compressible Navier-Stokes equations using MPI-IO for
its on-disk data access".  Its block-tridiagonal decomposition makes every
process append many *small, non-contiguous* chunks per time step — each
process owns diagonal sub-cubes, so a process's consecutive file offsets
are strided by the other processes' data.  That is the worst case for
per-inode reservation (heavy interleaving, small requests) and why the
paper's on-demand gain is larger for BTIO than for IOR (+19%
non-collective).

Collective I/O re-aggregates each append wave into large contiguous
requests, which the paper found "much better" and nearly
placement-insensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.stream import make_stream_id
from repro.sim.metrics import ThroughputResult
from repro.workloads.base import READ, WRITE, StreamProgram, run_data_phase


@dataclass(frozen=True)
class BTIOBenchmark:
    """BTIO parameters (paper: 16 nodes × 4 cores = 64 processes)."""

    nprocs: int = 64
    #: Data appended per process per time step.
    step_bytes_per_proc: int = 1024 * 1024
    steps: int = 8
    #: Per-write size in non-collective mode (BT cells are small).
    chunk_bytes: int = 8 * 1024
    #: A process's cell row is one contiguous sub-run of this many bytes;
    #: successive sub-runs of the same process are strided by the other
    #: processes' rows (the diagonal sub-cube pattern).
    subrun_bytes: int = 128 * 1024
    collective: bool = False
    aggregators: int = 16

    def __post_init__(self) -> None:
        if self.nprocs <= 0 or self.steps <= 0:
            raise ConfigError("nprocs and steps must be positive")
        if self.step_bytes_per_proc <= 0 or self.chunk_bytes <= 0:
            raise ConfigError("sizes must be positive")
        if self.subrun_bytes % self.chunk_bytes != 0:
            raise ConfigError("subrun_bytes must be chunk-aligned")
        if self.step_bytes_per_proc % self.subrun_bytes != 0:
            raise ConfigError("step_bytes_per_proc must be subrun-aligned")
        ncells = int(round(self.nprocs ** 0.5))
        if ncells * ncells != self.nprocs:
            raise ConfigError("BTIO requires a square process count")
        if self.aggregators <= 0:
            raise ConfigError("aggregators must be positive")

    @property
    def file_bytes(self) -> int:
        return self.nprocs * self.step_bytes_per_proc * self.steps

    def create_file(self, plane: DataPlane, name: str = "/btio.out") -> RedbudFile:
        return plane.create_file(name, expected_bytes=self.file_bytes)

    def _programs(self, f: RedbudFile, kind: int) -> list[StreamProgram]:
        step_total = self.nprocs * self.step_bytes_per_proc
        step_base = np.arange(self.steps, dtype=np.int64) * step_total
        if self.collective:
            # Each step's wave is re-aggregated into contiguous slabs.
            nstreams = self.aggregators
            slab = step_total // nstreams
            return [
                StreamProgram.from_columns(
                    make_stream_id(a, 0), f, kind,
                    step_base + a * slab, np.full(self.steps, slab),
                )
                for a in range(nstreams)
            ]
        # Non-collective: each process writes its cell rows as contiguous
        # sub-runs (chunk-sized writes within a row), but successive rows of
        # one process are strided by the other processes' rows, rotating
        # diagonally — row r of the step is owned by process (p + r) mod n.
        rows_per_step = self.step_bytes_per_proc // self.subrun_bytes
        chunks_per_row = self.subrun_bytes // self.chunk_bytes
        ncells = int(round(math.sqrt(self.nprocs)))
        assert ncells * ncells == self.nprocs
        row = np.arange(rows_per_step, dtype=np.int64)
        chunk = np.arange(chunks_per_row, dtype=np.int64) * self.chunk_bytes
        nbytes = np.full(self.steps * rows_per_step * chunks_per_row, self.chunk_bytes)

        def offsets(p):
            # (step, row, chunk) in the order the process issues them.
            row_base = (row * self.nprocs + (p + row) % self.nprocs) * self.subrun_bytes
            return (
                step_base[:, None, None] + row_base[None, :, None] + chunk[None, None, :]
            ).ravel()

        return [
            StreamProgram.from_columns(
                make_stream_id(p // 4, p % 4), f, kind, offsets(p), nbytes
            )
            for p in range(self.nprocs)
        ]

    def _write_programs(self, f: RedbudFile) -> list[StreamProgram]:
        return self._programs(f, WRITE)

    def write_phase(self, plane: DataPlane, f: RedbudFile) -> ThroughputResult:
        return run_data_phase(plane, self._write_programs(f))

    def read_phase(self, plane: DataPlane, f: RedbudFile) -> ThroughputResult:
        """Solution verification: each process reads back its *own* cells
        with the same decomposition it wrote them with (BTIO's -rcheck)."""
        return run_data_phase(plane, self._programs(f, READ))
