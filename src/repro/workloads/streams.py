"""The paper's two-phase shared-file micro-benchmark (§V.C.1, Fig. 6).

Phase 1 — *placement*: N process streams concurrently extend disjoint
regions of one shared file ("4 threads on each client ... all of them wrote
different regions of a shared file concurrently"), interleaved in arrival
order.  This is where the preallocation policy decides the on-disk layout.

Phase 2 — *measurement*: "the shared file was split into 1024 segments and
each one was sequentially read/written by a thread in cluster".  Segments
are dealt round-robin to the reader threads; each thread reads its segments
sequentially.  Fragmented placement makes even this sequential access
thrash the disk head.
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
from repro.workloads.traces import synth_checkpoint_trace, trace_streams


@dataclass(frozen=True)
class SharedFileMicrobench:
    """Parameters of the two-phase micro-benchmark."""

    nstreams: int = 32
    file_bytes: int = 256 * 1024 * 1024
    #: Phase-1 request ("allocation") size — Fig. 6(b)'s x axis.
    write_request_bytes: int = 16 * 1024
    #: Phase-2 read request size.
    read_request_bytes: int = 64 * 1024
    segments: int = 1024
    #: Concurrent reader threads in phase 2 (paper: the same cluster).
    readers: int | None = None
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nstreams <= 0 or self.file_bytes <= 0:
            raise ConfigError("nstreams and file_bytes must be positive")
        if self.write_request_bytes <= 0 or self.read_request_bytes <= 0:
            raise ConfigError("request sizes must be positive")
        if self.segments <= 0:
            raise ConfigError("segments must be positive")
        if self.file_bytes % self.nstreams != 0:
            raise ConfigError("file_bytes must divide evenly among streams")

    @property
    def region_bytes(self) -> int:
        return self.file_bytes // self.nstreams

    # -- phases ----------------------------------------------------------------
    def create_shared_file(self, plane: DataPlane, name: str = "/shared.chk") -> RedbudFile:
        """Create the shared file (declares its size so the static policy
        can fallocate — other policies ignore the declaration)."""
        return plane.create_file(name, expected_bytes=self.file_bytes)

    def write_programs(self, f: RedbudFile) -> list[StreamProgram]:
        """Per-stream write programs driven by the synthetic trace.

        The trace itself is derived once (it defines the arrival-order
        interleaving); each program holds its stream's records as columns.
        """
        records = synth_checkpoint_trace(
            self.nstreams,
            self.region_bytes,
            self.write_request_bytes,
            jitter=self.jitter,
            seed=self.seed,
        )

        return [
            StreamProgram.from_columns(
                make_stream_id(proc // 4, proc % 4),
                f,
                WRITE,
                [rec.offset for rec in recs],
                [rec.nbytes for rec in recs],
            )
            for proc, recs in sorted(trace_streams(records).items())
        ]

    def phase1_write(self, plane: DataPlane, f: RedbudFile) -> ThroughputResult:
        """Concurrent placement phase driven by the synthetic LLNL trace."""
        return run_data_phase(plane, self.write_programs(f))

    def read_programs(self, f: RedbudFile) -> list[StreamProgram]:
        """Per-reader programs: segments dealt round-robin, each read
        sequentially in ``read_request_bytes`` chunks."""
        readers = self.readers if self.readers is not None else self.nstreams
        if readers <= 0:
            raise ConfigError("readers must be positive")
        seg_bytes = self.file_bytes // self.segments
        if seg_bytes == 0:
            raise ConfigError("more segments than bytes")

        cursor = np.arange(0, seg_bytes, self.read_request_bytes, dtype=np.int64)
        chunk = np.minimum(self.read_request_bytes, seg_bytes - cursor)

        def program(reader):
            base = np.arange(reader, self.segments, readers, dtype=np.int64) * seg_bytes
            return StreamProgram.from_columns(
                make_stream_id(1000 + reader // 4, reader % 4),
                f,
                READ,
                (base[:, None] + cursor[None, :]).ravel(),
                np.tile(chunk, base.shape[0]),
            )

        return [program(i) for i in range(readers)]

    def phase2_read(self, plane: DataPlane, f: RedbudFile) -> ThroughputResult:
        """Segmented sequential read-back (the measured phase)."""
        return run_data_phase(plane, self.read_programs(f))
