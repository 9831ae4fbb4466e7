"""Trace serialization and replay.

The micro-benchmark synthesizes LLNL-style traces in memory
(:mod:`repro.workloads.traces`); this module round-trips them through a
plain-text format so traces can be saved, edited, shared and replayed —
the workflow a downstream user of the library actually has.

Format: one record per line, ``seq,proc,op,offset,nbytes``, with ``#``
comments and blank lines ignored.
"""

from __future__ import annotations

import io
from collections.abc import Iterable

from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.stream import make_stream_id
from repro.sim.metrics import ThroughputResult
from repro.workloads.base import READ, WRITE, StreamProgram, run_data_phase
from repro.workloads.traces import TraceRecord, trace_streams

HEADER = "# repro trace v1: seq,proc,op,offset,nbytes"


def dump_trace(records: Iterable[TraceRecord]) -> str:
    """Serialize trace records to the line format."""
    out = io.StringIO()
    out.write(HEADER + "\n")
    for rec in records:
        out.write(f"{rec.sequence},{rec.proc},{rec.op},{rec.offset},{rec.nbytes}\n")
    return out.getvalue()


def load_trace(text: str) -> list[TraceRecord]:
    """Parse the line format back into trace records.

    >>> recs = load_trace(dump_trace([TraceRecord(0, 1, "write", 0, 4096)]))
    >>> (recs[0].proc, recs[0].op, recs[0].nbytes)
    (1, 'write', 4096)
    """
    records: list[TraceRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ConfigError(f"trace line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            seq, proc = int(parts[0]), int(parts[1])
            op = parts[2].strip()
            offset, nbytes = int(parts[3]), int(parts[4])
        except ValueError as exc:
            raise ConfigError(f"trace line {lineno}: {exc}") from None
        records.append(TraceRecord(seq, proc, op, offset, nbytes))
    return records


def save_trace(records: Iterable[TraceRecord], path: str) -> None:
    """Write a trace file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_trace(records))


def read_trace(path: str) -> list[TraceRecord]:
    """Read a trace file."""
    with open(path, encoding="utf-8") as fh:
        return load_trace(fh.read())


def replay(
    plane: DataPlane,
    f: RedbudFile,
    records: list[TraceRecord],
    threads_per_client: int = 4,
    skip_probability: float = 0.1,
    seed: int = 0,
) -> ThroughputResult:
    """Replay a trace against one file, concurrency per process preserved.

    Process ids map to stream ids exactly as the micro-benchmark does
    (``client = proc // threads_per_client``, ``pid = proc %``).
    """
    if threads_per_client <= 0:
        raise ConfigError(f"threads_per_client must be positive: {threads_per_client}")
    programs = [
        StreamProgram.from_columns(
            make_stream_id(proc // threads_per_client, proc % threads_per_client),
            f,
            [WRITE if r.op == "write" else READ for r in recs],
            [r.offset for r in recs],
            [r.nbytes for r in recs],
        )
        for proc, recs in sorted(trace_streams(records).items())
    ]
    return run_data_phase(
        plane, programs, skip_probability=skip_probability, seed=seed
    )
