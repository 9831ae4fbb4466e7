#!/usr/bin/env python3
"""Trace serialization and replay.

The micro-benchmark synthesizes LLNL-style traces in memory
(:mod:`repro.workloads.traces`); this module round-trips them through a
plain-text format so traces can be saved, edited, shared and replayed —
the workflow a downstream user of the library actually has.  No runner or
claim of the package uses it; ``tests/test_replay_visual_cli.py``,
``tests/test_phase_columns.py`` and ``tests/test_doctests.py`` import it.

Format: one record per line, ``seq,proc,op,offset,nbytes``, with ``#``
comments and blank lines ignored.

Run:  python examples/trace_replay.py [trace-file]

replays the given trace file under the reservation and on-demand
policies; without one, it first writes a 32-process checkpoint trace to a
temporary file.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from collections.abc import Iterable

from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.fs.file import RedbudFile
from repro.fs.profiles import redbud_vanilla_profile, with_alloc_policy
from repro.fs.stream import make_stream_id
from repro.sim.metrics import ThroughputResult
from repro.units import KiB, MiB
from repro.workloads.base import READ, WRITE, StreamProgram, run_data_phase
from repro.workloads.traces import TraceRecord, synth_checkpoint_trace, trace_streams

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


def main() -> None:
    if len(sys.argv) > 1:
        records = read_trace(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "llnl.trace")
            save_trace(synth_checkpoint_trace(32, 4096 * KiB, 16 * KiB), path)
            print("synthesized a 32-process checkpoint trace")
            records = read_trace(path)
    total = sum(r.nbytes for r in records)
    print(f"replaying {len(records)} records ({total // MiB} MiB) ...")
    for policy in ("reservation", "ondemand"):
        plane = DataPlane(with_alloc_policy(redbud_vanilla_profile(ndisks=5), policy))
        f = plane.create_file("/trace.dat", expected_bytes=total)
        result = replay(plane, f, records)
        print(f"  {policy:12s} {result.mib_per_s:8.1f} MiB/s, {f.extent_count} extents")


if __name__ == "__main__":
    main()
