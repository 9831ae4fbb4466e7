"""Trace readers: the round-trip oracles for ``to_jsonl`` / ``to_chrome``.

Nothing in the simulator reads a trace back — a run only writes one — so
the inverse of each exporter lives here, next to the tests that hold the
exporters to it: a written trace must read back to the events that went
in, field for field.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

from repro.obs.trace import TraceEvent


def read_jsonl(src: str | Path | IO[str]) -> list[TraceEvent]:
    """Read events written by :func:`repro.obs.export.to_jsonl`."""
    if hasattr(src, "read"):
        lines = src.read().splitlines()
    else:
        lines = Path(src).read_text(encoding="utf-8").splitlines()
    events: list[TraceEvent] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        events.append(
            TraceEvent(
                t=float(rec["t"]),
                layer=rec["layer"],
                op=rec["op"],
                dur=float(rec.get("dur", 0.0)),
                stream=rec.get("stream"),
                attrs=dict(rec.get("attrs", {})),
            )
        )
    return events


def read_chrome(src: str | Path | IO[str]) -> list[TraceEvent]:
    """Read a Chrome trace-event JSON back into :class:`TraceEvent` form;
    the exact ``stream`` key wins over the thread id it shares with None."""
    if hasattr(src, "read"):
        doc = json.load(src)
    else:
        with open(src, encoding="utf-8") as f:
            doc = json.load(f)
    raw = doc["traceEvents"] if isinstance(doc, dict) else doc
    events: list[TraceEvent] = []
    for rec in raw:
        tid = rec.get("tid", 0)
        stream = rec["stream"] if "stream" in rec else (tid if tid != 0 else None)
        events.append(
            TraceEvent(
                t=float(rec["ts"]) / 1e6,
                layer=rec.get("cat", ""),
                op=rec.get("name", ""),
                dur=float(rec.get("dur", 0.0)) / 1e6,
                stream=stream,
                attrs=dict(rec.get("args", {})),
            )
        )
    return events
