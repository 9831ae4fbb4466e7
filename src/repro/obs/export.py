"""Trace and telemetry exporters: JSONL, Chrome trace-event format, CSV.

For traces, JSONL is the lossless interchange format (one event per line,
round-trips through :func:`read_jsonl`).  The Chrome format produces a file
loadable in ``chrome://tracing`` / Perfetto: events become complete ("X")
slices with microsecond timestamps, the layer as the category and the
stream id as the thread id, so concurrent streams render as parallel
tracks; the exact stream (0 or None, which share thread 0) rides along
as a top-level ``stream`` key that :func:`read_chrome` prefers.

For telemetry time series (:mod:`repro.obs.timeseries`), CSV is the
spreadsheet-friendly wide format — one row per window, one column per
signal, histograms flattened to count/p50/p99/p999 — and JSONL is the
lossless one (full bucket state per frame, round-trips through
:func:`read_timeseries_jsonl`).
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable
from pathlib import Path
from typing import IO, Any

from repro.obs.histogram import HistogramSnapshot
from repro.obs.timeseries import FrameSnapshot, TimeSeriesSnapshot
from repro.obs.trace import TraceEvent


def _open_out(dest: str | Path | IO[str]):
    """Return (file object, needs_close) for a path or writable object."""
    if hasattr(dest, "write"):
        return dest, False
    return open(dest, "w", encoding="utf-8"), True


# -- JSONL ------------------------------------------------------------------

def to_jsonl(events: Iterable[TraceEvent], dest: str | Path | IO[str]) -> int:
    """Write events as JSON Lines; returns the number written."""
    out, close = _open_out(dest)
    n = 0
    try:
        for e in events:
            record = {
                "t": e.t,
                "layer": e.layer,
                "op": e.op,
                "dur": e.dur,
                "stream": e.stream,
                "attrs": e.attrs,
            }
            out.write(json.dumps(record, default=str) + "\n")
            n += 1
    finally:
        if close:
            out.close()
    return n


def read_jsonl(src: str | Path | IO[str]) -> list[TraceEvent]:
    """Read events written by :func:`to_jsonl`."""
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


# -- Chrome trace-event format ---------------------------------------------

def chrome_trace_dict(events: Iterable[TraceEvent]) -> dict[str, Any]:
    """Build the ``chrome://tracing`` JSON document for ``events``."""
    trace_events = []
    for e in events:
        trace_events.append(
            {
                "name": e.op,
                "cat": e.layer,
                "ph": "X",
                "ts": e.t * 1e6,       # microseconds, per the format spec
                "dur": e.dur * 1e6,
                "pid": 0,
                "tid": e.stream if isinstance(e.stream, int) else 0,
                "stream": e.stream,  # exact: tid 0 is both stream 0 and None
                "args": e.attrs,
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def to_chrome(events: Iterable[TraceEvent], dest: str | Path | IO[str]) -> int:
    """Write the Chrome trace-event JSON; returns the number of events."""
    doc = chrome_trace_dict(events)
    out, close = _open_out(dest)
    try:
        json.dump(doc, out, default=str)
    finally:
        if close:
            out.close()
    return len(doc["traceEvents"])


def read_chrome(src: str | Path | IO[str]) -> list[TraceEvent]:
    """Read a Chrome trace-event JSON back into :class:`TraceEvent` form."""
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


# -- telemetry time series --------------------------------------------------

#: Percentiles flattened into the wide CSV per histogram series.
_CSV_PERCENTILES: tuple[tuple[str, float], ...] = (
    ("p50", 50.0), ("p99", 99.0), ("p999", 99.9),
)


def timeseries_to_csv(ts: TimeSeriesSnapshot, dest: str | Path | IO[str]) -> int:
    """Write a time series as wide CSV; returns the number of data rows.

    One row per window.  Counter and accumulator series become one column
    each; every histogram series becomes ``<name>.count`` plus one column
    per percentile in :data:`_CSV_PERCENTILES`.  Columns are sorted, so the
    layout is deterministic for a given set of series names.
    """
    counters = ts.counter_names()
    sums = ts.sum_names()
    hists = ts.hist_names()
    header = ["window", "start_s"]
    header += counters
    header += sums
    for name in hists:
        header.append(f"{name}.count")
        header += [f"{name}.{label}" for label, _ in _CSV_PERCENTILES]
    out, close = _open_out(dest)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for f in ts.frames:
            row: list[Any] = [f.index, f"{f.start_s:.9g}"]
            row += [f.count(name) for name in counters]
            row += [f"{f.total(name):.9g}" for name in sums]
            for name in hists:
                h = f.hists.get(name)
                row.append(h.count if h is not None else 0)
                for _, p in _CSV_PERCENTILES:
                    row.append(f"{h.percentile(p):.9g}" if h is not None else "0")
            writer.writerow(row)
    finally:
        if close:
            out.close()
    return len(ts.frames)


def _hist_record(snap: HistogramSnapshot) -> dict[str, Any]:
    return {
        "count": snap.count,
        "total": snap.total,
        "zeros": snap.zeros,
        "buckets": {str(e): c for e, c in sorted(snap.buckets.items())},
        "min": snap.minimum,
        "max": snap.maximum,
    }


def _hist_from_record(rec: dict[str, Any]) -> HistogramSnapshot:
    return HistogramSnapshot(
        count=int(rec["count"]),
        total=float(rec["total"]),
        zeros=int(rec.get("zeros", 0)),
        buckets={int(e): int(c) for e, c in rec.get("buckets", {}).items()},
        minimum=rec.get("min"),
        maximum=rec.get("max"),
    )


def timeseries_to_jsonl(ts: TimeSeriesSnapshot, dest: str | Path | IO[str]) -> int:
    """Write a time series as JSON Lines; returns the number of frames.

    The first line is a header record carrying the window width; each
    following line is one frame with full histogram bucket state, so
    :func:`read_timeseries_jsonl` reconstructs a snapshot whose percentile
    queries and merges match the original exactly.
    """
    out, close = _open_out(dest)
    try:
        header = {
            "format": "repro.timeseries",
            "window_s": ts.window_s,
            "frames": len(ts.frames),
        }
        out.write(json.dumps(header) + "\n")
        for f in ts.frames:
            record = {
                "window": f.index,
                "start_s": f.start_s,
                "counters": f.counters,
                "sums": f.sums,
                "hists": {name: _hist_record(h) for name, h in f.hists.items()},
            }
            out.write(json.dumps(record) + "\n")
    finally:
        if close:
            out.close()
    return len(ts.frames)


def read_timeseries_jsonl(src: str | Path | IO[str]) -> TimeSeriesSnapshot:
    """Read a time series written by :func:`timeseries_to_jsonl`."""
    if hasattr(src, "read"):
        lines = src.read().splitlines()
    else:
        lines = Path(src).read_text(encoding="utf-8").splitlines()
    lines = [line for line in (line.strip() for line in lines) if line]
    if not lines:
        raise ValueError("empty time-series JSONL input")
    header = json.loads(lines[0])
    if header.get("format") != "repro.timeseries":
        raise ValueError(
            f"not a repro.timeseries JSONL file (header: {header!r})"
        )
    frames = []
    for line in lines[1:]:
        rec = json.loads(line)
        frames.append(
            FrameSnapshot(
                index=int(rec["window"]),
                start_s=float(rec["start_s"]),
                counters={k: int(v) for k, v in rec.get("counters", {}).items()},
                sums={k: float(v) for k, v in rec.get("sums", {}).items()},
                hists={
                    name: _hist_from_record(h)
                    for name, h in rec.get("hists", {}).items()
                },
            )
        )
    return TimeSeriesSnapshot(
        window_s=float(header["window_s"]), frames=tuple(frames)
    )
