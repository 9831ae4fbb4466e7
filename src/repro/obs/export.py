"""Trace and telemetry exporters: JSONL, Chrome trace-event format, CSV.

For traces, JSONL is the lossless interchange format: one event per line,
every field of :class:`~repro.obs.trace.TraceEvent` kept.  The Chrome
format produces a file loadable in ``chrome://tracing`` / Perfetto: events
become complete ("X") slices with microsecond timestamps, the layer as the
category and the stream id as the thread id, so concurrent streams render
as parallel tracks; the exact stream (0 or None, which share thread 0)
rides along as a top-level ``stream`` key.

For telemetry time series (:mod:`repro.obs.timeseries`), CSV is the
spreadsheet-friendly wide format: one row per window, one column per
signal, histograms flattened to count/p50/p99/p999.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable
from pathlib import Path
from typing import IO, Any

from repro.obs.timeseries import TimeSeriesSnapshot
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
