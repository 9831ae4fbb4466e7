"""Time-series telemetry: fixed-width simulated-time windows.

Whole-run aggregates (one :class:`~repro.obs.histogram.Histogram` per
signal) answer *how much* but never *when*: a saturation ramp halfway
through a run and a uniformly loaded run summarize to the same numbers.
This module adds the time axis without giving up the fixed-memory sketch:
signals roll into per-window :class:`Frame` objects, each holding counters,
float accumulators and log2 histograms for just that window, so memory is
O(windows × series) no matter how many events a run processes — a
million-stream service run at fifty windows costs the same as a toy run.

Three signal shapes, mirroring :class:`~repro.sim.metrics.Metrics`:

- ``incr(t, name)`` — monotone event counts (arrivals, drops, completions);
- ``add(t, name, x)`` — float accumulation (bytes moved, busy seconds);
- ``observe(t, name, v)`` — distributions (latency, queue depth), bucketed
  into the same log2 histograms the rest of the simulator uses, so
  per-window p50/p99/p999 queries cost the same as whole-run ones.

:meth:`TimeSeries.snapshot` freezes the collector into an immutable,
picklable :class:`TimeSeriesSnapshot` — gap windows are materialized as
empty frames so exports and sparklines see a uniform grid — which is what
sweep cells ship back from worker processes and what the SLO engine
(:mod:`repro.obs.slo`), the exporters (:mod:`repro.obs.export`) and the
dashboard renderer (:mod:`repro.obs.report`) consume.

Timestamps are *simulated* seconds.  Like the rest of :mod:`repro.obs`,
this module imports nothing from the simulator.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.obs.histogram import Histogram, HistogramSnapshot

__all__ = [
    "Frame",
    "FrameSnapshot",
    "TimeSeries",
    "TimeSeriesSnapshot",
]


class Frame:
    """Mutable telemetry state of one time window."""

    __slots__ = ("index", "counters", "sums", "hists")

    def __init__(self, index: int) -> None:
        self.index = index
        self.counters: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self.hists: dict[str, Histogram] = {}

    def hist(self, name: str) -> Histogram:
        h = self.hists.get(name)
        if h is None:
            h = self.hists[name] = Histogram()
        return h

    def snapshot(self, window_s: float) -> "FrameSnapshot":
        """Immutable copy with name-sorted dicts, so exported bytes depend
        on what a window holds and not on the order signals reached it."""
        return FrameSnapshot(
            index=self.index,
            start_s=self.index * window_s,
            counters=dict(sorted(self.counters.items())),
            sums=dict(sorted(self.sums.items())),
            hists={name: h.snapshot() for name, h in sorted(self.hists.items())},
        )


@dataclass(frozen=True)
class FrameSnapshot:
    """Immutable telemetry state of one time window."""

    index: int
    start_s: float
    counters: dict[str, int] = field(default_factory=dict)
    sums: dict[str, float] = field(default_factory=dict)
    hists: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def total(self, name: str) -> float:
        return self.sums.get(name, 0.0)

    def percentile(self, name: str, p: float) -> float:
        h = self.hists.get(name)
        return h.percentile(p) if h is not None else 0.0


class TimeSeries:
    """Roll telemetry signals into fixed-width simulated-time windows."""

    __slots__ = ("window_s", "_frames", "_last_idx", "_last_frame")

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ValueError(f"telemetry window must be positive: {window_s}")
        self.window_s = float(window_s)
        self._frames: dict[int, Frame] = {}
        # One-entry cache: arrivals are near-monotone, so consecutive
        # signals overwhelmingly land in the same window — this turns the
        # common case into one comparison instead of a dict probe.
        self._last_idx = -1
        self._last_frame: Frame | None = None

    def frame(self, t: float) -> Frame:
        """The mutable frame of the window containing ``t``."""
        if t < 0:
            raise ValueError(f"telemetry timestamps must be non-negative: {t}")
        return self.frame_at(int(t / self.window_s))

    def frame_at(self, idx: int) -> Frame:
        """The mutable frame of window ``idx`` (created on first use).

        Address a window you already know by its index, never by a
        reconstructed timestamp: ``int((idx * w) / w)`` is ``idx - 1`` for
        many ``idx`` (29 at ``w = 0.04``).
        """
        if idx == self._last_idx:
            return self._last_frame  # type: ignore[return-value]
        f = self._frames.get(idx)
        if f is None:
            f = self._frames[idx] = Frame(idx)
        self._last_idx = idx
        self._last_frame = f
        return f

    def runs(self, times: np.ndarray) -> Iterator[tuple[Frame, int, int]]:
        """Split a timestamp column into ``(frame, lo, hi)`` runs of
        consecutive rows that share a window.

        The bulk counterpart of :meth:`frame`: a recorder that logged one
        row per event folds ``rows[lo:hi]`` into ``frame`` with a handful
        of numpy calls.
        """
        for idx, lo, hi in self.window_runs(times):
            yield self.frame_at(idx), lo, hi

    def window_runs(self, times: np.ndarray) -> Iterator[tuple[int, int, int]]:
        """:meth:`runs` by window index, creating no frame.

        Window indices are ``int(t / window_s)`` exactly as the scalar
        path computes them.  Runs come in row order, so any left-to-right
        fold over them equals the per-event loop; with non-decreasing
        timestamps each touched window is one run.
        """
        if times.shape[0] == 0:
            return
        earliest = times.min()
        if earliest < 0:
            raise ValueError(f"telemetry timestamps must be non-negative: {earliest}")
        idx = (times / self.window_s).astype(np.int64)
        cuts = (np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist()
        lo = 0
        for hi in (*cuts, idx.shape[0]):
            yield int(idx[lo]), lo, hi
            lo = hi

    # -- recording ---------------------------------------------------------
    def incr(self, t: float, name: str, amount: int = 1) -> None:
        """Count ``amount`` events of ``name`` in the window containing ``t``."""
        counters = self.frame(t).counters
        counters[name] = counters.get(name, 0) + amount

    def add(self, t: float, name: str, amount: float) -> None:
        """Accumulate a float quantity in the window containing ``t``."""
        sums = self.frame(t).sums
        sums[name] = sums.get(name, 0.0) + amount

    def observe(self, t: float, name: str, value: float) -> None:
        """Record one distribution sample in the window containing ``t``."""
        self.frame(t).hist(name).observe(value)

    # -- inspection --------------------------------------------------------
    def snapshot(self) -> "TimeSeriesSnapshot":
        """Freeze into an immutable, picklable snapshot.

        Windows that saw no signal are materialized as empty frames so the
        result is a gap-free grid from window 0 through the last window that
        recorded anything.
        """
        if not self._frames:
            return TimeSeriesSnapshot(window_s=self.window_s, frames=())
        last = max(self._frames)
        frames = []
        for idx in range(last + 1):
            f = self._frames.get(idx)
            if f is not None:
                frames.append(f.snapshot(self.window_s))
            else:
                frames.append(
                    FrameSnapshot(index=idx, start_s=idx * self.window_s)
                )
        return TimeSeriesSnapshot(window_s=self.window_s, frames=tuple(frames))


@dataclass(frozen=True)
class TimeSeriesSnapshot:
    """Immutable, picklable grid of per-window telemetry frames."""

    window_s: float
    frames: tuple[FrameSnapshot, ...] = ()

    @property
    def duration_s(self) -> float:
        """Simulated time covered by the frame grid."""
        return len(self.frames) * self.window_s

    # -- series discovery --------------------------------------------------
    def counter_names(self) -> list[str]:
        names: set[str] = set()
        for f in self.frames:
            names.update(f.counters)
        return sorted(names)

    def sum_names(self) -> list[str]:
        names: set[str] = set()
        for f in self.frames:
            names.update(f.sums)
        return sorted(names)

    def hist_names(self) -> list[str]:
        names: set[str] = set()
        for f in self.frames:
            names.update(f.hists)
        return sorted(names)

    # -- per-window series -------------------------------------------------
    def counter_values(self, name: str) -> list[int]:
        """The counter's per-window values (0 where it never fired)."""
        return [f.count(name) for f in self.frames]

    def sum_values(self, name: str) -> list[float]:
        """The accumulator's per-window values (0.0 where it never fired)."""
        return [f.total(name) for f in self.frames]

    def percentile_values(self, name: str, p: float) -> list[float]:
        """The histogram series' per-window p-th percentile (0.0 on empty)."""
        return [f.percentile(name, p) for f in self.frames]

    # -- merging -----------------------------------------------------------
    def merged(self, name: str, start: int = 0, stop: int | None = None) -> HistogramSnapshot:
        """Merge one histogram series over ``frames[start:stop]``.

        Bucket counts and extrema combine exactly (see
        :meth:`~repro.obs.histogram.Histogram.absorb`), so the result equals
        a single histogram that observed every sample in the span — this is
        how SLO compliance windows wider than the telemetry window are
        evaluated without re-recording anything.
        """
        h = Histogram()
        for f in self.frames[start:stop]:
            snap = f.hists.get(name)
            if snap is not None:
                h.absorb(snap)
        return h.snapshot()
