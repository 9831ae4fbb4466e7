"""Metric accounting shared by disks, schedulers, allocators and the MDS.

A :class:`Metrics` object is a hierarchical bag of named counters, float
accumulators and log2 histograms.  Components increment counters and
observe distributions as side effects; experiment runners snapshot and
diff them, so a single file system instance can serve several phases
(e.g. the micro-benchmark's write phase and read phase) with clean books.
Histogram state participates in snapshots and diffs exactly like counters:
``since`` returns only the samples recorded after the snapshot, so no
stale distribution leaks across benchmark phases.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.obs.histogram import Histogram, HistogramSnapshot

_EMPTY_HISTOGRAM = HistogramSnapshot()


class Metrics:
    """Named counters (integers), accumulators (floats) and histograms.

    A bag also owns *deferred row logs* (:meth:`deferred`): a hot path that
    would otherwise bump a handful of counters per operation appends one
    row instead, and the bag has the log's reducer turn the rows into
    counter, accumulator and histogram updates before anything is read.
    """

    def __init__(self) -> None:
        self._counters: Counter[str] = Counter()
        self._accumulators: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._deferred: dict[Callable[["Metrics", list], None], list] = {}

    # -- deferred rows ------------------------------------------------------
    def deferred(self, reducer: Callable[["Metrics", list], None]) -> list:
        """The bag's row log for ``reducer`` (get-or-create).

        One log per reducer *per bag*, shared by every component that
        records through it, so rows reduce in the order they were appended
        whichever component appended them — which is what keeps float
        accumulators folding in program order.  Callers append rows and
        call :meth:`flush` once the log holds a chunk; ``reducer(bag,
        rows)`` must be a module-level function (bags are pickled).
        """
        return self._deferred.setdefault(reducer, [])

    def flush(self) -> None:
        """Reduce every deferred row log.  Every read below does this
        first; a writer whose updates must land *after* the logged rows
        (same accumulator, same histogram) calls it before its own."""
        for reducer, rows in self._deferred.items():
            if rows:
                pending = rows[:]
                del rows[:]
                reducer(self, pending)

    # -- counters ---------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self._counters[name] += amount

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (zero if never touched)."""
        self.flush()
        return self._counters.get(name, 0)

    def raw_counters(self) -> Counter[str]:
        """The live counter mapping, for hot paths that bump counters once
        per operation and cannot afford a method call each time.

        The returned object stays valid across :meth:`reset` (which clears
        it in place); treat it as increment-only.  Counters committed by a
        deferred reducer (``disk.*`` and ``scheduler.*``) lag the mapping
        until the next :meth:`flush`, so *read* those through
        :meth:`count` / :meth:`snapshot` only; counters bumped eagerly
        (``cache.*``, ``mds.*``, ``fs.*``) may be read here.
        """
        return self._counters

    # -- accumulators -----------------------------------------------------
    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to float accumulator ``name``."""
        self._accumulators[name] = self._accumulators.get(name, 0.0) + amount

    def add_each(self, name: str, amounts) -> None:
        """:meth:`add` each of ``amounts`` in turn (one lookup, same sum)."""
        total = self._accumulators.get(name, 0.0)
        for amount in amounts:
            total += amount
        self._accumulators[name] = total

    # -- histograms -------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one sample in histogram ``name`` (created empty)."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        h.observe(value)

    def observe_array(self, name: str, values) -> None:
        """Record a numpy array of samples in histogram ``name`` at once."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        h.observe_array(values)

    def histogram_ref(self, name: str) -> Histogram:
        """The live (get-or-create) histogram ``name``, for hot paths that
        record one sample per operation and cannot afford the per-call name
        lookup.  Like :meth:`raw_counters`, the reference stays valid
        across :meth:`reset` (which empties histograms in place).
        """
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    def _sampled(self) -> dict[str, HistogramSnapshot]:
        """Snapshots of the histograms that hold samples.  One that holds
        none — created by a handle but never observed, or emptied by
        :meth:`reset` — reads exactly like one that does not exist."""
        return {
            k: s for k, h in self._histograms.items() if (s := h.snapshot()).count
        }

    # -- snapshots --------------------------------------------------------
    def snapshot(self) -> "MetricsSnapshot":
        """Capture current values for later diffing."""
        self.flush()
        return MetricsSnapshot(
            dict(self._counters), dict(self._accumulators), self._sampled()
        )

    def since(self, snap: "MetricsSnapshot") -> "MetricsSnapshot":
        """Delta of all counters/accumulators/histograms since ``snap``."""
        self.flush()
        counters = {
            k: v - snap.counters.get(k, 0)
            for k, v in self._counters.items()
            if v - snap.counters.get(k, 0) != 0
        }
        accs = {
            k: v - snap.accumulators.get(k, 0.0)
            for k, v in self._accumulators.items()
            if v - snap.accumulators.get(k, 0.0) != 0.0
        }
        hists: dict[str, HistogramSnapshot] = {}
        for k, h in self._sampled().items():
            delta = h.since(snap.histograms.get(k))
            if delta.count != 0:
                hists[k] = delta
        return MetricsSnapshot(counters, accs, hists)

    def absorb(self, snap: "MetricsSnapshot") -> None:
        """Fold a snapshot from another bag into this one.

        Used to merge per-cell metrics back into a run's bag: counters and
        histogram buckets add exactly, so merging cells in submission order
        reproduces the books of a single shared bag; float accumulators add
        per-cell subtotals (equal to the shared-bag fold up to the last ulp).
        """
        self.flush()
        for k, v in snap.counters.items():
            self._counters[k] += v
        for k, v in snap.accumulators.items():
            self._accumulators[k] = self._accumulators.get(k, 0.0) + v
        for k, hs in snap.histograms.items():
            h = self._histograms.get(k)
            if h is None:
                h = self._histograms[k] = Histogram()
            h.absorb(hs)

    def reset(self) -> None:
        """Zero every counter, accumulator and histogram, in place: rows
        and samples still waiting to be reduced are discarded with them,
        and every handle (:meth:`raw_counters`, :meth:`histogram_ref`,
        :meth:`deferred`) stays live."""
        for rows in self._deferred.values():
            del rows[:]
        self._counters.clear()
        self._accumulators.clear()
        for h in self._histograms.values():
            h.reset()


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time copy of a :class:`Metrics` object."""

    counters: dict[str, int] = field(default_factory=dict)
    accumulators: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def total(self, name: str) -> float:
        return self.accumulators.get(name, 0.0)

    def histogram(self, name: str) -> HistogramSnapshot:
        return self.histograms.get(name, _EMPTY_HISTOGRAM)

    def histogram_names(self) -> list[str]:
        """Sorted names of every histogram captured in this snapshot."""
        return sorted(self.histograms)


@dataclass(frozen=True)
class ThroughputResult:
    """Outcome of a timed data phase.

    ``throughput`` is bytes per simulated second.  ``ops`` counts logical
    operations (writes, reads or metadata ops depending on the phase).
    """

    bytes_moved: int
    elapsed: float
    ops: int = 0

    @property
    def throughput(self) -> float:
        """Bytes per simulated second (0 for an instantaneous phase)."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.bytes_moved / self.elapsed

    @property
    def mib_per_s(self) -> float:
        """Throughput in MiB/s, the unit used in the paper's figures."""
        return self.throughput / (1024.0 * 1024.0)

    @property
    def ops_per_s(self) -> float:
        """Operations per simulated second (metadata benchmarks)."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.ops / self.elapsed
