"""Log2-bucketed histograms for latency and size distributions.

A :class:`Histogram` is a fixed-memory distribution sketch: each observed
value lands in the power-of-two bucket containing it, so the structure is
O(log(range)) regardless of how many samples arrive, and two snapshots can
be diffed bucket-wise — exactly the property :class:`~repro.sim.metrics.
Metrics` needs so histogram state participates in phase diffing the same
way counters do.

Percentile queries return the geometric midpoint of the bucket holding the
requested rank, clamped to the exact observed extrema, so summaries are
accurate to within a factor of two (plenty for "where did simulated time
go" questions) while staying cheap on the hot path.

This module intentionally imports nothing from the rest of the package so
the whole :mod:`repro.obs` layer stays dependency-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def bucket_mid(exponent: int) -> float:
    """Representative value of a bucket: the midpoint of [2**(e-1), 2**e)."""
    return 0.75 * 2.0**exponent


def fold_left(start: float, values) -> float:
    """``start + values[0] + values[1] + ...`` added strictly left to right.

    ``np.add.accumulate`` is a sequential scan — unlike ``sum``'s pairwise
    reduction — so the result equals the Python loop ``for v in values:
    start += v`` bit for bit.

    >>> fold_left(0.1, np.array([0.2, 0.3])) == 0.1 + 0.2 + 0.3
    True
    """
    acc = np.empty(values.shape[0] + 1)
    acc[0] = start
    acc[1:] = values
    return float(np.add.accumulate(acc)[-1])


#: A histogram reduces its sample log when it holds this many samples (and
#: before every read).  A list costs 32 bytes per pending float sample, so
#: this bounds the log at 32 KiB.
LOG_CHUNK = 1024
#: ``observe_array`` reduces an array of at least this many samples on the
#: spot; a shorter one, where numpy's fixed cost per call is the larger
#: part of reducing it, joins the sample log.
DIRECT_FROM = 64


class Histogram:
    """Mutable log2 histogram of non-negative samples.

    Record, then reduce: recording appends to a sample log; the log is
    folded into the bucket state ``LOG_CHUNK`` samples at a time and before
    every read, through one exact bulk reduction (:meth:`_reduce`).  Bucket
    counts, zeros and extrema are order-free and ``total`` is folded left
    to right in sample order (:func:`fold_left`), so *when* the log is
    reduced is unobservable: every read equals what a per-sample update
    would have produced, bit for bit.  Only the *insertion order* of the
    bucket dict is unspecified; nothing reads it — snapshots compare as
    dicts and every renderer sorts.
    """

    __slots__ = ("_buckets", "_zeros", "_count", "_sum", "_min", "_max", "_log")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        # Validated samples not yet reduced, in arrival order.  A list, not
        # an ``array('d')``: an all-int histogram reports int extrema.
        self._log: list[float] = []

    # -- recording ---------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one sample (must be >= 0)."""
        if value < 0:
            raise ValueError(f"histogram values must be non-negative: {value}")
        log = self._log
        log.append(value)
        if len(log) >= LOG_CHUNK:
            self._fold()

    def observe_repeated(self, value: float, times: int) -> None:
        """Record ``times`` samples of ``value``: a loop of :meth:`observe`."""
        if value < 0:
            raise ValueError(f"histogram values must be non-negative: {value}")
        self._log.extend([value] * times)
        if len(self._log) >= LOG_CHUNK:
            self._fold()

    def observe_each(self, values: list[float]) -> None:
        """A loop of :meth:`observe` over NaN-free ``values``, except that a
        negative sample raises with none of them recorded."""
        if values:
            if min(values) < 0:
                raise ValueError(f"histogram values must be non-negative: {min(values)}")
            self._log.extend(values)
            if len(self._log) >= LOG_CHUNK:
                self._fold()

    def observe_array(self, values) -> None:
        """Record a whole numpy array of samples at once.

        Equal to a loop of :meth:`observe` over ``values`` by construction:
        a short array joins the sample log, one of ``DIRECT_FROM`` samples
        or more is reduced on the spot, after whatever the log already
        holds.
        """
        n = int(values.shape[0])
        if n == 0:
            return
        mn = values.min().item()
        if mn < 0:
            raise ValueError(f"histogram values must be non-negative: {mn}")
        if n < DIRECT_FROM:
            log = self._log
            log.extend(values.tolist())
            if len(log) >= LOG_CHUNK:
                self._fold()
        else:
            self._fold()
            self._reduce(values, mn, values.max().item())

    def _fold(self) -> None:
        """Reduce the sample log into the bucket state and empty it."""
        log = self._log
        if log:
            # ``min``/``max`` keep the first extremal sample, as a
            # per-sample strict comparison would (its type included).
            self._reduce(np.array(log), min(log), max(log))
            del log[:]

    def _reduce(self, values, mn, mx) -> None:
        """Fold ``values`` (extrema ``mn``/``mx``) into the bucket state."""
        n = int(values.shape[0])
        self._count += n
        self._sum = fold_left(self._sum, values)
        if self._min is None or mn < self._min:
            self._min = mn
        if self._max is None or mx > self._max:
            self._max = mx
        nonzero = values[values != 0]
        self._zeros += n - int(nonzero.shape[0])
        if nonzero.shape[0]:
            exps, counts = np.unique(np.frexp(nonzero)[1], return_counts=True)
            buckets = self._buckets
            for e, c in zip(exps.tolist(), counts.tolist()):
                buckets[e] = buckets.get(e, 0) + c

    def absorb(self, snap: "HistogramSnapshot") -> None:
        """Fold a full-history snapshot into this histogram.

        Bucket counts and zeros add exactly and extrema combine exactly
        (min of mins, max of maxes), so merging per-cell snapshots in any
        order reproduces the bucket state — and hence every percentile — of
        a single histogram that observed all the samples.  Only ``total``
        is order-sensitive (float addition), and only at the last ulp.
        Absorbing a phase *delta* (``extrema_exact=False``) keeps the
        counts exact but makes the extrema bucket-edge approximations.
        """
        if snap.count == 0:
            return
        self._fold()
        self._count += snap.count
        self._sum += snap.total
        self._zeros += snap.zeros
        for e, c in snap.buckets.items():
            self._buckets[e] = self._buckets.get(e, 0) + c
        if snap.minimum is not None and (self._min is None or snap.minimum < self._min):
            self._min = snap.minimum
        if snap.maximum is not None and (self._max is None or snap.maximum > self._max):
            self._max = snap.maximum

    # -- queries -----------------------------------------------------------
    def snapshot(self) -> "HistogramSnapshot":
        """Immutable copy for later diffing."""
        self._fold()
        return HistogramSnapshot(
            count=self._count,
            total=self._sum,
            zeros=self._zeros,
            buckets=dict(self._buckets),
            minimum=self._min,
            maximum=self._max,
        )

    def reset(self) -> None:
        """Forget every sample, logged or reduced; the object stays usable."""
        del self._log[:]
        self._buckets.clear()
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable point-in-time (or phase-delta) histogram state.

    For deltas produced by :meth:`since`, ``minimum``/``maximum`` are
    bucket-edge approximations — exact extrema of just the delta period are
    not recoverable from bucket counts — and ``extrema_exact`` is False so
    :meth:`percentile` does not clamp to them.
    """

    count: int = 0
    total: float = 0.0
    zeros: int = 0
    buckets: dict[int, int] = field(default_factory=dict)
    minimum: float | None = None
    maximum: float | None = None
    #: True when minimum/maximum are exact observed values (full-history
    #: snapshots); False on phase deltas, where they are bucket edges.
    extrema_exact: bool = True

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (p in [0, 100])."""
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile must be in [0, 100]: {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        if rank <= self.zeros:
            return 0.0
        seen = self.zeros
        value = 0.0
        for e in sorted(self.buckets):
            seen += self.buckets[e]
            if seen >= rank:
                value = bucket_mid(e)
                break
        if self.extrema_exact:
            if self.minimum is not None:
                value = max(value, self.minimum)
            if self.maximum is not None:
                value = min(value, self.maximum)
        return value

    def since(self, snap: "HistogramSnapshot | None") -> "HistogramSnapshot":
        """Bucket-wise delta of this snapshot minus an earlier one."""
        if snap is None or snap.count == 0:
            return self
        buckets = {
            e: c - snap.buckets.get(e, 0)
            for e, c in self.buckets.items()
            if c - snap.buckets.get(e, 0) != 0
        }
        zeros = self.zeros - snap.zeros
        lo: float | None = None
        hi: float | None = None
        if zeros > 0:
            lo = 0.0
        elif buckets:
            lo = 2.0 ** (min(buckets) - 1)
        if buckets:
            hi = 2.0 ** max(buckets)
        elif zeros > 0:
            hi = 0.0
        return HistogramSnapshot(
            count=self.count - snap.count,
            total=self.total - snap.total,
            zeros=zeros,
            buckets=buckets,
            minimum=lo,
            maximum=hi,
            extrema_exact=False,
        )
