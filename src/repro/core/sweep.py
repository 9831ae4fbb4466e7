"""Deterministic execution of independent runner cells, in-process or pooled.

A *cell* is one independent unit of a sweep — one (stream count, policy)
point of fig6a, one (app, policy, collective) run of fig7, one profile of
the metarates suite.  Cells share no mutable state: each builds its own
file system instances, seeds its own RNG from the cell spec, and records
into its own :class:`~repro.sim.metrics.Metrics` bag and its own trace ring
(a :meth:`~repro.obs.trace.Tracer.spawn` of the run's tracer), returning
everything in a picklable :class:`CellResult`.

:func:`stream_cells` maps a cell function over cell specs, optionally in a
process pool, with a determinism contract modelled on pFSCK's worker
pools:

- **Independence** — a cell function must derive all randomness from its
  spec (scale/seed/parameters) and touch nothing outside its own state, so
  executing it in any process at any time yields the same result.
- **Ordered merge** — results are yielded (and must be merged) in
  *submission* order, never completion order.  Counters and histogram
  buckets merge by exact integer addition and trace rows by concatenation,
  so the merged books and trace — and every rendered BENCH document — are
  byte-identical at any worker count.  :meth:`_Run.cells` is the one place
  a runner's sweep is driven and merged.
- **One driver** — ``jobs=1`` (the default) or a single cell calls the
  cell function in-process; nothing else, and no observer, chooses.

``jobs`` resolution: an explicit argument wins, else the ``REPRO_JOBS``
environment variable, else 1.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.config import FSConfig
from repro.core.run import RunResult, fingerprint
from repro.errors import ConfigError
from repro.fs.dataplane import DataPlane
from repro.fs.redbud import RedbudFileSystem
from repro.meta.mds import MetadataServer
from repro.obs.layout import LayoutInspector, LayoutReport
from repro.obs.trace import Tracer, coerce_tracer
from repro.sim.metrics import Metrics, MetricsSnapshot, ThroughputResult

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

S = TypeVar("S")


@dataclass(frozen=True)
class CellResult:
    """Picklable outcome of one runner cell.

    ``phases`` and ``layouts`` use the same label conventions as
    :class:`~repro.core.run.RunResult`; ``metrics`` is the cell's whole
    (full-history) snapshot, ready for :meth:`Metrics.absorb`; ``payload``
    carries whatever figure-specific values the runner needs to assemble
    its result; ``trace_rows`` / ``trace_emitted`` are the cell's ring, ready
    for :meth:`Tracer.absorb` — rows, never the tracer, whose clock would
    drag the cell's file system through pickle.
    """

    phases: dict[str, ThroughputResult] = field(default_factory=dict)
    layouts: dict[str, LayoutReport] = field(default_factory=dict)
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    payload: Any = None
    trace_rows: list[tuple] = field(default_factory=list)
    trace_emitted: int = 0


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit ``jobs``, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(f"{JOBS_ENV} must be an integer: {raw!r}") from None
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1: {jobs}")
    return jobs


def stream_cells(
    cells: Sequence[S],
    fn: Callable[..., Any],
    jobs: int | None = None,
    tracer: Any = None,
) -> Iterator[Any]:
    """Yield ``fn(cell, ring)`` per cell — in submission order, possibly
    computed in worker processes — so the consumer merges cell *i* while
    later cells are still executing.

    ``fn`` must be a module-level callable of signature
    ``fn(spec, tracer=None)`` and every spec must be picklable; ``ring`` is
    a fresh ``tracer.spawn()`` per cell (``None`` without a tracer).  This
    is the only place in the package that starts a process.
    """
    n = resolve_jobs(jobs)
    spawn = (lambda: None) if tracer is None else tracer.spawn
    if n <= 1 or len(cells) <= 1:
        for cell in cells:
            yield fn(cell, spawn())
        return
    with ProcessPoolExecutor(max_workers=min(n, len(cells))) as pool:
        futures = [pool.submit(fn, cell, spawn()) for cell in cells]
        for f in futures:
            yield f.result()


def _scaled(value: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(value * scale))


class _Context:
    """Metrics bag + tracer + phase/capture helpers.

    Base for both the whole-run context (:class:`_Run`) and the per-cell
    context (:class:`_Cell`); each owns a private metrics bag so sweep
    cells stay independent and merge deterministically in submission order.
    """

    def __init__(self, trace) -> None:
        self.metrics = Metrics()
        self.tracer = coerce_tracer(trace)
        self.phases: dict[str, ThroughputResult] = {}
        self.layouts: dict[str, LayoutReport] = {}

    def plane(self, cfg: FSConfig) -> DataPlane:
        plane = DataPlane(cfg, self.metrics, self.tracer)
        self.tracer.bind_clock(lambda: plane.array.elapsed_s, override=True)
        return plane

    def mds(self, cfg: FSConfig) -> MetadataServer:
        mds = MetadataServer(cfg, self.metrics, self.tracer)
        self.tracer.bind_clock(mds.now, override=True)
        return mds

    def filesystem(self, cfg: FSConfig) -> RedbudFileSystem:
        fs = RedbudFileSystem(cfg, self.metrics, self.tracer)
        self.tracer.bind_clock(lambda: fs.data.array.elapsed_s, override=True)
        return fs

    def _unbind_clock(self) -> None:
        """Drop the tracer's clock once the results are taken: it is bound
        to this context's MDS or plane, which holds the tracer, and that
        cycle would keep the whole file system alive until a cyclic
        collection."""
        if isinstance(self.tracer, Tracer):
            self.tracer.clock = None

    def phase(self, label: str, result: ThroughputResult) -> ThroughputResult:
        self.phases[label] = result
        if self.tracer.enabled:
            self.tracer.record(
                ("run", label, "bytes", "ops"), None, result.elapsed, None,
                result.bytes_moved, result.ops,
            )
        return result

    def capture(
        self,
        tag: str,
        source: DataPlane | MetadataServer,
        region_bytes: int | None = None,
    ) -> LayoutReport:
        """Snapshot the post-phase layout of a plane or MDS under ``tag``."""
        inspector = LayoutInspector(region_bytes=region_bytes)
        if isinstance(source, MetadataServer):
            report = inspector.inspect_mds(source, label=tag)
        else:
            report = inspector.inspect_dataplane(source, label=tag)
        self.layouts[tag] = report
        return report


class _Run(_Context):
    """Whole-run context: fingerprint plus merged cell results."""

    def __init__(self, name: str, trace, **kwargs) -> None:
        super().__init__(trace)
        self.name = name
        self.fingerprint = fingerprint(name, **kwargs)

    def cells(
        self, specs: Sequence[S], fn: Callable[..., CellResult], jobs: int | None
    ) -> Iterator[CellResult]:
        """Drive one sweep, merging each cell's phases / layouts / metrics /
        trace rows in submission order before yielding its result."""
        for cell in stream_cells(specs, fn, jobs, self.tracer):
            self.phases.update(cell.phases)
            self.layouts.update(cell.layouts)
            self.metrics.absorb(cell.metrics)
            self.tracer.absorb(cell.trace_rows, cell.trace_emitted)
            yield cell

    def result(self, payload) -> RunResult:
        self._unbind_clock()
        return RunResult(
            name=self.name,
            fingerprint=self.fingerprint,
            phases=self.phases,
            metrics=self.metrics.snapshot(),
            payload=payload,
            trace=self.tracer if isinstance(self.tracer, Tracer) else None,
            layouts=self.layouts,
        )


class _Cell(_Context):
    """One sweep cell's context; its ``result`` is picklable for workers."""

    def result(self, payload=None) -> CellResult:
        self._unbind_clock()
        return CellResult(
            phases=self.phases,
            layouts=self.layouts,
            metrics=self.metrics.snapshot(),
            payload=payload,
            trace_rows=self.tracer.rows(),
            trace_emitted=self.tracer.emitted,
        )
