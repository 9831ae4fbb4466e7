"""Span recorder: per-layer host self time, measured from outside ``src/``.

The table below names every public entry point of the simulator the ledger
draws a layer boundary at.  :func:`install` replaces each one with a thin
wrapper that times the call with ``perf_counter_ns`` on a stack: the
enclosing span is the parent, and a span's *self* time is its duration
minus the time its child spans cover, so the layers partition the span
pass's wall clock instead of overlapping.  Nothing is written while the
pass runs; totals stay in memory and are read once at the end.

Entry syntax is ``module:attr`` or ``module:Class.attr``.  A trailing
``()`` marks a factory: the entry point itself is cheap, but the callable
or iterator it returns does the layer's work (a telemetry probe closure, a
workload's event generator), so the returned object is wrapped too.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter_ns

#: Layer -> entry points.  ``core`` also receives whatever wall clock no
#: span covers (harness remainder), which is what makes the rows sum to
#: the total.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "workloads": (
        "repro.workloads.base:run_data_phase",
        "repro.workloads.base:drive",
        "repro.workloads.service:ServiceWorkload.setup",
        "repro.workloads.service:ServiceWorkload.data_service",
        "repro.workloads.service:ServiceWorkload.meta_service",
        "repro.workloads.service:ServiceWorkload.events()",
    ),
    "fs.dataplane": tuple(
        f"repro.fs.dataplane:DataPlane.{m}"
        for m in (
            "write", "read", "writev", "readv", "fsync",
            "create_file", "close_file", "delete_file",
        )
    ),
    "alloc": (
        "repro.alloc.base:AllocationPolicy.flush",
        "repro.alloc.base:AllocationPolicy.release",
        "repro.alloc.ondemand:OnDemandPolicy.allocate",
        "repro.alloc.ondemand:OnDemandPolicy.release",
        "repro.alloc.reservation:ReservationPolicy.allocate",
        "repro.alloc.reservation:ReservationPolicy.release",
        "repro.alloc.static:StaticPolicy.allocate",
        "repro.alloc.delayed:DelayedPolicy.allocate",
        "repro.alloc.delayed:DelayedPolicy.flush",
        "repro.alloc.cow:CowPolicy.allocate",
        "repro.alloc.hybrid:HybridPolicy.allocate",
        "repro.alloc.hybrid:HybridPolicy.flush",
        "repro.alloc.hybrid:HybridPolicy.release",
    ),
    "block": tuple(
        f"repro.block.freespace:FreeSpaceManager.{m}"
        for m in ("allocate_in_group", "allocate_near", "allocate_exact", "free")
    ) + tuple(
        f"repro.block.extent:ExtentMap.{m}"
        for m in (
            "insert", "scan_write_range", "physical_runs", "lookup_range",
            "mark_written",
        )
    ),
    "disk.array": (
        "repro.disk.array:DiskArray.submit_batch",
        "repro.disk.disk:SimulatedDisk.submit_batch",
        "repro.disk.disk:SimulatedDisk.submit_arrays",
        "repro.disk.disk:SimulatedDisk.submit_one",
    ),
    "disk.scheduler": (
        "repro.disk.scheduler:ElevatorScheduler.arrange",
        "repro.disk.scheduler:ElevatorScheduler.arrange_arrays",
        "repro.disk.scheduler:FifoScheduler.arrange",
        "repro.disk.scheduler:FifoScheduler.arrange_arrays",
    ),
    "disk.model": tuple(
        f"repro.disk.model:ServiceTimeModel.{m}"
        for m in ("time_for", "time_batch", "time_batch_arrays")
    ),
    "disk.cache": tuple(
        f"repro.disk.cache:BufferCache.{m}"
        for m in (
            "read", "read_batch", "write", "insert_blocks", "invalidate",
            "prefetch_runs",
        )
    ),
    "meta.mds": tuple(
        f"repro.meta.mds:MetadataServer.{m}"
        for m in (
            "mkdir", "create", "delete", "utime", "stat", "readdir",
            "readdir_stat", "readdir_then_stats", "open_getlayout",
            "set_extent_records", "rename", "checkpoint",
        )
    ),
    "meta.layout": tuple(
        f"repro.meta.{mod}:{cls}.{m}"
        for mod, cls in (
            ("embedded_layout", "EmbeddedLayout"),
            ("normal_layout", "NormalLayout"),
        )
        for m in (
            "create_dir", "create_file", "delete_file", "stat", "utime",
            "readdir", "readdir_stat", "getlayout", "set_extent_records",
            "rename",
        )
    ) + ("repro.meta.layout:AccessPlan.coalesce",),
    "meta.journal": tuple(
        f"repro.meta.journal:Journal.{m}"
        for m in ("log", "log_batch", "commit", "truncate")
    ),
    "sim.events": (
        "repro.sim.events:EventLoop.run",
        "repro.sim.events:Station.offer",
    ),
    # The service telemetry bridge lives in workloads/service.py but is
    # observation work, so a telemetry change shows up under ``obs``.
    "obs": (
        "repro.obs.trace:Tracer.emit",
        "repro.obs.trace:Tracer.span",
        "repro.obs.timeseries:TimeSeries.incr",
        "repro.obs.timeseries:TimeSeries.add",
        "repro.obs.timeseries:TimeSeries.observe",
        "repro.obs.timeseries:TimeSeries.snapshot",
        "repro.obs.slo:evaluate",
        "repro.obs.layout:LayoutInspector.inspect_dataplane",
        "repro.obs.layout:LayoutInspector.inspect_mds",
        "repro.workloads.service:ServiceTelemetry.loop_probe",
        "repro.workloads.service:ServiceTelemetry.station_probe()",
        "repro.workloads.service:ServiceTelemetry.track_cache",
        "repro.workloads.service:ServiceTelemetry.finish",
    ),
    "fs.verify": (
        "repro.fs.verify:check_dataplane",
        "repro.fs.verify:check_mds",
        "repro.fs.verify:repair_dataplane",
        "repro.fs.verify:repair_mds",
    ),
    "fault": (
        "repro.fault.crashimage:build_crashed_image",
        "repro.fault.corrupt:Corruptor.corrupt_dataplane",
        "repro.fault.corrupt:Corruptor.corrupt_mds",
    ),
    # ``run_cells``/``stream_cells`` are deliberately not entry points: the
    # cell functions they call belong to whichever layer asked (a runner's
    # sweep -> core, fsck's shard checks -> fs.verify).
    "core": ("repro.core.run:run",),
}

LAYERS: tuple[str, ...] = tuple(ENTRY_POINTS)


class SpanError(RuntimeError):
    """An entry point did not resolve, or span accounting does not add up."""


class Recorder:
    """In-memory span totals, one slot per entry point."""

    def __init__(self) -> None:
        self.entries: list[tuple[str, str]] = []  # slot -> (layer, entry)
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        #: Child-time accumulator of every open span, innermost last.
        self.stack: list[int] = []
        #: Total duration of spans that had no parent.
        self.root_ns = [0]
        self._patched: list[tuple[object, str, object]] = []

    def slot(self, layer: str, entry: str) -> int:
        self.entries.append((layer, entry))
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.entries) - 1

    def wrap(self, fn, slot: int, factory: bool = False):
        """``fn`` timed into ``slot``; return value and exceptions pass
        through untouched."""
        stack, self_ns, calls, root_ns = (
            self.stack, self.self_ns, self.calls, self.root_ns,
        )
        clock = perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_ns[slot] += dur - stack.pop()
                calls[slot] += 1
                if stack:
                    stack[-1] += dur
                else:
                    root_ns[0] += dur
            return self._wrap_product(out, slot) if factory else out

        return span

    def _wrap_product(self, out, slot: int):
        if hasattr(out, "__next__"):
            return _SpannedIterator(self.wrap(out.__next__, slot))
        if callable(out):
            return self.wrap(out, slot)
        return out

    def reset(self) -> None:
        if self.stack:
            raise SpanError("reset with spans still open")
        self.self_ns[:] = [0] * len(self.self_ns)
        self.calls[:] = [0] * len(self.calls)
        self.root_ns[0] = 0

    # -- reading ---------------------------------------------------------
    def entry_calls(self, entry: str) -> int:
        return sum(
            n for (_, e), n in zip(self.entries, self.calls) if e == entry
        )

    def by_layer(self) -> dict[str, tuple[int, int]]:
        """Layer -> (self nanoseconds, calls)."""
        out = {layer: (0, 0) for layer in LAYERS}
        for (layer, _), ns, n in zip(self.entries, self.self_ns, self.calls):
            s, c = out[layer]
            out[layer] = (s + ns, c + n)
        return out

    def check(self) -> list[str]:
        """Accounting violations (empty when the books balance)."""
        problems = []
        if self.stack:
            problems.append(f"{len(self.stack)} spans never closed")
        for (_, entry), ns in zip(self.entries, self.self_ns):
            if ns < 0:
                problems.append(f"negative self time in {entry}: {ns} ns")
        if sum(self.self_ns) != self.root_ns[0]:
            problems.append(
                f"self times sum to {sum(self.self_ns)} ns but root spans "
                f"cover {self.root_ns[0]} ns"
            )
        return problems

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS` in place.

        Module-level functions are also rebound in every ``repro`` module
        that imported them by name (``from ... import run_data_phase``),
        otherwise those callers keep the unwrapped function and their time
        silently lands in the caller's layer.
        """
        if self._patched:
            raise SpanError("spans already installed")
        importlib.import_module("repro.core.runners")  # loads every layer
        for layer, entries in ENTRY_POINTS.items():
            for entry in entries:
                owner, name, fn = resolve(entry)
                wrapped = self.wrap(
                    fn, self.slot(layer, entry), factory=entry.endswith("()")
                )
                self._set(owner, name, wrapped)
                if isinstance(owner, types.ModuleType):
                    self._rebind_importers(fn, wrapped)
        originals = {id(original) for _, _, original in self._patched}
        stale = [
            f"{mod.__name__}.{attr}"
            for mod, attr, value in _repro_globals()
            if id(value) in originals
        ]
        if stale:
            raise SpanError(f"unpatched references remain: {stale}")

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rebind_importers(self, original, wrapped) -> None:
        for mod, attr, value in _repro_globals():
            if value is original:
                self._set(mod, attr, wrapped)


class _SpannedIterator:
    """Iterator whose every ``next()`` is one span."""

    __slots__ = ("_next",)

    def __init__(self, spanned_next) -> None:
        self._next = spanned_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def _repro_globals():
    """Every ``(module, name, value)`` global of the loaded repro modules."""
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "repro" or modname.startswith("repro.")):
            for attr, value in list(vars(mod).items()):
                yield mod, attr, value


def resolve(entry: str):
    """``(owner, attribute name, function)`` of one table entry.

    The attribute must be defined on the named owner itself (not
    inherited), so renaming or moving a method fails here instead of
    quietly reporting a layer as idle.
    """
    modname, _, path = entry.removesuffix("()").partition(":")
    try:
        owner = importlib.import_module(modname)
        *parents, name = path.split(".")
        for part in parents:
            owner = vars(owner)[part]
        raw = vars(owner)[name]
    except (ImportError, KeyError) as exc:
        raise SpanError(f"entry point {entry!r} does not resolve: {exc!r}") from exc
    if not isinstance(raw, types.FunctionType):
        raise SpanError(f"entry point {entry!r} is not a plain function: {raw!r}")
    return owner, name, raw


def self_check() -> list[str]:
    """Exercise a private recorder on known functions; returns violations.

    Covers what the layer numbers rest on: return values and exceptions
    pass through a wrapper, a raised exception still closes its span,
    nested self times partition the root duration, and factory products
    (callables and iterators) are timed into the factory's slot.
    """
    rec = Recorder()
    problems = []

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    leaf_w = rec.wrap(leaf, rec.slot("block", "leaf"))

    def parent(x):
        return leaf_w(x) + 1

    parent_w = rec.wrap(parent, rec.slot("alloc", "parent"))

    def make(kind):
        return iter((1, 2, 3)) if kind == "iter" else leaf

    make_w = rec.wrap(make, rec.slot("obs", "make()"), factory=True)

    if parent_w(3) != 7:
        problems.append("wrapper changed a return value")
    try:
        parent_w(-1)
    except ValueError as exc:
        if exc.args != (-1,):
            problems.append("wrapper changed an exception")
    else:
        problems.append("wrapper swallowed an exception")
    if list(make_w("iter")) != [1, 2, 3]:
        problems.append("spanned iterator changed its items")
    if make_w("fn")(5) != 10:
        problems.append("spanned factory product changed a return value")
    if rec.calls != [2, 2, 2 + 4 + 1]:
        problems.append(f"unexpected call counts {rec.calls}")
    if parent_w.__name__ != "parent":
        problems.append("wrapper lost the function name")
    return problems + rec.check()
