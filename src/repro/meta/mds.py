"""Metadata server.

Executes the directory layout's :class:`~repro.meta.layout.AccessPlan`
footprints against one MDS disk: reads go through the buffer cache (with
readahead), every mutating operation commits a journal record sequentially
(the paper's synchronous-writes Metarates configuration), and dirtied home
blocks are flushed by periodic checkpoints — "the reduction of disk access
counts mainly comes from the checkpoint operations" (§V.D.1).

The server is the unit of timing for all metadata benchmarks: its elapsed
time is disk busy time + per-operation CPU charges + one protocol overhead
per operation (an aggregated pair like readdir-stat is one operation).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from functools import cache

from repro.config import FSConfig
from repro.disk.cache import BufferCache
from repro.disk.disk import SimulatedDisk
from repro.errors import ConfigError
from repro.meta.embedded_layout import EmbeddedLayout
from repro.meta.inode import Inode
from repro.meta.journal import Journal
from repro.meta.layout import AccessPlan
from repro.meta.mfs import MetadataFS
from repro.meta.normal_layout import NormalLayout
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sim.metrics import Metrics

#: Trace schemas, ``(layer, op, *attr names)``: one per event shape.
_CHECKPOINT = ("meta", "checkpoint", "blocks")
_CRASH_RECOVER = ("meta", "crash_recover", "replayed", "discarded")
_JOURNAL_TORN = ("meta", "journal_torn", "seq")
_JOURNAL_COMMIT = ("meta", "journal_commit", "records")
_INODE_SPILL = ("meta", "inode_spill", "ino", "block", "spills", "at")


@cache
def _op_schema(op_name: str) -> tuple:
    """The attr-less schema of one operation's event, built once per name."""
    return ("meta", op_name)


class MetadataServer:
    """One MDS: layout + MFS + journal + cache over a single disk."""

    def __init__(
        self,
        config: FSConfig,
        metrics: Metrics | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(self.now)
        self.disk = SimulatedDisk(
            config.mds_disk, config.scheduler, self.metrics, name="mds",
            tracer=self.tracer,
        )
        self.cache = BufferCache(config.cache, self.disk, self.metrics, self.tracer)
        self.mfs = MetadataFS(config.meta, config.mds_disk)
        self.journal = Journal(self.mfs.journal_base, config.meta.journal_blocks)
        if config.meta.layout == "embedded":
            self.layout: EmbeddedLayout | NormalLayout = EmbeddedLayout(
                config.meta, self.mfs
            )
        elif config.meta.layout == "normal":
            self.layout = NormalLayout(config.meta, self.mfs)
        else:  # pragma: no cover - guarded by MetaParams validation
            raise ConfigError(f"unknown layout {config.meta.layout!r}")
        self._cpu_s = 0.0
        self._overhead_s = 0.0
        self._dirty: set[int] = set()
        self._ops_since_ckpt = 0
        self.ops = 0
        self._ckpt_interval = config.meta.journal_interval_ops
        self._req_overhead_s = config.mds_request_overhead_s
        self._counters = self.metrics.raw_counters()
        self._op_latency = self.metrics.histogram_ref("mds.op_latency_s")
        self._handles: tuple | None = None

    # -- timing --------------------------------------------------------------
    def now(self) -> float:
        """Serialized MDS time: disk + CPU + protocol overhead.  Also the
        tracer's clock, hence a plain method beside the property."""
        return self.disk.busy_s + self._cpu_s + self._overhead_s

    elapsed_s = property(now)

    @property
    def cpu_s(self) -> float:
        return self._cpu_s

    @property
    def root(self):
        return self.layout.root

    # -- operations ---------------------------------------------------------
    def mkdir(self, parent, name: str):
        d, plan = self.layout.create_dir(parent, name, self.now())
        self._run((plan,), "mkdir")
        return d

    def create(self, parent, name: str) -> Inode:
        inode, plan = self.layout.create_file(parent, name, self.now())
        self._run((plan,), "create")
        return inode

    def delete(self, parent, name: str) -> None:
        plan = self.layout.delete_file(parent, name)
        self._run((plan,), "delete")

    def utime(self, parent, name: str) -> None:
        plan = self.layout.utime(parent, name, self.now())
        self._run((plan,), "utime")

    def stat(self, parent, name: str) -> Inode:
        inode, plan = self.layout.stat(parent, name)
        self._run((plan,), "stat")
        return inode

    def readdir(self, parent) -> list[str]:
        names, plan = self.layout.readdir(parent)
        self._run((plan,), "readdir")
        return names

    def readdir_stat(self, parent) -> list[Inode]:
        """Aggregated readdirplus: one MDS request for the whole directory."""
        inodes, plan = self.layout.readdir_stat(parent)
        self._run((plan,), "readdir_stat")
        return inodes

    def readdir_then_stats(self, parent) -> list[Inode]:
        """Non-aggregated baseline: a readdir followed by one stat request
        per entry (n+1 protocol round trips)."""
        names, plan = self.layout.readdir(parent)
        self._run((plan,), "readdir")
        out = []
        for name in names:
            out.append(self.stat(parent, name))
        return out

    def open_getlayout(self, parent, name: str) -> Inode:
        """Aggregated open+getlayout pair (pNFS/Lustre style): inode plus
        all mapping blocks in one request."""
        inode, plan = self.layout.getlayout(parent, name)
        self._run((plan,), "open_getlayout")
        return inode

    def set_extent_records(self, parent, name: str, count: int) -> None:
        plan = self.layout.set_extent_records(parent, name, count)
        self._run((plan,), "set_extent_records")

    def rename(self, src_dir, src_name: str, dst_dir, dst_name: str) -> None:
        plan = self.layout.rename(src_dir, src_name, dst_dir, dst_name, self.now())
        self._run((plan,), "rename")

    def run_many(self, method: str, argsets: Sequence[tuple]) -> int:
        """Call ``method`` once per argument tuple of ``argsets``, in order,
        results unread; returns the number of calls made.

        ``create`` / ``utime`` / ``delete`` run as one metadata run on the
        column body (:meth:`_run_columns`).  Under an armed fault injector
        (which tears and crashes request by request) the run takes
        :meth:`_run` instead, each plan built only once the op before it
        finished (so the layout stamps the same :meth:`now`).
        Any other method loops its public call.  Nothing is validated
        ahead: a call that raises does so with every earlier call applied.
        """
        layout = self.layout
        if method == "create":
            create_file = layout.create_file

            def plan_of(parent, name, now):
                return create_file(parent, name, now)[1]
        elif method == "utime":
            plan_of = layout.utime
        elif method == "delete":
            delete_file = layout.delete_file

            def plan_of(parent, name, now):
                return delete_file(parent, name)
        else:
            call = getattr(self, method)
            for args in argsets:
                call(*args)
            return len(argsets)
        injector = self.disk.injector
        if injector is not None and injector.armed:
            now = self.now
            return self._run((plan_of(p, name, now()) for p, name in argsets), method)
        return self._run_columns(plan_of, argsets, method)

    # -- maintenance -----------------------------------------------------------
    def checkpoint(self) -> int:
        """Flush dirty home blocks; returns the number of dirty blocks."""
        if not self._dirty:
            self._ops_since_ckpt = 0
            self.journal.truncate()  # nothing dirty: no record needs replay
            return 0
        # One batch of one-block writes, which the scheduler coalesces into
        # runs.  Completion bulk-inserts into the cache.
        blocks = sorted(self._dirty)
        flushed = len(blocks)
        self.disk.submit_sorted_writes(blocks)
        self.cache.insert_blocks(blocks)
        self._dirty.clear()
        self._ops_since_ckpt = 0
        self.journal.truncate()  # checkpointed state needs no replay
        self.metrics.incr("mds.checkpoints")
        self.metrics.incr("mds.checkpoint_blocks", flushed)
        if self.tracer.enabled:
            self.tracer.record(_CHECKPOINT, None, 0.0, None, flushed)
        return flushed

    def flush(self) -> None:
        """Final checkpoint (end of a workload phase)."""
        self.checkpoint()

    def drop_caches(self) -> None:
        """Cold-cache boundary between experiment phases."""
        self.cache.drop()

    def crash_recover(self) -> int:
        """Simulate an MDS crash and journal-replay recovery.

        The buffer cache and the in-memory dirty set are lost; committed
        journal records since the last checkpoint are replayed — each
        replay reads the record's journal block and re-dirties its home
        blocks — followed by a recovery checkpoint.  Synchronous journaling
        means no committed operation is lost (the paper's Metarates
        configuration relies on exactly this).  Returns the number of
        records replayed.
        """
        records = self.journal.replay()
        discarded = len(self.journal.pending_records())
        replayed = len(records)
        self.cache.drop()
        self._dirty.clear()
        # Replay: sequential journal scan (one read per record's commit
        # block, cheap) re-establishes the dirty home blocks.  Uncommitted
        # (torn / crashed) records are discarded — their operations never
        # became durable.
        self.cache.read_batch([(rec.block, 1) for rec in records])
        for rec in records:
            self._dirty.update(rec.dirties)
        self.checkpoint()  # truncates the journal, discarding torn records
        self.metrics.incr("mds.crash_recoveries")
        self.metrics.incr("mds.replayed_records", replayed)
        if discarded:
            self.metrics.incr("mds.discarded_records", discarded)
        if self.tracer.enabled:
            self.tracer.record(_CRASH_RECOVER, None, 0.0, None, replayed, discarded)
        return replayed

    def reset_timeline(self) -> None:
        """Zero all timing accumulators (phase boundary); namespace and
        on-disk state are retained."""
        self.flush()
        self.disk.reset_timeline()
        self._cpu_s = 0.0
        self._overhead_s = 0.0

    # -- internals -----------------------------------------------------------
    def _run(self, plans: Iterable[AccessPlan], op_name: str) -> int:
        """The one body: run operations' plans in order; returns how many ran.

        Per plan: its inode spills booked (:meth:`_book_spills`), reads
        through :meth:`BufferCache.read_batch`, one synchronous commit
        (:meth:`Journal.log_one` + :meth:`SimulatedDisk.submit_one`),
        dirty-set / CPU / overhead bookkeeping, a checkpoint when due, the
        trace event.  A commit torn
        on the platter (``disk.torn_writes`` moved) never committed: it is
        counted and traced, and :meth:`crash_recover` discards it.  The
        run is booked once, on the way out (:meth:`_book`): a plan that
        raises (or fails to build) leaves those before it applied and
        booked."""
        handles = self._handles
        if handles is None:  # not in __init__: subclasses swap disk/cache/journal
            handles = self._handles = (
                self.disk, self.journal, self.cache.read_batch,
                self.journal.log_one, self.disk.submit_one, self._dirty.update,
            )
        disk, journal, read_batch, log_one, submit_one, dirty_update = handles
        tracer = self.tracer
        interval = self._ckpt_interval
        overhead = self._req_overhead_s
        latencies: list[float] = []
        ops = journal_writes = 0
        try:
            for plan in plans:
                t0 = disk.busy_s + self._cpu_s + self._overhead_s
                if plan.spills:
                    self._book_spills(plan.spills)
                reads = plan.reads
                if reads:
                    if len(reads) > 1:
                        reads = plan.coalesce().reads
                    read_batch(reads)
                dirties = plan.dirties
                journal_records = plan.journal_records
                if journal_records > 0:
                    torn_before = disk.torn_writes
                    record = log_one(dirties, journal_records)
                    if record is not None:
                        submit_one(record.block, journal_records, True)
                    else:  # the record wraps the region, or its size is invalid
                        record, reqs = journal.log(dirties, journal_records)
                        for start, nblocks in reqs:
                            submit_one(start, nblocks, True)
                    journal_writes += journal_records
                    if disk.torn_writes > torn_before:  # never committed
                        self._counters["mds.torn_journal_records"] += 1
                        if tracer.enabled:
                            tracer.record(_JOURNAL_TORN, None, 0.0, None, record.seq)
                    else:
                        record.committed = True  # Journal.commit
                        if tracer.enabled:
                            tracer.record(_JOURNAL_COMMIT, None, 0.0, None, journal_records)
                if dirties:
                    dirty_update(dirties)
                self._cpu_s += plan.cpu_s
                self._overhead_s += overhead
                ops += 1
                if journal_records > 0:
                    self._ops_since_ckpt += 1
                    if self._ops_since_ckpt >= interval:
                        self.checkpoint()
                elapsed = disk.busy_s + self._cpu_s + self._overhead_s - t0
                latencies.append(elapsed)
                if tracer.enabled:
                    tracer.record(_op_schema(op_name), t0, elapsed, None)
        finally:
            self._book(op_name, ops, journal_writes, latencies)
        return ops

    def _book(self, op_name: str, ops: int, journal_writes: int, latencies: list[float]) -> None:
        """Book a run's finished ops: ``ops`` counts each op whose journal
        commit is done (its checkpoint need not be), ``latencies`` each op
        that finished whole."""
        counters = self._counters
        if journal_writes:
            counters["mds.journal_writes"] += journal_writes
        if ops:
            self.ops += ops
            counters[f"mds.op.{op_name}"] += ops
            self._op_latency.observe_each(latencies)

    def _book_spills(self, spills: tuple[tuple, ...]) -> None:
        """Book the inode spills an op's plan carries, as the op starts
        (the per-op loops skip the call for a plan with none)."""
        if spills:
            self._counters["meta.inode_spill_blocks"] += len(spills)
            tracer = self.tracer
            if tracer.enabled:
                for row in spills:
                    tracer.record(_INODE_SPILL, None, 0.0, None, *row)

    def _run_columns(self, plan_of, argsets: Sequence[tuple], op_name: str) -> int:
        """The column body of a metadata run; returns how many ops ran.

        The run goes by *chunks*: the ops up to the next one a checkpoint
        follows, at most ``journal_interval_ops`` of them.  A chunk's plans
        are built first, stamped with the time they were built (a plan
        that fails to build ends the run there: the ops before it run, then
        its error is raised).  Its ops then execute between *flush points*
        — a read that is not a resident hit, and the chunk's end.  Up to
        each one the reads are served by one :meth:`BufferCache.read_hits`
        probe and the pending ops commit through one journal slice
        (:meth:`_commit_columns`); once their clock is known each op's rows
        are restamped with its start time (:meth:`DirectoryLayout.restamp`).
        Simulated effects, metrics and trace rows are :meth:`_run`'s, bit
        for bit: each op's inode spills are booked when it starts, and the
        run is booked once, on the way out (:meth:`_book`).  A chunk holds
        few plans at once, so a long run leaves the cyclic garbage
        collector no more to track than the per-op loop does.
        """
        run = _ColumnRun(op_name)
        interval = self._ckpt_interval
        args = iter(argsets)
        error = None
        try:
            while True:
                plans: list[AccessPlan] = []
                since = self._ops_since_ckpt
                now = self.now()
                try:
                    for parent, name in args:
                        plan = plan_of(parent, name, now)
                        plans.append(plan)
                        if plan.journal_records > 0:
                            since += 1
                            if since >= interval:
                                break
                except Exception as exc:  # the ops before it still run
                    error = exc
                if plans:
                    self._execute_chunk(run, plans, since >= interval)
                if error is not None or since < interval:
                    break
        finally:
            self._book(op_name, run.ops, run.journal_writes, run.latencies)
        if error is not None:
            raise error
        return run.ops

    def _execute_chunk(self, run: _ColumnRun, plans: list[AccessPlan], checkpoint: bool) -> None:
        """Execute a chunk's plans between flush points, then a checkpoint
        after its last op when ``checkpoint``, and restamp its rows."""
        run.load(plans)
        reads, offsets = run.reads, run.offsets
        cache = self.cache
        read_hits, read = cache.read_hits, cache.read
        end = len(plans)
        hi = len(reads)
        i = r = 0
        started = None  # op i's [start time, first untraced read] once it read the disk
        try:
            while True:
                r = read_hits(reads, r)
                if r == hi:
                    break
                k = bisect_right(offsets, r, i) - 1  # the op holding read r
                if k > i:
                    self._commit_columns(run, i, k, False, started)
                    i, started = k, None
                if started is None:
                    started = [self.now(), offsets[k]]
                    self._book_spills(plans[k].spills)
                if self.tracer.enabled:
                    cache.trace_hits(reads, started[1], r)
                read(*reads[r])
                r += 1
                started[1] = r
            self._commit_columns(run, i, end, checkpoint, started)
        finally:
            run.ops += len(run.t0s)  # the ops whose commit is done
            self.layout.restamp(plans, run.t0s)

    def _commit_columns(
        self, run: _ColumnRun, a: int, b: int, checkpoint: bool, started: list | None
    ) -> None:
        """Finish ops ``a`` to ``b - 1`` of ``run``, whose reads are all
        served: one journal slice (:meth:`Journal.log_batch`), then op by op
        as :meth:`_run` goes on from its reads — the inode spills of an op
        not yet started, the commit writes (:meth:`SimulatedDisk.submit_one`),
        the clocks, a checkpoint after op ``b - 1`` when ``checkpoint`` and,
        under a tracer, the op's rows at :meth:`_run`'s times.  ``started``
        is op ``a``'s start time and first untraced read when a read of it
        already went to the disk."""
        plans, reads, offsets = run.plans, run.reads, run.offsets
        disk, tracer, cache = self.disk, self.tracer, self.cache
        submit_one = disk.submit_one
        ops = plans[a:b]
        entries = [(p.dirties, p.journal_records) for p in ops if p.journal_records > 0]
        records, requests, spans = self.journal.log_batch(entries)
        self._dirty.update(*[plan.dirties for plan in ops])
        cpu, overhead_s = self._cpu_s, self._overhead_s
        overhead = self._req_overhead_s
        t0s_append, latencies_append = run.t0s.append, run.latencies.append
        t0, first_read = started if started is not None else (None, offsets[a])
        now = disk.busy_s + cpu + overhead_s  # op j's start unless a read moved it
        q = written = 0  # journaled ops and journal blocks so far
        try:
            for j, plan in enumerate(ops, a):
                if t0 is None:
                    t0 = now
                    if plan.spills:  # booked at the op's start, on its clock
                        self._cpu_s, self._overhead_s = cpu, overhead_s
                        self._book_spills(plan.spills)
                if tracer.enabled:  # rows at the tracer's clock: this op's start on it
                    self._cpu_s, self._overhead_s = cpu, overhead_s
                    cache.trace_hits(reads, first_read, offsets[j + 1])
                    first_read = offsets[j + 1]
                journal_records = plan.journal_records
                if journal_records > 0:
                    lo, hi = spans[q]
                    for w in range(lo, hi):
                        start, nblocks = requests[w]
                        submit_one(start, nblocks, True)
                    records[q].committed = True  # Journal.commit
                    q += 1
                    written += journal_records
                    if tracer.enabled:
                        tracer.record(_JOURNAL_COMMIT, None, 0.0, None, journal_records)
                cpu += plan.cpu_s
                overhead_s += overhead
                t0s_append(t0)
                if checkpoint and j == b - 1:
                    self._cpu_s, self._overhead_s = cpu, overhead_s
                    self._ops_since_ckpt += q
                    q = 0
                    self.checkpoint()
                now = disk.busy_s + cpu + overhead_s
                elapsed = now - t0
                latencies_append(elapsed)
                if tracer.enabled:
                    tracer.record(run.op_schema, t0, elapsed, None)
                t0 = None
        finally:
            self._cpu_s, self._overhead_s = cpu, overhead_s
            self._ops_since_ckpt += q
            run.journal_writes += written


class _ColumnRun:
    """A metadata run on the column body: what its finished ops booked,
    and the chunk in hand — its plans, their reads as one flat list (plan
    ``j``'s are ``reads[offsets[j]:offsets[j + 1]]``, coalesced) and each
    finished op's start time."""

    def __init__(self, op_name: str) -> None:
        self.op_schema = _op_schema(op_name)
        self.ops = 0
        self.latencies: list[float] = []
        self.journal_writes = 0

    def load(self, plans: list[AccessPlan]) -> None:
        self.plans = plans
        self.t0s: list[float] = []
        self.reads = reads = []
        self.offsets = offsets = [0]
        for plan in plans:
            plan_reads = plan.reads
            if plan_reads:
                if len(plan_reads) > 1:
                    plan_reads = plan.coalesce().reads
                reads += plan_reads
            offsets.append(len(reads))
