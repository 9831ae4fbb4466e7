"""Crash-recovery property: any crash point replays to a consistent MDS.

The write-ahead contract under test: a metadata operation is durable iff
its journal commit record landed whole.  Whatever request the injected
crash interrupts, ``crash_recover`` + ``repair_mds`` must always converge
to a clean fsck report — no crash point may leave damage fsck cannot fix.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CrashError
from repro.fault import FaultInjector, FaultPlan
from repro.fs.verify import check_mds, repair_mds
from repro.meta.layout import AccessPlan
from repro.meta.mds import MetadataServer
from repro.obs.trace import Tracer
from repro.workloads.base import MetaOpRun, mds_executor

from tests.conftest import small_config


def run_workload(mds: MetadataServer) -> None:
    """A metarates-style create/delete mix (may be cut short by a crash)."""
    d = mds.mkdir(mds.root, "work")
    sub = mds.mkdir(d, "sub")
    for i in range(40):
        mds.create(d, f"f{i:03d}")
    for i in range(0, 40, 5):
        mds.delete(d, f"f{i:03d}")
    for i in range(10):
        mds.create(sub, f"g{i:03d}")


@given(
    crash_after=st.integers(min_value=0, max_value=300),
    layout=st.sampled_from(["embedded", "normal"]),
)
@settings(max_examples=30, deadline=None)
def test_any_crash_point_recovers_clean(crash_after, layout):
    mds = MetadataServer(small_config(layout=layout))
    injector = FaultInjector(FaultPlan(seed=0, crash_after_requests=crash_after))
    mds.disk.attach_injector(injector)
    try:
        run_workload(mds)
    except CrashError:
        pass
    injector.disarm()
    mds.crash_recover()
    repair = repair_mds(mds)
    assert repair.converged, [f.message for f in repair.after.findings]
    # Recovery left no un-checkpointed state behind.
    assert mds._dirty == set()
    assert mds.journal.replay() == []


@given(crash_after=st.integers(min_value=0, max_value=300))
@settings(max_examples=15, deadline=None)
def test_server_still_works_after_recovery(crash_after):
    mds = MetadataServer(small_config())
    injector = FaultInjector(FaultPlan(seed=0, crash_after_requests=crash_after))
    mds.disk.attach_injector(injector)
    try:
        run_workload(mds)
    except CrashError:
        pass
    injector.disarm()
    mds.crash_recover()
    d = mds.mkdir(mds.root, "after")
    for i in range(10):
        mds.create(d, f"n{i}")
    assert set(mds.readdir(d)) == {f"n{i}" for i in range(10)}
    check_mds(mds).raise_if_dirty()


class TestTornJournal:
    def test_torn_commit_record_is_not_replayed(self):
        mds = MetadataServer(small_config())
        injector = FaultInjector(FaultPlan(seed=0, torn_every=1))
        mds.disk.attach_injector(injector)
        # A two-block commit record: the injector tears it, so write-ahead
        # rules say the operation never committed.
        mds._run((AccessPlan(dirties=[7], journal_records=2),), "test-op")
        assert mds.metrics.count("mds.torn_journal_records") == 1
        assert mds.journal.replay() == []
        assert len(mds.journal.pending_records()) == 1

    def test_recovery_discards_torn_records(self):
        mds = MetadataServer(small_config())
        injector = FaultInjector(FaultPlan(seed=0, torn_every=1))
        mds.disk.attach_injector(injector)
        mds._run((AccessPlan(dirties=[7], journal_records=2),), "test-op")
        injector.disarm()
        mds.crash_recover()
        assert mds.metrics.count("mds.discarded_records") == 1
        assert mds.journal.pending_records() == []

    def test_single_block_commits_are_atomic(self):
        mds = MetadataServer(small_config())
        injector = FaultInjector(FaultPlan(seed=0, torn_every=1))
        mds.disk.attach_injector(injector)
        d = mds.mkdir(mds.root, "work")
        for i in range(5):
            mds.create(d, f"f{i}")
        # Ordinary ops journal one block at a time: nothing tears.
        assert mds.metrics.count("mds.torn_journal_records") == 0


    def test_bulk_phase_discards_exactly_its_torn_commits(self):
        """A run of creates executed as one ``MetaOpRun`` under
        ``torn_every=2``, each committing a two-block record: every second
        commit tears, none of those is acknowledged, and recovery replays
        the others and discards exactly the torn ones."""
        mds = MetadataServer(small_config(), tracer=Tracer())
        d = mds.mkdir(mds.root, "work")
        create_file = mds.layout.create_file

        def two_block_commit(parent, name, now):
            inode, plan = create_file(parent, name, now)
            plan.journal_records = 2
            return inode, plan

        mds.layout.create_file = two_block_commit
        injector = FaultInjector(FaultPlan(seed=0, torn_every=2))
        mds.disk.attach_injector(injector)
        committed_before = len(mds.journal.replay())
        # Fewer ops than the checkpoint interval: nothing truncates the
        # journal before the crash.
        done = mds_executor(mds)(MetaOpRun("create", [(d, f"f{i}") for i in range(10)]))
        assert done == 10
        assert injector.torn_writes == 5
        assert mds.metrics.count("mds.torn_journal_records") == 5
        torn = [e.attrs["seq"] for e in mds.tracer.events() if e.op == "journal_torn"]
        assert torn == [r.seq for r in mds.journal.pending_records()]
        assert len(mds.journal.replay()) == committed_before + 5
        injector.disarm()
        assert mds.crash_recover() == committed_before + 5
        assert mds.metrics.count("mds.discarded_records") == 5
        assert mds.journal.pending_records() == []


class TestJournalWal:
    def test_log_then_commit_then_replay(self):
        mds = MetadataServer(small_config())
        record, requests = mds.journal.log([11, 12])
        assert record.dirties == (11, 12)
        assert requests  # the append produced write requests
        mds.journal.commit(record)
        assert mds.journal.replay() == [record]

    def test_truncate_clears_records(self):
        mds = MetadataServer(small_config())
        record, _ = mds.journal.log([11])
        mds.journal.commit(record)
        mds.journal.truncate()
        assert mds.journal.replay() == []

    def test_checkpoint_truncates_journal(self):
        mds = MetadataServer(small_config())
        d = mds.mkdir(mds.root, "work")
        mds.create(d, "f")
        assert mds.journal.replay() != []
        mds.checkpoint()
        assert mds.journal.replay() == []
