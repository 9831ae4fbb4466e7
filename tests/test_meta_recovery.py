"""MDS crash recovery: journal replay re-establishes un-checkpointed state."""

import pytest

from repro.fs.verify import check_mds
from repro.meta.mds import MetadataServer

from tests.conftest import small_config


@pytest.fixture(params=["normal", "embedded"])
def mds(request) -> MetadataServer:
    return MetadataServer(small_config(layout=request.param))


class TestMdsCrashRecovery:
    def test_replays_records_since_checkpoint(self, mds):
        interval = mds.config.meta.journal_interval_ops
        d = mds.mkdir(mds.root, "work")
        # Land mid-interval so some records are un-checkpointed.
        n = interval + interval // 2
        for i in range(n):
            mds.create(d, f"f{i}")
        replayed = mds.crash_recover()
        assert replayed > 0
        assert replayed < n + 2  # only the tail since the last checkpoint

    def test_recovery_checkpoints_everything(self, mds):
        d = mds.mkdir(mds.root, "work")
        for i in range(5):
            mds.create(d, f"f{i}")
        mds.crash_recover()
        assert mds._dirty == set()
        assert mds.journal.replay() == []
        assert mds.metrics.count("mds.crash_recoveries") == 1

    def test_namespace_survives(self, mds):
        d = mds.mkdir(mds.root, "work")
        for i in range(20):
            mds.create(d, f"f{i}")
        mds.delete(d, "f3")
        mds.crash_recover()
        names = set(mds.readdir(d))
        assert names == {f"f{i}" for i in range(20) if i != 3}
        check_mds(mds).raise_if_dirty()

    def test_recovery_after_clean_checkpoint_replays_nothing(self, mds):
        d = mds.mkdir(mds.root, "work")
        for i in range(5):
            mds.create(d, f"f{i}")
        mds.flush()
        assert mds.crash_recover() == 0

    def test_reads_do_not_enter_redo_log(self, mds):
        d = mds.mkdir(mds.root, "work")
        mds.create(d, "f")
        mds.flush()
        mds.stat(d, "f")
        mds.readdir_stat(d)
        assert mds.journal.replay() == []

    def test_service_continues_after_recovery(self, mds):
        d = mds.mkdir(mds.root, "work")
        mds.create(d, "before")
        mds.crash_recover()
        mds.create(d, "after")
        mds.utime(d, "after")
        assert set(mds.readdir(d)) == {"before", "after"}
