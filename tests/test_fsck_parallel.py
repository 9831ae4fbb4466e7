"""Parallel fsck: sharded checking equals the serial oracle, byte for byte.

The contract under test (docs/FSCK.md): the vectorized, sharded checkers
in :mod:`repro.fs.verify` render the same ordered findings as the
single-threaded reference walkers at any worker count, over arbitrary
seeded corruption; repair converges from a crashed image; and the online
scrubber drains live corruption while the service workload runs.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import baseline
from repro.config import ConfigError, FsckParams
from repro.core.run import run
from repro.errors import MetadataError
from repro.fault import Corruptor, build_crashed_image
from repro.fs.dataplane import DataPlane
from repro.fs import verify
from repro.fs.stream import make_stream_id
from repro.fs.verify import (
    META_SHARD_DIRS,
    FsckReport,
    Scrubber,
    ScrubStep,
    check_dataplane,
    check_mds,
    repair_dataplane,
    repair_mds,
    shard_work,
)
from repro.meta.mds import MetadataServer
from repro.units import KiB
from repro.workloads.service import ScrubSpec

from tests.conftest import small_config
from tests.fsck_reference import check_dataplane_reference, check_mds_reference


def populated_plane() -> DataPlane:
    plane = DataPlane(small_config())
    for i in range(4):
        f = plane.create_file(f"file{i}")
        for r in range(3):
            reqs = plane.write(f, make_stream_id(i, 0), r * 32 * KiB, 32 * KiB)
            plane.array.submit_batch(reqs)
    return plane


def populated_mds(layout: str) -> MetadataServer:
    mds = MetadataServer(small_config(layout=layout))
    d = mds.mkdir(mds.root, "work")
    sub = mds.mkdir(d, "sub")
    for i in range(25):
        mds.create(d, f"f{i:03d}")
    for i in range(8):
        mds.create(sub, f"g{i:03d}")
    mds.flush()
    return mds


def wide_mds(layout: str) -> MetadataServer:
    """More directories than one metadata shard holds, so chunking, the
    per-shard sort keys and the cross-shard merge are all in play."""
    mds = MetadataServer(small_config(layout=layout))
    for i in range(META_SHARD_DIRS + 6):
        d = mds.mkdir(mds.root, f"d{i:03d}")
        for j in range(3):
            mds.create(d, f"f{j}")
    mds.flush()
    return mds


def dirs_of(mds: MetadataServer) -> list:
    """Directory objects in checker (sequence) order."""
    return list(mds.layout._dirs.values())


def file_inode(mds: MetadataServer, d, name: str):
    return mds.layout._inodes[d.entries[name]]


def action_key(result) -> list[tuple]:
    return [(a.code, a.message) for a in result.actions]


def report_key(report: FsckReport) -> tuple:
    return (
        tuple((f.code, f.message) for f in report.findings),
        report.checked_extents,
        report.checked_inodes,
    )


class TestExtentMapsFreeFullRange:
    """Regression: the free-block check covers the extent's whole range,
    not just its first block."""

    def test_free_tail_block_is_detected(self):
        plane = DataPlane(small_config(policy="vanilla"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        ext = a.maps[0].extents()[0]
        assert ext.length >= 2
        # Corrupt the books for ONLY the last block of the extent.
        plane.fsm.free(ext.physical + ext.length - 1, 1)
        report = check_dataplane(plane, strict_accounting=False)
        assert report.has("extent-maps-free")

    def test_free_interior_block_matches_reference(self):
        plane = DataPlane(small_config(policy="vanilla"))
        a = plane.create_file("/a")
        plane.write(a, 1, 0, 64 * KiB)
        ext = a.maps[0].extents()[0]
        plane.fsm.free(ext.physical + ext.length // 2, 1)
        sharded = check_dataplane(plane, strict_accounting=False)
        oracle = check_dataplane_reference(plane, strict_accounting=False)
        assert sharded.has("extent-maps-free")
        assert report_key(sharded) == report_key(oracle)


class TestNormalLayoutCodes:
    """Every normal-layout corruption class maps to its stable code and
    repairs back to clean."""

    def _dir(self, mds):
        return next(
            d for d in mds.layout._dirs.values() if "f000" in d.entries or d.entries
        )

    def test_inode_home_mismatch(self):
        mds = populated_mds("normal")
        d = self._dir(mds)
        name = next(iter(d.entries))
        inode = mds.layout.inode_by_number(d.entries[name])
        inode.home_block += 1  # corrupt: itable home drifted
        report = check_mds(mds)
        assert report.has("inode-home-mismatch")
        assert repair_mds(mds).converged
        check_mds(mds).raise_if_dirty()

    def test_entry_unknown_dentry_block(self):
        mds = populated_mds("normal")
        d = self._dir(mds)
        name = next(iter(d.entries))
        d.entry_block[name] = 10**9  # corrupt: entry points nowhere
        report = check_mds(mds)
        assert report.has("entry-unknown-dentry-block")
        assert repair_mds(mds).converged

    def test_dentry_fill_mismatch(self):
        mds = populated_mds("normal")
        d = self._dir(mds)
        d.fill.append(0)  # corrupt: fill vector longer than block list
        report = check_mds(mds)
        assert report.has("dentry-fill-mismatch")
        assert repair_mds(mds).converged

    def test_entry_count_mismatch(self):
        mds = populated_mds("normal")
        d = self._dir(mds)
        d.fill[0] += 1  # corrupt: occupancy over-counts
        report = check_mds(mds)
        assert report.has("entry-count-mismatch")
        assert repair_mds(mds).converged


class TestShardedEqualsReference:
    """Property: sharded-merged reports equal the serial oracle over
    arbitrary Corruptor states, for both planes and both layouts."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), nfaults=st.integers(0, 5))
    def test_dataplane(self, seed, nfaults):
        plane = populated_plane()
        Corruptor(seed).corrupt_dataplane(plane, nfaults=nfaults)
        sharded = check_dataplane(plane, strict_accounting=False)
        oracle = check_dataplane_reference(plane, strict_accounting=False)
        assert report_key(sharded) == report_key(oracle)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), nfaults=st.integers(0, 5))
    @pytest.mark.parametrize("layout", ["embedded", "normal"])
    def test_mds(self, layout, seed, nfaults):
        mds = populated_mds(layout)
        Corruptor(seed).corrupt_mds(mds, nfaults=nfaults)
        sharded = check_mds(mds)
        oracle = check_mds_reference(mds)
        assert report_key(sharded) == report_key(oracle)


class TestAcrossShardBoundary:
    """The sharded == oracle property where it has something to prove: a
    tree wider than ``META_SHARD_DIRS``, so findings come from more than one
    shard and merge across the chunk boundary."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), nfaults=st.integers(1, 8))
    @pytest.mark.parametrize("layout", ["embedded", "normal"])
    def test_sharded_equals_oracle(self, layout, seed, nfaults):
        mds = wide_mds(layout)
        assert len(dirs_of(mds)) > META_SHARD_DIRS
        Corruptor(seed).corrupt_mds(mds, nfaults=nfaults)
        assert report_key(check_mds(mds)) == report_key(check_mds_reference(mds))

    @pytest.mark.parametrize("layout", ["embedded", "normal"])
    def test_worker_processes_equal_serial(self, layout):
        serial, workers = wide_mds(layout), wide_mds(layout)
        for mds in (serial, workers):
            Corruptor(17).corrupt_mds(mds, nfaults=8)
            # One fault planted by hand in the last (second) shard.
            name, ino = next(iter(dirs_of(mds)[-1].entries.items()))
            del mds.layout._inodes[ino]
        oracle = check_mds_reference(serial)
        assert not oracle.clean
        assert report_key(check_mds(workers, jobs=2)) == report_key(oracle)
        fix_1 = repair_mds(serial, jobs=1)
        fix_2 = repair_mds(workers, jobs=2)
        assert fix_1.converged and fix_2.converged
        assert action_key(fix_1) == action_key(fix_2)
        assert report_key(fix_1.before) == report_key(fix_2.before)


class TestHandBuiltMetadataDamage:
    """Damage the ``Corruptor`` cannot produce, each state checked against
    the oracle and against the finding it must (or must not) raise."""

    def assert_matches_oracle(self, mds) -> FsckReport:
        report = check_mds(mds)
        assert report_key(report) == report_key(check_mds_reference(mds))
        return report

    def test_cross_directory_content_overlap(self):
        mds = populated_mds("embedded")
        _root, work, sub = dirs_of(mds)
        start, count = work.content_runs[0]
        sub.content_runs.append((start + count - 1, 2))  # shares one block
        report = self.assert_matches_oracle(mds)
        assert [f.code for f in report.findings] == ["content-block-overlap"]
        assert f"block {start + count - 1} owned by dirs {work.dir_id} and {sub.dir_id}" in (
            report.findings[0].message
        )

    def test_home_in_later_directory_is_orphan_in_earlier_is_not(self):
        mds = populated_mds("embedded")
        _root, work, sub = dirs_of(mds)
        # work precedes sub: when work's entries are judged, sub's content
        # is not registered yet (prefix semantics), so the home is orphaned.
        early = file_inode(mds, work, "f003")
        early.home_block = sub.content_runs[0][0]
        # The mirror image is covered: work's content is already known.
        late = file_inode(mds, sub, "g003")
        late.home_block = work.content_runs[0][0]
        report = self.assert_matches_oracle(mds)
        assert [f.code for f in report.findings] == ["orphan-home-block"]
        assert f"inode {early.ino} " in report.findings[0].message

    def test_empty_directory_and_directory_without_content_runs(self):
        mds = populated_mds("embedded")
        mds.mkdir(mds.root, "hollow")
        assert self.assert_matches_oracle(mds).clean
        _root, work, sub, _hollow = dirs_of(mds)
        sub.content_runs = []  # every home in sub loses its cover
        report = self.assert_matches_oracle(mds)
        assert [f.code for f in report.findings] == ["orphan-home-block"] * len(sub.entries)
        assert report.checked_inodes == sum(len(d.entries) for d in dirs_of(mds))

    def test_dangling_entry_suppresses_its_other_findings(self):
        mds = populated_mds("normal")
        d = dirs_of(mds)[1]
        name = "f004"
        del mds.layout._inodes[d.entries[name]]
        d.entry_block[name] = 10**9
        report = self.assert_matches_oracle(mds)
        assert [f.code for f in report.findings] == ["dangling-inode"]

    @pytest.mark.parametrize("layout", ["embedded", "normal"])
    def test_faults_either_side_of_a_healthy_row_keep_entry_order(self, layout):
        mds = populated_mds(layout)
        d = dirs_of(mds)[1]
        if layout == "embedded":
            file_inode(mds, d, "f010").name = "later"
            file_inode(mds, d, "f002").home_block = 0
            file_inode(mds, d, "f002").name = "earlier"
            want = ["orphan-home-block", "inode-name-mismatch", "inode-name-mismatch"]
        else:
            d.entry_block["f010"] = 10**9
            file_inode(mds, d, "f002").home_slot += 1
            d.entry_block["f002"] = 10**9
            want = [
                "inode-home-mismatch", "entry-unknown-dentry-block",
                "entry-unknown-dentry-block",
            ]
        report = self.assert_matches_oracle(mds)
        assert [f.code for f in report.findings] == want
        # Both f002 findings precede f010's, the healthy rows between skipped.
        assert "f002" in report.findings[1].message
        assert "f010" in report.findings[2].message
        fix = repair_mds(mds)
        assert fix.converged
        assert ["f010" in a.message or "later" in a.message for a in fix.actions] == [
            False, False, True
        ]

    def test_inode_past_the_last_inode_table_still_raises(self):
        mds = populated_mds("normal")
        layout = mds.layout
        d = dirs_of(mds)[1]
        beyond = layout.mfs.group_count * layout.mfs.params.inodes_per_group + 5
        layout._inodes[beyond] = layout._inodes.pop(d.entries["f007"])
        d.entries["f007"] = beyond
        with pytest.raises(MetadataError, match=f"group out of range: {layout.mfs.group_count}"):
            check_mds(mds)
        with pytest.raises(MetadataError, match="group out of range"):
            check_mds_reference(mds)


class TestWorkerProcesses:
    """jobs=2 really runs shards in worker processes and still merges to
    the identical report."""

    def test_crashed_image_check_identical_across_jobs(self):
        serial = build_crashed_image(scale=0.3, seed=5)
        workers = build_crashed_image(scale=0.3, seed=5)
        rep_1 = check_dataplane(serial.plane, strict_accounting=False).merge(
            check_mds(serial.mds)
        )
        rep_2 = check_dataplane(
            workers.plane, strict_accounting=False, jobs=2
        ).merge(check_mds(workers.mds, jobs=2))
        assert report_key(rep_1) == report_key(rep_2)
        assert not rep_1.clean

    def test_data_plane_cuts_one_chunk_per_worker(self):
        img = build_crashed_image(scale=0.3, seed=5)
        scan = verify._scan_dataplane(img.plane)
        assert len(verify._plane_shard_specs(scan, img.plane, jobs=1)) == 1
        assert len(verify._plane_shard_specs(scan, img.plane, jobs=2)) == 2

    def test_crashed_image_repair_identical_across_jobs(self):
        serial = build_crashed_image(scale=0.3, seed=5)
        workers = build_crashed_image(scale=0.3, seed=5)
        fix_1 = repair_dataplane(serial.plane).merge(repair_mds(serial.mds))
        fix_2 = repair_dataplane(workers.plane, jobs=2).merge(
            repair_mds(workers.mds, jobs=2)
        )
        assert fix_1.converged and fix_2.converged
        assert [(a.code, a.message) for a in fix_1.actions] == [
            (a.code, a.message) for a in fix_2.actions
        ]


class TestCrashedImage:
    def test_deterministic(self):
        a = build_crashed_image(scale=0.3, seed=9)
        b = build_crashed_image(scale=0.3, seed=9)
        assert a.injected == b.injected
        assert a.extents == b.extents and a.inodes == b.inodes
        rep_a = check_dataplane(a.plane, strict_accounting=False)
        rep_b = check_dataplane(b.plane, strict_accounting=False)
        assert report_key(rep_a) == report_key(rep_b)

    def test_shard_work_matches_topology(self):
        img = build_crashed_image(scale=0.3, seed=1)
        data, meta = shard_work(img.plane, img.mds)
        # One shard per populated PAG, never more than the PAG count.
        assert 0 < len(data) <= len(img.plane.fsm.groups)
        assert sum(data) == img.extents
        assert len(meta) >= 1 and sum(meta) > 0

    @pytest.mark.parametrize("layout", ["embedded", "normal"])
    def test_shard_work_meta_volumes_follow_the_chunking(self, layout):
        mds = wide_mds(layout)
        _data, meta = shard_work(DataPlane(small_config()), mds)
        rows = [len(d.entries) + 1 for d in dirs_of(mds)]
        assert meta == [sum(rows[:META_SHARD_DIRS]), sum(rows[META_SHARD_DIRS:])]


class TestFigFsckRunner:
    def test_byte_identical_documents_across_jobs(self):
        kwargs = dict(scale=0.05, seed=0, multipliers=(1, 2), jobs_points=(1, 2))
        doc_1 = baseline.dumps(
            baseline.render(run("fig_fsck", jobs=1, **kwargs), scale=0.05, seed=0)
        )
        doc_2 = baseline.dumps(
            baseline.render(run("fig_fsck", jobs=2, **kwargs), scale=0.05, seed=0)
        )
        assert doc_1 == doc_2

    def test_modeled_makespan_shrinks_with_workers(self):
        result = run(
            "fig_fsck", scale=0.05, seed=0, multipliers=(1,), jobs_points=(1, 4)
        ).payload
        assert result.converged
        for r in result.runs:
            assert r.check_s[4] < r.check_s[1]
            assert r.speedup(4) > 1.0
            assert r.findings > 0


class TestReportPlumbing:
    """Reports cross process boundaries and merge deterministically."""

    def test_reports_pickle_roundtrip(self):
        img = build_crashed_image(scale=0.3, seed=2)
        report = check_dataplane(img.plane, strict_accounting=False)
        repair = repair_dataplane(img.plane)
        for obj in (report, repair):
            clone = pickle.loads(pickle.dumps(obj))
            assert clone == obj

    def test_merge_is_ordered_concatenation(self):
        img = build_crashed_image(scale=0.3, seed=2)
        data = check_dataplane(img.plane, strict_accounting=False)
        meta = check_mds(img.mds)
        merged = data.merge(meta)
        assert [f.code for f in merged.findings] == [
            f.code for f in data.findings
        ] + [f.code for f in meta.findings]
        assert merged.checked_extents == data.checked_extents
        assert merged.checked_inodes == meta.checked_inodes

    def test_fsck_params_validation(self):
        with pytest.raises(ConfigError):
            FsckParams(check_extent_s=-1.0)

    def test_scrub_spec_validation(self):
        with pytest.raises(ConfigError):
            ScrubSpec(interval_s=0.0)
        with pytest.raises(ConfigError):
            ScrubSpec(nfaults=0)


class TestOnlineScrub:
    def test_converges_under_live_corruption(self):
        result = run(
            "service",
            scale=0.2,
            seed=0,
            streams=200,
            telemetry=True,
            scrub=True,
            scrub_corrupt=5,
            scrub_faults=2,
        )
        cell = result.payload.cells[0]
        scrub = cell.scrub
        assert scrub is not None
        assert scrub.injected, "live corruptor never fired"
        assert scrub.findings > 0 and scrub.repairs > 0
        assert scrub.clean_after, "scrubber failed to drain to clean"
        windows = [
            fr for fr in cell.telemetry.frames
            if any(k.startswith("scrub.") for k in fr.counters)
        ]
        assert windows, "scrub findings never reached telemetry"
        # Pinned so the step/finding/repair books cannot move unnoticed
        # (first at commit d75c676, before the scrubber stopped checking a
        # dirty MDS twice).  Which extents exist for the corruptor to hit
        # depends on the arrival sample path: re-recorded at ISSUE 23 step A
        # (column sub-streams in the scalar loop, docs/SERVICE.md).
        assert (scrub.steps, scrub.findings, scrub.repairs, scrub.cycles,
                scrub.drain_cycles, len(scrub.injected)) == (70, 25, 16, 3, 1, 18)
        books = [
            (i, sorted((k, v) for k, v in fr.counters.items() if k.startswith("scrub.")))
            for i, fr in enumerate(cell.telemetry.frames)
        ]
        books = [b for b in books if b[1]]
        assert hashlib.sha256(repr(books).encode()).hexdigest() == (
            "e9c3eb4bc2347ab280d032091e43c04b9bbbe6d6791dbdb56379e1dbee52767d"
        )

    @pytest.mark.parametrize("layout", ["embedded", "normal"])
    def test_mds_step_scans_once_when_clean_twice_when_dirty(self, layout, monkeypatch):
        scans = []
        real_check = verify.check_mds

        def counting_check(mds, jobs=None):
            scans.append(1)
            return real_check(mds, jobs=jobs)

        monkeypatch.setattr(verify, "check_mds", counting_check)
        mds = populated_mds(layout)
        plane = DataPlane(small_config())
        scrubber = Scrubber(plane, mds)
        mds_turn = len(plane.fsm.groups)

        def mds_step():
            scrubber._next = mds_turn
            del scans[:]
            return scrubber.step()

        assert mds_step() == ScrubStep(shard="mds", findings=0, repaired=0)
        assert len(scans) == 1
        twin = populated_mds(layout)
        for damaged in (mds, twin):
            Corruptor(3).corrupt_mds(damaged, nfaults=4)
        expected = repair_mds(twin, max_passes=2)
        step = mds_step()
        # One scan to find the damage, one to confirm the repair took.
        assert len(scans) == 2
        assert step.findings == len(expected.before.findings) > 0
        assert step.repaired == len(expected.actions) > 0
        assert (scrubber.findings_found, scrubber.repairs_applied) == (
            step.findings, step.repaired
        )
        assert mds_step().findings == 0

    def test_scrub_off_leaves_cell_untouched(self):
        result = run("service", scale=0.2, seed=0, streams=200)
        assert result.payload.cells[0].scrub is None
