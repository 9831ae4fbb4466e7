"""fsck repair: seeded corruption converges back to a clean report."""

from __future__ import annotations

import pytest

from repro.fault import Corruptor
from repro.fs.dataplane import DataPlane
from repro.fs.stream import make_stream_id
from repro.fs.verify import (
    check_dataplane,
    check_mds,
    repair_dataplane,
    repair_mds,
)
from repro.meta.mds import MetadataServer
from repro.units import KiB

from tests.conftest import small_config


def populated_plane() -> DataPlane:
    plane = DataPlane(small_config())
    for i in range(4):
        f = plane.create_file(f"file{i}")
        for r in range(3):
            reqs = plane.write(f, make_stream_id(i, 0), r * 32 * KiB, 32 * KiB)
            plane.array.submit_batch(*reqs, True)
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


class TestDataplaneRepair:
    def test_corruption_then_repair_converges(self):
        plane = populated_plane()
        codes = Corruptor(0).corrupt_dataplane(plane, nfaults=3)
        assert codes  # a populated plane always offers targets
        before = check_dataplane(plane)
        assert not before.clean
        repair = repair_dataplane(plane)
        assert repair.converged, [f.message for f in repair.after.findings]
        assert repair.actions

    @pytest.mark.parametrize("seed", range(6))
    def test_converges_for_many_seeds(self, seed):
        plane = populated_plane()
        Corruptor(seed).corrupt_dataplane(plane, nfaults=3)
        assert repair_dataplane(plane).converged

    def test_repair_of_clean_plane_is_a_noop(self):
        plane = populated_plane()
        repair = repair_dataplane(plane)
        assert repair.passes == 0
        assert repair.actions == []
        assert repair.converged

    def test_corruptor_is_deterministic(self):
        codes_a = Corruptor(3).corrupt_dataplane(populated_plane(), nfaults=3)
        codes_b = Corruptor(3).corrupt_dataplane(populated_plane(), nfaults=3)
        assert codes_a == codes_b


class TestMdsRepair:
    @pytest.mark.parametrize("layout", ["embedded", "normal"])
    def test_corruption_then_repair_converges(self, layout):
        mds = populated_mds(layout)
        codes = Corruptor(0).corrupt_mds(mds, nfaults=3)
        assert codes
        before = check_mds(mds)
        assert not before.clean
        repair = repair_mds(mds)
        assert repair.converged, [f.message for f in repair.after.findings]

    @pytest.mark.parametrize("layout", ["embedded", "normal"])
    @pytest.mark.parametrize("seed", range(6))
    def test_converges_for_many_seeds(self, layout, seed):
        mds = populated_mds(layout)
        Corruptor(seed).corrupt_mds(mds, nfaults=4)
        assert repair_mds(mds).converged

    @pytest.mark.parametrize("layout", ["embedded", "normal"])
    def test_server_usable_after_repair(self, layout):
        mds = populated_mds(layout)
        Corruptor(1).corrupt_mds(mds, nfaults=3)
        repair_mds(mds)
        d = mds.mkdir(mds.root, "fresh")
        for i in range(5):
            mds.create(d, f"n{i}")
        assert set(mds.readdir(d)) == {f"n{i}" for i in range(5)}
        check_mds(mds).raise_if_dirty()

    def test_repair_of_clean_mds_is_a_noop(self):
        mds = populated_mds("embedded")
        repair = repair_mds(mds)
        assert repair.passes == 0
        assert repair.actions == []
        assert repair.converged
