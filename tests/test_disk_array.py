"""Striped disk array: address translation, parallel timelines."""

import pytest

from repro.config import DiskParams, SchedulerParams
from repro.disk.array import DiskArray
from repro.errors import SimulationError
from tests.conftest import columns


@pytest.fixture
def array() -> DiskArray:
    return DiskArray(4, DiskParams(capacity_blocks=1024), SchedulerParams())


class TestGeometry:
    def test_total_blocks(self, array):
        assert array.total_blocks == 4096

    def test_locate(self, array):
        assert array.locate(0) == (0, 0)
        assert array.locate(1023) == (0, 1023)
        assert array.locate(1024) == (1, 0)
        assert array.locate(4095) == (3, 1023)

    def test_locate_out_of_range(self, array):
        with pytest.raises(SimulationError):
            array.locate(4096)
        with pytest.raises(SimulationError):
            array.locate(-1)

    def test_ndisks_positive(self):
        with pytest.raises(SimulationError):
            DiskArray(0, DiskParams(capacity_blocks=1024))


class TestBatches:
    def test_requests_route_to_owning_disk(self, array):
        array.submit_batch(*columns([(1024 + 7, 2)]))
        assert array.disks[1].metrics is array.metrics
        assert array.disks[1].head == 9

    def test_cross_disk_request_rejected(self, array):
        with pytest.raises(SimulationError):
            array.submit_batch(*columns([(1023, 2)]))

    def test_parallel_disks_time_is_max_not_sum(self, array):
        # The same work on two disks takes the max of the two, not the sum.
        t = array.submit_batch(*columns([(0, 64), (1024, 64)]))
        single = DiskArray(1, DiskParams(capacity_blocks=1024), SchedulerParams())
        t_one = single.submit_batch(*columns([(0, 64)]))
        assert t == pytest.approx(t_one, rel=0.01)

    def test_elapsed_is_busiest_disk(self, array):
        array.submit_batch(*columns([(0, 64)]))
        array.submit_batch(*columns([(0, 64)]))
        array.submit_batch(*columns([(1024, 64)]))
        assert array.elapsed_s == pytest.approx(array.disks[0].busy_s)
        assert array.total_busy_s == pytest.approx(
            array.disks[0].busy_s + array.disks[1].busy_s
        )

    def test_reset_timelines(self, array):
        array.submit_batch(*columns([(0, 4)]))
        array.reset_timelines()
        assert array.elapsed_s == 0.0

    def test_empty_batch(self, array):
        assert array.submit_batch(*columns([])) == 0.0
