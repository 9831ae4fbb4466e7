"""SimulatedDisk: head tracking, busy-time accounting, batch servicing."""

import pytest

from repro.config import DiskParams, SchedulerParams
from repro.disk.disk import SimulatedDisk
from repro.disk.model import BlockRequest
from repro.errors import SimulationError


@pytest.fixture
def disk() -> SimulatedDisk:
    return SimulatedDisk(
        DiskParams(capacity_blocks=1 << 16),
        SchedulerParams(merge_gap_blocks=0),
    )


class TestSubmit:
    def test_empty_batch_costs_nothing(self, disk):
        assert disk.submit_batch([]) == 0.0
        assert disk.busy_s == 0.0

    def test_busy_time_accumulates(self, disk):
        t1 = disk.submit_one(0, 8, False)
        t2 = disk.submit_one(8, 8, False)
        assert disk.busy_s == pytest.approx(t1 + t2)

    def test_head_moves_to_request_end(self, disk):
        disk.submit_one(100, 10, False)
        assert disk.head == 110

    def test_sequential_continuation_cheaper(self, disk):
        base = SimulatedDisk(disk.params, SchedulerParams(merge_gap_blocks=0))
        t_seq = base.submit_one(0, 8, False)
        t_seq2 = base.submit_one(8, 8, False)  # head at 8: free positioning
        t_far = base.submit_one(30000, 8, False)
        assert t_seq2 < t_far
        assert t_seq2 == pytest.approx(base.model.transfer_time(8))
        assert t_seq >= t_seq2  # first request may position from block 0

    def test_beyond_capacity_rejected(self, disk):
        with pytest.raises(SimulationError):
            disk.submit_one(disk.capacity_blocks - 1, 2, False)

    def test_batch_sorted_by_elevator(self, disk):
        # Two adjacent runs submitted in reverse order service as one
        # positioning: total == positioning(0->0) + transfer(16).
        t = disk.submit_batch([BlockRequest(8, 8), BlockRequest(0, 8)])
        assert t == pytest.approx(disk.model.transfer_time(16))

    def test_metrics(self, disk):
        disk.submit_batch([BlockRequest(0, 4), BlockRequest(1000, 4, is_write=True)])
        assert disk.metrics.count("disk.requests") == 2
        assert disk.metrics.count("disk.blocks") == 8
        assert disk.metrics.count("disk.read_requests") == 1
        assert disk.metrics.count("disk.write_requests") == 1
        assert disk.metrics.count("disk.positionings") >= 1

    def test_reset_timeline_keeps_head(self, disk):
        disk.submit_one(500, 4, False)
        disk.reset_timeline()
        assert disk.busy_s == 0.0
        assert disk.head == 504


class TestFragmentationCost:
    """The core physical claim: scattered layout costs more than contiguous."""

    def test_scattered_blocks_slower_than_contiguous(self, disk):
        contiguous = SimulatedDisk(disk.params, SchedulerParams(merge_gap_blocks=0))
        scattered = SimulatedDisk(disk.params, SchedulerParams(merge_gap_blocks=0))
        t_contig = contiguous.submit_batch([BlockRequest(i * 4, 4) for i in range(16)])
        t_scat = scattered.submit_batch(
            [BlockRequest(i * 2048, 4) for i in range(16)]
        )
        assert t_scat > 3 * t_contig
