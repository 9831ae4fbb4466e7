"""Disk service-time model and request validation."""

import pytest

from repro.config import DiskParams
from repro.disk.model import BlockRequest, ServiceTimeModel
from repro.errors import SimulationError


@pytest.fixture
def model() -> ServiceTimeModel:
    return ServiceTimeModel(DiskParams(capacity_blocks=1 << 20))


class TestBlockRequest:
    def test_end(self):
        assert BlockRequest(10, 5).end == 15

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            BlockRequest(-1, 1)

    def test_zero_length_rejected(self):
        with pytest.raises(SimulationError):
            BlockRequest(0, 0)


class TestPositioningTime:
    def test_sequential_is_free(self, model):
        assert model.positioning_time(100, 100) == 0.0

    def test_near_gap_charged_settle_only(self, model):
        p = model.params
        t = model.positioning_time(100, 100 + p.near_gap_blocks)
        assert t == p.min_seek_s

    def test_beyond_near_gap_adds_rotation(self, model):
        p = model.params
        t = model.positioning_time(100, 100 + p.near_gap_blocks + 1)
        assert t > p.min_seek_s + p.rotational_s * 0.99

    def test_monotonic_in_distance(self, model):
        d1 = model.positioning_time(0, 1000)
        d2 = model.positioning_time(0, 100000)
        d3 = model.positioning_time(0, 1000000)
        assert d1 < d2 < d3

    def test_symmetric(self, model):
        assert model.positioning_time(0, 5000) == model.positioning_time(5000, 0)

    def test_full_stroke_bounded(self, model):
        p = model.params
        t = model.positioning_time(0, p.capacity_blocks - 1)
        assert t <= p.max_seek_s + p.rotational_s + 1e-12


class TestTransferTime:
    def test_linear_in_blocks(self, model):
        assert model.transfer_time(10) == pytest.approx(10 * model.transfer_time(1))

    def test_matches_bandwidth(self, model):
        p = model.params
        # One second of transfer moves seq_bandwidth bytes.
        blocks_per_s = p.seq_bandwidth / p.block_size
        assert model.transfer_time(int(blocks_per_s)) == pytest.approx(1.0, rel=1e-3)

    def test_negative_rejected(self, model):
        with pytest.raises(SimulationError):
            model.transfer_time(-1)


class TestServiceTime:
    def test_sequential_request_is_transfer_only(self, model):
        req = BlockRequest(100, 8)
        assert model.time_for(100, req) == pytest.approx(model.transfer_time(8))

    def test_includes_positioning(self, model):
        req = BlockRequest(100000, 8)
        expected = model.positioning_time(0, 100000) + model.transfer_time(8)
        assert model.time_for(0, req) == pytest.approx(expected)
