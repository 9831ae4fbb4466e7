"""File-system core: stream ids, striping arithmetic, profiles, config."""

import pytest

from repro.config import (
    AllocPolicyParams,
    CacheParams,
    DiskParams,
    FSConfig,
    MetaParams,
    SchedulerParams,
)
from repro.errors import ConfigError
from repro.fs.file import RedbudFile, split
from repro.fs.profiles import (
    lustre_profile,
    redbud_mif_profile,
    redbud_vanilla_profile,
    with_alloc_policy,
)
from repro.fs.stream import make_stream_id, split_stream_id


class TestStreamId:
    def test_roundtrip(self):
        for client, pid in [(0, 0), (3, 41), (1000, 99999)]:
            assert split_stream_id(make_stream_id(client, pid)) == (client, pid)

    def test_distinct(self):
        assert make_stream_id(1, 2) != make_stream_id(2, 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            make_stream_id(-1, 0)

    def test_pid_overflow_rejected(self):
        with pytest.raises(ConfigError):
            make_stream_id(0, 1 << 21)


class TestStriping:
    @pytest.fixture
    def f(self) -> RedbudFile:
        return RedbudFile(
            file_id=1, name="/f", layout=[0, 2, 4], stripe_blocks=8
        )

    @staticmethod
    def at(f: RedbudFile, block: int) -> tuple[int, int]:
        """``(slot, dlocal)`` of file block ``block``."""
        slot, dlocal, _ = split(f.stripe_blocks, f.width, block, 1)[0]
        return slot, dlocal

    def test_slot_rotation(self, f):
        assert [self.at(f, b)[0] for b in (0, 7, 8, 16, 24)] == [0, 0, 1, 2, 0]

    def test_dlocal_is_dense_per_slot(self, f):
        # Slot 0 owns stripes 0, 3, 6, ...: their dlocal ranges are packed.
        assert self.at(f, 0) == (0, 0)
        assert self.at(f, 24) == (0, 8)
        assert self.at(f, 48) == (0, 16)
        assert self.at(f, 8) == (1, 0)

    def test_roundtrip(self, f):
        for logical in range(0, 100):
            assert f.to_logical(*self.at(f, logical)) == logical

    def test_segments_split_on_stripe_boundaries(self, f):
        segs = split(f.stripe_blocks, f.width, 6, 12)  # crosses two stripe boundaries
        assert segs == [(0, 6, 2), (1, 0, 8), (2, 0, 2)]
        assert sum(c for _, _, c in segs) == 12
        # A width-1 file's stripe units are one dlocal-contiguous segment.
        assert split(f.stripe_blocks, 1, 6, 12) == [(0, 6, 12)]

    def test_segments_within_one_stripe(self, f):
        assert split(f.stripe_blocks, f.width, 9, 3) == [(1, 1, 3)]

    def test_invalid_args(self, f):
        with pytest.raises(ConfigError):
            f.to_logical(5, 0)
        with pytest.raises(ConfigError):
            f.to_logical(0, -1)

    def test_requires_layout(self):
        with pytest.raises(ConfigError):
            RedbudFile(file_id=1, name="/f", layout=[], stripe_blocks=8)


class TestProfiles:
    def test_paper_systems(self):
        orig = redbud_vanilla_profile()
        lustre = lustre_profile()
        mif = redbud_mif_profile()
        # Both baselines use traditional placement.
        assert orig.alloc.policy == "reservation"
        assert lustre.alloc.policy == "reservation"
        assert orig.meta.layout == "normal"
        assert lustre.meta.layout == "normal"
        # Lustre's MDS is ext4: Htree lookups.
        assert not orig.meta.htree_index
        assert lustre.meta.htree_index
        # MiF enables both techniques.
        assert mif.alloc.policy == "ondemand"
        assert mif.meta.layout == "embedded"

    def test_with_alloc_policy(self):
        cfg = with_alloc_policy(redbud_vanilla_profile(), "static")
        assert cfg.alloc.policy == "static"
        assert "static" in cfg.name

    def test_ndisks_override(self):
        assert redbud_mif_profile(ndisks=8).ndisks == 8


class TestConfigValidation:
    def test_defaults_valid(self):
        FSConfig()

    def test_block_size_multiple_of_512(self):
        with pytest.raises(ConfigError):
            DiskParams(block_size=1000)

    def test_seek_ordering(self):
        with pytest.raises(ConfigError):
            DiskParams(min_seek_s=0.01, max_seek_s=0.001)

    def test_scheduler_kind(self):
        with pytest.raises(ConfigError):
            SchedulerParams(kind="anticipatory")

    def test_readahead_bounds(self):
        with pytest.raises(ConfigError):
            CacheParams(readahead_init_blocks=64, readahead_max_blocks=4)

    def test_policy_name(self):
        with pytest.raises(ConfigError):
            AllocPolicyParams(policy="bogus")

    def test_window_scale_minimum(self):
        with pytest.raises(ConfigError):
            AllocPolicyParams(window_scale=1)

    def test_layout_name(self):
        with pytest.raises(ConfigError):
            MetaParams(layout="flat")

    def test_inode_tail_capacity(self):
        m = MetaParams(inode_size=256, inode_header_size=128, extent_record_size=16)
        assert m.inode_tail_extents == 8

    def test_with_layout_helper(self):
        cfg = FSConfig().with_layout("normal")
        assert cfg.meta.layout == "normal"
