"""mdtest tree benchmark: geometry, phases, layout comparison.

The benchmark is ``examples/mdtest.py``: no runner of the package uses
it, and these tests keep it working against the metadata server."""

import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.fs.verify import check_mds
from repro.meta.mds import MetadataServer

from tests.conftest import small_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
from mdtest import MdtestConfig, MdtestWorkload  # noqa: E402


class TestConfigGeometry:
    def test_tree_counts(self):
        cfg = MdtestConfig(depth=2, branch=3, items_per_dir=10)
        assert cfg.ndirs == 13  # 1 + 3 + 9
        assert cfg.nitems == 130

    def test_depth_zero_is_one_dir(self):
        cfg = MdtestConfig(depth=0, branch=5, items_per_dir=4)
        assert cfg.ndirs == 1
        assert cfg.nitems == 4

    def test_unary_branch(self):
        cfg = MdtestConfig(depth=3, branch=1)
        assert cfg.ndirs == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            MdtestConfig(depth=-1)
        with pytest.raises(ConfigError):
            MdtestConfig(ntasks=0)


class TestRun:
    @pytest.fixture(params=["normal", "embedded"])
    def mds(self, request) -> MetadataServer:
        return MetadataServer(small_config(layout=request.param))

    def test_all_phases_produce_rates(self, mds):
        result = MdtestWorkload(MdtestConfig(depth=1, branch=2, items_per_dir=8, ntasks=2)).run(mds)
        assert result.dir_create > 0
        assert result.file_create > 0
        assert result.file_stat > 0
        assert result.file_remove > 0
        assert result.total_ops == (2 * 3) + 3 * (2 * 3 * 8)

    def test_tree_is_fully_removed(self, mds):
        cfg = MdtestConfig(depth=1, branch=2, items_per_dir=4, ntasks=2)
        MdtestWorkload(cfg).run(mds)
        # Directories remain; every file is gone.
        for t in range(cfg.ntasks):
            d = mds.layout.dir_of(mds.stat(mds.root, f"task{t:03d}").ino)
            assert not any(n.startswith("file.") for n in mds.readdir(d))
        check_mds(mds).raise_if_dirty()

    def test_namespace_consistent_after_run(self, mds):
        MdtestWorkload(MdtestConfig(depth=1, branch=2, items_per_dir=4, ntasks=2)).run(mds)
        names = mds.readdir(mds.root)
        assert set(names) == {"task000", "task001"}
        check_mds(mds).raise_if_dirty()


class TestLayoutComparison:
    def test_embedded_beats_normal_on_stat_phase(self):
        rates = {}
        for layout in ("normal", "embedded"):
            mds = MetadataServer(small_config(layout=layout))
            result = MdtestWorkload(
                MdtestConfig(depth=1, branch=3, items_per_dir=32, ntasks=3)
            ).run(mds, cold_stat=True)
            rates[layout] = result
        # Many small directories dilute the create win (checkpoint seeks
        # across groups dominate both layouts); embedded must at least
        # hold parity there and clearly win the cold stat sweep.
        assert rates["embedded"].file_create > 0.9 * rates["normal"].file_create
        assert rates["embedded"].file_stat > 1.5 * rates["normal"].file_stat
