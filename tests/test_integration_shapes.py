"""Paper-shape integration tests: small-scale versions of every headline
claim in §V.  These assert *orderings and directions*, not absolute
numbers — the reproduction target for a simulation-level build.
"""

from __future__ import annotations

import pytest

from repro.core.run import run
from repro.core.runners import prealloc_waste

pytestmark = pytest.mark.slow


class TestFig6Shapes:
    @pytest.fixture(scope="class")
    def fig6a(self):
        # Paper stream counts: below ~32 streams the interleave stride
        # falls inside the drive's skip-merge range and reservation is
        # unpenalized (the same reason the paper's gains grow with scale).
        return run("fig6a", stream_counts=(32, 64), scale=1.0).payload

    def test_ondemand_beats_reservation(self, fig6a):
        for n in fig6a.stream_counts:
            assert fig6a.throughput["ondemand"][n] > fig6a.throughput["reservation"][n]

    def test_static_is_upper_bound(self, fig6a):
        for n in fig6a.stream_counts:
            assert fig6a.throughput["static"][n] >= fig6a.throughput["ondemand"][n]

    def test_gain_grows_with_stream_count(self, fig6a):
        g32 = fig6a.improvement_over("reservation", "ondemand", 32)
        g64 = fig6a.improvement_over("reservation", "ondemand", 64)
        assert g64 > g32

    def test_extents_reduced_by_factor(self, fig6a):
        for n in fig6a.stream_counts:
            assert fig6a.extents["reservation"][n] > 4 * fig6a.extents["ondemand"][n]

    def test_request_size_sweep(self):
        res = run(
            "fig6b", request_sizes=(16 * 1024, 256 * 1024), nstreams=32, scale=1.0
        ).payload
        small, large = res.request_sizes
        # Small phase-1 requests hurt reservation placement the most.
        assert res.throughput["reservation"][small] < res.throughput["reservation"][large]
        # On-demand stays ahead of reservation at the small size.
        assert res.throughput["ondemand"][small] > res.throughput["reservation"][small]


class TestFig7AndTable1:
    @pytest.fixture(scope="class")
    def fig7(self):
        return run("fig7", scale=0.5).payload

    def test_ondemand_wins_non_collective(self, fig7):
        for app in ("IOR", "BTIO"):
            res = fig7.get(app, "reservation", False)
            ond = fig7.get(app, "ondemand", False)
            assert ond.throughput_mib_s > res.throughput_mib_s

    def test_collective_is_much_faster(self, fig7):
        for app in ("IOR", "BTIO"):
            for policy in ("reservation", "ondemand"):
                nc = fig7.get(app, policy, False)
                co = fig7.get(app, policy, True)
                assert co.throughput_mib_s > nc.throughput_mib_s

    def test_collective_shrinks_the_gap(self, fig7):
        """§V.C.2: on-demand's effectiveness is "disappointed" under
        collective I/O."""
        for app in ("IOR", "BTIO"):
            gap_nc = (
                fig7.get(app, "ondemand", False).throughput_mib_s
                / fig7.get(app, "reservation", False).throughput_mib_s
            )
            gap_co = (
                fig7.get(app, "ondemand", True).throughput_mib_s
                / fig7.get(app, "reservation", True).throughput_mib_s
            )
            assert gap_co < gap_nc

    def test_table1_extent_ordering(self):
        t1 = run("table1", scale=0.5).payload
        for app in ("IOR", "BTIO"):
            vanilla = t1.get(app, "vanilla").extents
            reservation = t1.get(app, "reservation").extents
            ondemand = t1.get(app, "ondemand").extents
            assert vanilla >= reservation > ondemand
            # Table I: on-demand cuts extents by a factor vs reservation.
            assert reservation >= 3 * ondemand

    def test_table1_cpu_follows_extents(self):
        t1 = run("table1", scale=0.5).payload
        for app in ("IOR", "BTIO"):
            assert (
                t1.get(app, "ondemand").mds_cpu_pct
                < t1.get(app, "reservation").mds_cpu_pct
            )


class TestFig8Shapes:
    @pytest.fixture(scope="class")
    def fig8(self):
        return run("fig8", scale=0.06, dir_sizes=(500, 5000)).payload

    def test_embedded_faster_everywhere(self, fig8):
        for wl in ("create", "utime", "delete", "readdir-stat"):
            emb = fig8.get("redbud-mif", wl).ops_per_s
            normal = fig8.get("redbud-orig", wl).ops_per_s
            assert emb > normal, wl

    def test_embedded_fewer_disk_requests(self, fig8):
        for wl in ("create", "utime", "delete", "readdir-stat"):
            assert fig8.proportion(wl) < 1.0, wl

    def test_lustre_close_to_redbud(self, fig8):
        """§V.D: "the performance of the original Redbud version is quite
        close to that of the Lustre in all of the workloads"."""
        for wl in ("create", "utime", "delete", "readdir-stat"):
            a = fig8.get("redbud-orig", wl).ops_per_s
            b = fig8.get("lustre", wl).ops_per_s
            assert abs(a - b) / a < 0.25

    def test_rdstat_saving_grows_with_directory_size(self, fig8):
        sizes = sorted(fig8.rdstat_proportion_by_size)
        props = [fig8.rdstat_proportion_by_size[s] for s in sizes]
        assert props[-1] <= props[0]


class TestFig9Shapes:
    @pytest.fixture(scope="class")
    def fig9(self):
        return run("fig9", utilizations=(0.0, 0.8), scale=0.25).payload

    def test_aging_hurts_embedded_creation(self, fig9):
        fresh = fig9.get("redbud-mif", 0.0).create_ops_s
        aged = fig9.get("redbud-mif", 0.8).create_ops_s
        assert aged < fresh

    def test_deletion_not_severely_compromised(self, fig9):
        fresh = fig9.get("redbud-mif", 0.0).delete_ops_s
        aged = fig9.get("redbud-mif", 0.8).delete_ops_s
        assert aged > 0.85 * fresh

    def test_embedded_still_beats_traditional_when_aged(self, fig9):
        emb = fig9.get("redbud-mif", 0.8).create_ops_s
        for base in ("redbud-orig", "lustre"):
            assert emb > fig9.get(base, 0.8).create_ops_s

    def test_creation_hit_exceeds_traditional_hit(self, fig9):
        """Fig. 9: aging's create penalty is specific to embedded content
        preallocation; traditional creation barely moves."""
        emb_drop = 1 - fig9.get("redbud-mif", 0.8).create_ops_s / fig9.get(
            "redbud-mif", 0.0
        ).create_ops_s
        orig_drop = 1 - fig9.get("redbud-orig", 0.8).create_ops_s / fig9.get(
            "redbud-orig", 0.0
        ).create_ops_s
        assert emb_drop > orig_drop


class TestFig10Shapes:
    @pytest.fixture(scope="class")
    def fig10(self):
        return run("fig10", scale=0.3).payload

    def test_embedded_faster_on_file_intensive_apps(self, fig10):
        for app in ("postmark", "tar", "make-clean"):
            assert fig10.time_proportion(app) < 1.0, app

    def test_make_improvement_is_smallest(self, fig10):
        """§V.D.3: make is CPU-intensive, so its gain is much smaller."""
        make_gain = 1 - fig10.time_proportion("make")
        other_gains = [
            1 - fig10.time_proportion(app) for app in ("postmark", "tar", "make-clean")
        ]
        assert make_gain < max(other_gains)
        assert make_gain < 0.15


class TestHeadlineClaims:
    def test_interference_claim(self):
        """§I: intra-file interference costs >40% of I/O performance
        (64 streams: 1 − fragmented / contiguous read-back)."""
        fig = run(
            "fig6a", stream_counts=(64,), policies=("reservation", "static"), scale=1.0
        ).payload
        assert 1.0 - fig.throughput["reservation"][64] / fig.throughput["static"][64] > 0.40

    def test_prealloc_waste_claim(self):
        """§III.C: large static preallocation wastes space on small files."""
        waste = prealloc_waste(nfiles=2000)
        assert waste.waste_ratio > 8.0
