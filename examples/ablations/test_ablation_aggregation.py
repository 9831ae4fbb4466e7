"""Ablation: aggregated operation pairs (§II.A.2).

"Modern parallel file systems optimize most common metadata access
scenarios by aggregating the operation pairs ... a readdirplus extension is
proposed ... to fetch the entire directory, including inode contents, in a
single MDS request."  Embedded directories exist to make that single
request hit one disk region — but the aggregation itself already saves the
per-request protocol cost, under either layout.
"""

from repro.meta.mds import MetadataServer
from repro.sim.report import Table

from conftest import small_config


def test_ablation_readdirplus_aggregation():
    def run():
        out = {}
        for layout in ("normal", "embedded"):
            mds = MetadataServer(small_config(layout=layout, cache_blocks=4096))
            d = mds.mkdir(mds.root, "work")
            for i in range(400):
                mds.create(d, f"f{i:04d}")
            mds.flush()
            for mode in ("aggregated", "separate"):
                mds.drop_caches()
                t0 = mds.elapsed_s
                if mode == "aggregated":
                    mds.readdir_stat(d)
                else:
                    mds.readdir_then_stats(d)
                out[(layout, mode)] = mds.elapsed_s - t0
        return out

    result = run()
    table = Table(
        "Ablation — readdirplus aggregation x directory layout (400 files, cold)",
        ["layout", "mode", "time (ms)"],
    )
    for (layout, mode), secs in sorted(result.items()):
        table.add_row([layout, mode, secs * 1e3])
    table.print()

    # Aggregation helps both layouts (one request vs n+1)...
    for layout in ("normal", "embedded"):
        assert result[(layout, "aggregated")] < result[(layout, "separate")]
    # ...and the embedded layout makes the aggregated request cheapest.
    assert result[("embedded", "aggregated")] == min(result.values())
