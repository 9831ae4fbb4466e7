"""Extra harness: mdtest-style tree metadata benchmark.

Not a paper figure — Metarates covers Fig. 8 — but the standard companion
benchmark a user of this library runs next.  Reported like mdtest: ops/s
per phase, for the three systems.
"""

from repro.fs.profiles import lustre_profile, redbud_mif_profile, redbud_vanilla_profile
from repro.meta.mds import MetadataServer
from repro.sim.report import Table

from mdtest import MdtestConfig, MdtestWorkload


def test_extra_mdtest():
    cfg = MdtestConfig(depth=2, branch=3, items_per_dir=64, ntasks=4)

    def run():
        out = {}
        for profile in (
            redbud_vanilla_profile(),
            lustre_profile(),
            redbud_mif_profile(),
        ):
            mds = MetadataServer(profile)
            out[profile.name] = MdtestWorkload(cfg).run(mds, cold_stat=True)
        return out

    result = run()
    table = Table(
        f"mdtest — depth {cfg.depth}, branch {cfg.branch}, "
        f"{cfg.items_per_dir} items/dir, {cfg.ntasks} tasks (ops/s)",
        ["system", "dir create", "file create", "file stat", "file remove"],
    )
    for name, r in result.items():
        table.add_row([name, r.dir_create, r.file_create, r.file_stat, r.file_remove])
    table.print()

    mif = result["redbud-mif"]
    orig = result["redbud-orig"]
    # Embedded wins the cold stat sweep and holds parity elsewhere.
    assert mif.file_stat > orig.file_stat
    assert mif.file_create > 0.9 * orig.file_create
    assert mif.file_remove > 0.9 * orig.file_remove
