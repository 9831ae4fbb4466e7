"""The five ledger workloads: what each runs, at what size, how it is checked.

Every workload is a closed-loop host run at ``jobs=1``: one call into the
simulator per sample, timed from outside.  A workload supplies four steps —
``setup`` (fixtures, once), ``restore`` (per sample, untimed), ``timed``
(the measured call) and ``outcome`` (untimed: op count, the rendered
simulated document, output checks, exact layer counters).

The simulator is always reached through its module attributes
(``core_run.run``, ``verify.check_mds``…) at call time, never through names
bound at import, so the span pass's wrappers are the ones that get called.

Sizes: ``full`` is what the ledger measures — a timed sample takes 0.3-1 s
on the reference box, so a run holds a dozen or more, each bracketed by
yardstick readings; ``smoke`` is the self-test size.  The ``expect`` entries
are the *requested* counts the outputs are checked against — derived from the size, never from
a previous run, so they hold at any seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import pickle
from dataclasses import dataclass, field
from typing import Any

import repro.fault.crashimage as crashimage
import repro.fs.verify as verify
from repro.bench.baseline import dumps, render
from repro.fs.profiles import redbud_mif_profile

# ``repro.core`` re-exports the function ``run`` over its submodule of the
# same name, so ``import repro.core.run as m`` would bind the function.
core_run = importlib.import_module("repro.core.run")

MiB = 1 << 20


@dataclass
class Outcome:
    """What one sample produced, apart from how long it took."""

    ops: int
    #: Canonical text of every simulated result; hashed into ``sim_digest``.
    document: str
    checks: dict[str, bool]
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.document.encode()).hexdigest()[:16]


def layer_counters(snapshots, **extra: float) -> dict[str, float]:
    """Exact per-layer counters from the run's metrics bags.

    They repeat bit-for-bit at a fixed seed, so any change between two
    commits means simulated behaviour changed.  The two
    ``disk.array.*_path_calls`` counters come from the span recorder's call
    counts and are added by the child.
    """

    def count(name: str) -> int:
        return sum(s.count(name) for s in snapshots)

    def total(name: str) -> float:
        return sum(s.total(name) for s in snapshots)

    requests = count("alloc.requests")
    lookups = count("cache.hits") + count("cache.misses")
    out = {
        "fs.dataplane.ops": count("fs.reads") + count("fs.writes"),
        "fs.dataplane.coalesced_requests": count("fs.coalesced_requests"),
        "alloc.requests": requests,
        "alloc.layout_misses": count("alloc.trigger_layout_miss"),
        "alloc.window_hit_ratio": count("alloc.cw_hits") / requests if requests else 0.0,
        "block.allocations": count("fsm.allocations"),
        "block.group_fallbacks": count("fsm.group_fallbacks"),
        "disk.array.requests": count("disk.requests"),
        "disk.model.positionings": count("disk.positionings"),
        "disk.model.sim_busy_s": total("disk.positioning_s") + total("disk.transfer_s"),
        "disk.cache.hit_ratio": count("cache.hits") / lookups if lookups else 0.0,
        "disk.cache.evictions": count("cache.evictions"),
        "meta.mds.ops": sum(
            n for s in snapshots for name, n in s.counters.items()
            if name.startswith("mds.op.")
        ),
        "meta.mds.checkpoints": count("mds.checkpoints"),
        "meta.journal.writes": count("mds.journal_writes"),
        "sim.events.arrivals": 0,
        "sim.events.drops": 0,
        "obs.events_emitted": 0,
        "obs.events_dropped": 0,
        "fs.verify.items_checked": 0,
        "fs.verify.findings": 0,
        "fs.verify.repair_actions": 0,
        "core.sim_elapsed_s": 0.0,
    }
    out.update(extra)
    return out


class RunnerWorkload:
    """A registered runner called once per sample with fixed keywords."""

    def __init__(self, name: str, runner: str, sizes: dict[str, dict]) -> None:
        self.name = name
        self.runner = runner
        self.sizes = sizes

    def setup(self, seed: int, size: str) -> dict:
        spec = self.sizes[size]
        return {"kwargs": dict(spec["kwargs"], seed=seed, jobs=1), "expect": spec["expect"]}

    def restore(self, fixture: dict) -> dict:
        return fixture

    def timed(self, fixture: dict):
        return core_run.run(self.runner, **fixture["kwargs"])

    def outcome(self, fixture: dict, result) -> Outcome:
        kwargs = fixture["kwargs"]
        doc = render(result, scale=kwargs.get("scale", 1.0), seed=kwargs["seed"])
        extra: dict[str, float] = {
            "core.sim_elapsed_s": sum(p.elapsed for p in result.phases.values()),
        }
        if result.trace is not None:
            extra["obs.events_emitted"] = result.trace.emitted
            extra["obs.events_dropped"] = result.trace.dropped
            doc["trace"] = {
                "emitted": result.trace.emitted, "dropped": result.trace.dropped,
            }
        ops, checks = self.inspect(result, fixture["expect"], doc, extra)
        return Outcome(
            ops=ops,
            document=dumps(doc),
            checks=checks,
            counters=layer_counters([result.metrics], **extra),
        )

    def inspect(self, result, expect: dict, doc: dict, extra: dict):
        """``(ops, checks)``; may add to the document and the counters."""
        raise NotImplementedError


class MacroData(RunnerWorkload):
    def inspect(self, result, expect, doc, extra):
        phases = result.phases
        m = result.metrics
        checks = {
            "phases_present": len(phases) == expect["phases"],
            "phase_bytes_as_requested": all(
                p.bytes_moved == expect["bytes"][label.split(":")[1]]
                for label, p in phases.items()
            ),
            "phase_ops_match_dataplane_ops": (
                sum(p.ops for p in phases.values())
                == m.count("fs.reads") + m.count("fs.writes")
            ),
            "phase_bytes_match_dataplane_bytes": (
                sum(p.bytes_moved for p in phases.values())
                == m.count("fs.bytes_read") + m.count("fs.bytes_written")
            ),
        }
        return sum(p.ops for p in phases.values()), checks


class MetaRates(RunnerWorkload):
    def inspect(self, result, expect, doc, extra):
        phases = result.phases
        per_file = expect["clients"] * expect["files_per_dir"]
        wanted = {
            "create": per_file, "utime": per_file, "delete": per_file,
            "readdir-stat": per_file + expect["clients"],
        }
        checks = {
            "phases_present": len(phases) == expect["phases"],
            "phase_ops_as_requested": all(
                p.ops == wanted[label.split(":")[0]] and p.bytes_moved == 0
                for label, p in phases.items()
            ),
            "tracer_as_requested": (result.trace is not None) == expect["traced"],
        }
        return sum(p.ops for p in phases.values()), checks


class ServiceOpen(RunnerWorkload):
    def inspect(self, result, expect, doc, extra):
        (cell,) = result.payload.cells
        stations = cell.stations.values()
        doc["service"] = {
            "arrivals": cell.arrivals,
            "active_streams": cell.active_streams,
            "io_profile": cell.io_profile,
            "stations": {n: dataclasses.asdict(s) for n, s in cell.stations.items()},
            "slo": cell.slo.to_dict(),
            "telemetry_arrivals": sum(cell.telemetry.counter_values("arrivals")),
        }
        extra["sim.events.arrivals"] = cell.arrivals
        extra["sim.events.drops"] = sum(s.dropped for s in stations)
        checks = {
            "arrivals_positive": cell.arrivals > 0,
            "arrivals_all_offered": cell.arrivals == sum(s.offered for s in stations),
            "offered_completed_or_dropped": all(
                s.offered == s.completed + s.dropped for s in stations
            ),
            "telemetry_saw_every_arrival": (
                doc["service"]["telemetry_arrivals"] == cell.arrivals
            ),
            "streams_as_requested": cell.streams == expect["streams"],
        }
        return cell.arrivals, checks


class FsckImage:
    """Check -> repair to convergence -> clean re-check of two crashed images.

    Set-up builds one Corruptor-damaged image per directory layout and
    pickles it; every sample unpickles fresh copies (untimed — unpickling
    was the cheapest of pickle/deepcopy/rebuild) so repair always starts
    from the same damage.
    """

    LAYOUTS = ("embedded", "normal")

    def __init__(self, name: str, sizes: dict[str, dict]) -> None:
        self.name = name
        self.sizes = sizes

    def setup(self, seed: int, size: str) -> dict:
        images = {}
        books = []
        for layout in self.LAYOUTS:
            img = crashimage.build_crashed_image(
                seed=seed, layout=layout, **self.sizes[size]["kwargs"]
            )
            books += [img.plane.metrics.snapshot(), img.mds.metrics.snapshot()]
            images[layout] = {
                "blob": pickle.dumps((img.plane, img.mds), pickle.HIGHEST_PROTOCOL),
                "injected": list(img.injected),
                "extents": img.extents,
            }
        return {"images": images, "books": books, "expect": self.sizes[size]["expect"]}

    def restore(self, fixture: dict) -> dict:
        return {
            layout: pickle.loads(image["blob"])
            for layout, image in fixture["images"].items()
        }

    def timed(self, state: dict) -> dict:
        out = {}
        for layout, (plane, mds) in state.items():
            before = verify.check_dataplane(
                plane, strict_accounting=False, jobs=1
            ).merge(verify.check_mds(mds, jobs=1))
            repair = verify.repair_dataplane(plane, jobs=1).merge(
                verify.repair_mds(mds, jobs=1)
            )
            after = verify.check_dataplane(plane, jobs=1).merge(
                verify.check_mds(mds, jobs=1)
            )
            out[layout] = (before, repair, after)
        return out

    def outcome(self, fixture: dict, result: dict) -> Outcome:
        doc = {}
        checks = {}
        items = findings = actions = 0
        for layout, (before, repair, after) in result.items():
            image = fixture["images"][layout]
            checked = before.checked_extents + before.checked_inodes
            doc[layout] = {
                "injected": image["injected"],
                "before": [dataclasses.asdict(f) for f in before.findings],
                "actions": [dataclasses.asdict(a) for a in repair.actions],
                "passes": repair.passes,
                "after": [dataclasses.asdict(f) for f in after.findings],
                "checked": [before.checked_extents, before.checked_inodes],
            }
            checks[f"{layout}.damage_injected"] = bool(image["injected"])
            checks[f"{layout}.dirty_before_repair"] = not before.clean
            checks[f"{layout}.repair_converged"] = repair.converged
            checks[f"{layout}.clean_after_repair"] = after.clean
            # The checker walks directory entries (every directory and file
            # the image was asked to hold, bar the root), whatever the
            # corruptor did to the inode table.
            checks[f"{layout}.whole_image_checked"] = (
                before.checked_inodes == fixture["expect"]["entries"]
                and before.checked_extents == image["extents"]
            )
            items += checked
            findings += len(before.findings)
            actions += len(repair.actions)
        return Outcome(
            ops=items,
            document=json.dumps(doc, sort_keys=True),
            checks=checks,
            counters=layer_counters(
                fixture["books"],
                **{
                    "fs.verify.items_checked": items,
                    "fs.verify.findings": findings,
                    "fs.verify.repair_actions": actions,
                },
            ),
        )


_FIG8 = {"clients": 10, "phases": 12}
_SERVICE = {"rate": "small", "duration": "short", "telemetry": True, "slo": True}

WORKLOADS: dict[str, Any] = {
    w.name: w
    for w in (
        # IOR+BTIO under reservation vs on-demand allocation drive the whole
        # data path (dataplane, block, alloc, disk.*) and never touch meta.*.
        MacroData("macro_data", "fig7", {
            "full": {
                "kwargs": {"scale": 0.5},
                "expect": {"phases": 16, "bytes": {"IOR": 128 * MiB, "BTIO": 64 * MiB}},
            },
            "smoke": {
                "kwargs": {"scale": 0.25, "policies": ("ondemand",), "collectives": (False,)},
                "expect": {"phases": 4, "bytes": {"IOR": 64 * MiB, "BTIO": 64 * MiB}},
            },
        }),
        # create/utime/readdir-stat/delete over three profiles: all meta.* and
        # disk.cache, zero calls into the data path — macro_data's mirror image.
        # dir_sizes is pinned because the default sweep costs seconds at any scale.
        MetaRates("meta_rates", "fig8", {
            "full": {
                "kwargs": {"scale": 0.04, "dir_sizes": (200,)},
                "expect": dict(_FIG8, files_per_dir=200, traced=False),
            },
            "smoke": {
                "kwargs": {"scale": 0.04, "dir_sizes": (200,), "profiles": (redbud_mif_profile(),)},
                "expect": dict(_FIG8, phases=4, files_per_dir=200, traced=False),
            },
        }),
        # The same call under a full Tracer, which steers every plan onto the
        # scalar metadata path and the object disk path: a gain for the batched
        # path that costs the observed path (or the reverse) shows only here.
        MetaRates("meta_rates_traced", "fig8", {
            "full": {
                "kwargs": {"scale": 0.04, "dir_sizes": (200,), "trace": True},
                "expect": dict(_FIG8, files_per_dir=200, traced=True),
            },
            "smoke": {
                "kwargs": {
                    "scale": 0.04, "dir_sizes": (200,), "trace": True,
                    "profiles": (redbud_mif_profile(),),
                },
                "expect": dict(_FIG8, phases=4, files_per_dir=200, traced=True),
            },
        }),
        # Open-loop simulation: event loop, generators and telemetry own the
        # wall clock and every FS layer is nearly idle, so work on sim.events /
        # workloads / obs shows here and FS-layer work does not.
        ServiceOpen("service_open", "service", {
            "full": {
                "kwargs": dict(_SERVICE, streams=50_000),
                "expect": {"streams": 50_000},
            },
            "smoke": {
                "kwargs": dict(_SERVICE, streams=2_000),
                "expect": {"streams": 2_000},
            },
        }),
        # The only workload where fs.verify does the work: the recovery path,
        # measured next to the foreground paths.
        FsckImage("fsck_image", {
            # entries = 8*scale directories, each holding 30*scale files
            "full": {"kwargs": {"scale": 8}, "expect": {"entries": 64 + 64 * 240}},
            "smoke": {"kwargs": {"scale": 2}, "expect": {"entries": 16 + 16 * 60}},
        }),
    )
}
