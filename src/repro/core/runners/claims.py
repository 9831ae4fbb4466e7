"""The paper's claims as one table, and the ``claims`` runner that gates it.

A :class:`Claim` is a row: the run it reads (``figure``, a key of
:data:`FIGURES`), one scalar ``measure`` over that run's payload — a ratio
or a difference, so an ordering, a trend and a threshold are all "the
scalar lies in its band" — the band, and the paper's own number, shown
beside the measurement and never gated.  The bands are properties of scale
1.0 (fragmentation is a function of volume and history): the runner gates
there, and at any other scale prints the same scoreboard marked "not gated".
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.core.run import RunnerCommand, RunResult, register
from repro.core.run import run as run_experiment
from repro.core.sweep import CellResult, _Cell, _Run, _scaled
from repro.fs.dataplane import DataPlane
from repro.fs.profiles import redbud_vanilla_profile, with_alloc_policy
from repro.obs.trace import NullTracer, Tracer
from repro.units import KiB, MiB
from repro.workloads.filesizes import kernel_tree_sizes
from repro.workloads.streams import SharedFileMicrobench


@dataclass
class FppGap:
    """Shared-file vs file-per-process read-back throughput (MiB/s)."""

    shared: dict[str, float] = field(default_factory=dict)   # policy -> MiB/s
    per_process: dict[str, float] = field(default_factory=dict)

    def gap(self, policy: str) -> float:
        """file-per-process / shared ratio (paper: ~5x under traditional
        placement; MiF's goal is to pull it toward 1)."""
        return self.per_process[policy] / self.shared[policy]


def file_per_process_gap(
    policies: tuple[str, ...] = ("reservation", "ondemand"),
    nstreams: int = 32,
    scale: float = 1.0,
    ndisks: int = 5,
    seed: int = 0,
) -> FppGap:
    """§II.A.1: per-process files beat one shared file "by a factor of 5"
    under traditional placement; on-demand preallocation closes the gap."""
    from repro.workloads.fpp import FilePerProcessBench

    total = _scaled(192 * MiB, scale, floor=32 * MiB)
    total -= total % nstreams
    out = FppGap()
    for policy in policies:
        cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
        plane = DataPlane(cfg)
        bench = SharedFileMicrobench(
            nstreams=nstreams, file_bytes=total, write_request_bytes=16 * KiB,
            seed=seed,
        )
        f = bench.create_shared_file(plane)
        bench.phase1_write(plane, f)
        plane.close_file(f)
        out.shared[policy] = bench.phase2_read(plane, f).mib_per_s

        cfg = with_alloc_policy(redbud_vanilla_profile(ndisks=ndisks), policy)
        plane = DataPlane(cfg)
        fpp = FilePerProcessBench(
            nstreams=nstreams, total_bytes=total, write_request_bytes=16 * KiB,
            seed=seed,
        )
        files = fpp.create_files(plane)
        fpp.phase1_write(plane, files)
        for g in files:
            plane.close_file(g)
        out.per_process[policy] = fpp.phase2_read(plane, files).mib_per_s
    return out


@dataclass
class PreallocWaste:
    """§III.C: space occupied by static preallocation on small files."""

    prealloc_bytes: int
    occupied_small: int
    occupied_large: int

    @property
    def waste_ratio(self) -> float:
        return self.occupied_large / self.occupied_small


def prealloc_waste(
    nfiles: int = 5000, small: int = 16 * KiB, large: int = 256 * KiB, seed: int = 0
) -> PreallocWaste:
    """§III.C: static 256 KiB preallocation on kernel-tree files occupies
    far more space than 16 KiB (the paper measured ~100×... on 8 GiB vs
    80 MiB; the ratio here is bounded by 256/16 = 16× because occupation
    is dominated by the preallocation floor)."""
    sizes = kernel_tree_sizes(nfiles, seed=seed)
    block = 4096
    occupied = {}
    for prealloc in (small, large):
        total = 0
        for s in sizes:
            total += max(int(s), prealloc)
        occupied[prealloc] = -(-total // block) * block
    return PreallocWaste(
        prealloc_bytes=large,
        occupied_small=occupied[small],
        occupied_large=occupied[large],
    )


# -- the table -----------------------------------------------------------------

INF = math.inf


@dataclass(frozen=True)
class Verdict:
    """One evaluated row of the scoreboard (plain values: it crosses pickle)."""

    id: str
    source: str
    statement: str
    paper: str
    measured: float
    band: str
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class Claim:
    """One claim of the paper: ``lo < measure(payload) < hi``, where an edge
    named in ``closed`` ("[", "]" or "[]") is inclusive."""

    id: str
    source: str
    statement: str
    figure: str
    measure: Callable[[Any], float]
    lo: float
    hi: float
    paper: str = "—"
    closed: str = ""

    @property
    def band(self) -> str:
        left = "[" if "[" in self.closed else "("
        right = "]" if "]" in self.closed else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"

    def evaluate(self, payload: Any) -> Verdict:
        """The row's verdict.  A ``measure`` that raises, or is not finite,
        fails its own row (id in the note) and no other."""
        note = ""
        try:
            value = float(self.measure(payload))
        except (LookupError, ArithmeticError) as exc:
            value, note = math.nan, f"{self.id}: {exc!r}"
        above = value >= self.lo if "[" in self.closed else value > self.lo
        below = value <= self.hi if "]" in self.closed else value < self.hi
        ok = math.isfinite(value) and above and below
        if not ok and not note:
            note = f"{self.id}: measured {value:.3g} outside {self.band}"
        return Verdict(
            self.id, self.source, self.statement, self.paper, value, self.band, ok, note
        )


def _figure(name: str, factor: float = 1.0, **kwargs):
    """The registered runner ``name``, serial, at its paper configuration."""
    return lambda scale, seed, trace: run_experiment(
        name, scale=factor * scale, seed=seed, trace=trace, jobs=1, **kwargs
    )


#: The nine runs the table reads: ``(scale, seed, trace)`` -> a RunResult, or
#: the bare payload of the plain functions above.  Runner defaults are the
#: paper's sweeps (fig6b: 32 streams x 4K-256K); fig8 runs 10 x 1000 files.
FIGURES: dict[str, Callable[[float, int, Any], Any]] = {
    "fig6a": _figure("fig6a"),
    "fig6b": _figure("fig6b"),
    "fig7": _figure("fig7"),
    "table1": _figure("table1"),
    "fig8": _figure("fig8", 0.2),
    "fig9": _figure("fig9", utilizations=(0.0, 0.2, 0.4, 0.6, 0.8)),
    "fig10": _figure("fig10"),
    "file_per_process_gap": lambda scale, seed, trace: file_per_process_gap(
        scale=scale, seed=seed
    ),
    "prealloc_waste": lambda scale, seed, trace: prealloc_waste(seed=seed),
}

_APPS = ("IOR", "BTIO")
_META = ("create", "utime", "delete", "readdir-stat")
_FILE_BOUND = ("postmark", "tar", "make-clean")


def _gain(p, n: int) -> float:  # Fig 6(a)
    return p.improvement_over("reservation", "ondemand", n)


def _tput(p, app: str, policy: str, collective: bool) -> float:  # Fig 7
    return p.get(app, policy, collective).throughput_mib_s


def _lead(p, app: str, collective: bool) -> float:  # Fig 7: on-demand / reservation
    return _tput(p, app, "ondemand", collective) / _tput(p, app, "reservation", collective)


def _saved(p, program: str) -> float:  # Fig 10: execution time saved against Lustre
    return 1.0 - p.time_proportion(program)


CLAIMS: tuple[Claim, ...] = (
    Claim("intro.interference", "§I", "intra-file interference costs over 40 % of read "
          "throughput (64 streams: 1 − fragmented / contiguous)", "fig6a",
          lambda p: 1.0 - p.throughput["reservation"][64] / p.throughput["static"][64],
          0.40, INF, ">0.40"),
    *(Claim(f"fig6a.gain.n{n}", "Fig 6(a)", f"on-demand reads back faster than reservation "
            f"at {n} streams (gain)", "fig6a", lambda p, n=n: _gain(p, n), 0.0, INF, paper)
      for n, paper in ((32, "0.17"), (48, "0.27"), (64, "0.48"))),
    Claim("fig6a.gain.grows", "Fig 6(a)", "the gain grows with the stream count (gain at 64 "
          "− gain at 32)", "fig6a", lambda p: _gain(p, 64) - _gain(p, 32), 0.0, INF, "0.31"),
    *(Claim(f"fig6a.static.n{n}", "Fig 6(a)", f"static preallocation is the contiguous upper "
            f"bound at {n} streams (static / on-demand)", "fig6a",
            lambda p, n=n: p.throughput["static"][n] / p.throughput["ondemand"][n],
            1.0, INF, "1.02–1.17", closed="[")
      for n in (32, 48, 64)),
    Claim("fig6b.reservation.small", "Fig 6(b)", "small allocation sizes hurt reservation "
          "(read-back after 4K / after 256K requests)", "fig6b",
          lambda p: p.throughput["reservation"][4 * KiB] / p.throughput["reservation"][256 * KiB],
          -INF, 1.0),
    Claim("fig6b.ondemand.mitigates", "Fig 6(b)", "on-demand mitigates the interference "
          "(on-demand / reservation at 4K)", "fig6b",
          lambda p: p.throughput["ondemand"][4 * KiB] / p.throughput["reservation"][4 * KiB],
          1.0, INF),
    Claim("fig6b.static.flat", "Fig 6(b)", "static is insensitive to the request size "
          "((max − min) / max)", "fig6b",
          lambda p: 1.0 - min(p.throughput["static"].values())
          / max(p.throughput["static"].values()), -INF, 0.2, "0"),
    *(Claim(f"fig7.{app}.gain", "Fig 7", f"on-demand beats reservation on non-collective {app} "
            "(gain)", "fig7", lambda p, app=app: _lead(p, app, False) - 1.0, 0.0, INF, paper)
      for app, paper in zip(_APPS, ("<0.19", "0.19"))),
    *(Claim(f"fig7.{app}.{policy}.collective", "Fig 7", f"collective I/O is faster than "
            f"non-collective ({app}, {policy}; ratio)", "fig7",
            lambda p, a=app, b=policy: _tput(p, a, b, True) / _tput(p, a, b, False), 1.0, INF)
      for app in _APPS for policy in ("reservation", "ondemand")),
    *(Claim(f"fig7.{app}.crossover", "Fig 7", f"collective I/O erases on-demand's lead on {app} "
            "(on-demand / reservation: collective − non-collective)", "fig7",
            lambda p, app=app: _lead(p, app, True) - _lead(p, app, False), -INF, 0.0)
      for app in _APPS),
    *(Claim(f"table1.{app}.vanilla", "Table I", f"vanilla leaves at least reservation's "
            f"extents on {app} (vanilla / reservation)", "table1",
            lambda p, app=app: p.get(app, "vanilla").extents / p.get(app, "reservation").extents,
            1.0, INF, paper, closed="[")
      for app, paper in zip(_APPS, ("1.63", "1.90"))),
    *(Claim(f"table1.{app}.extents", "Table I", f"on-demand cuts {app}'s extents severalfold "
            "(reservation / on-demand)", "table1",
            lambda p, app=app: p.get(app, "reservation").extents / p.get(app, "ondemand").extents,
            3.0, INF, paper, closed="[")
      for app, paper in zip(_APPS, ("5.4", "6.6"))),
    *(Claim(f"table1.{app}.cpu.{base}", "Table I", f"fewer extents, less MDS CPU on {app} "
            f"(on-demand / {base})", "table1",
            lambda p, a=app, b=base: p.get(a, "ondemand").mds_cpu_pct / p.get(a, b).mds_cpu_pct,
            -INF, 1.0, paper)
      for app, papers in zip(_APPS, (("0.18", "0.16"), ("0.13", "0.10")))
      for base, paper in zip(("reservation", "vanilla"), papers)),
    *(Claim(f"fig8.{wl}.gain", "Fig 8", f"the embedded directory speeds up {wl} (redbud-mif "
            "over redbud-orig, gain)", "fig8",
            lambda p, wl=wl: p.get("redbud-mif", wl).ops_per_s
            / p.get("redbud-orig", wl).ops_per_s - 1.0, 0.0, INF, "0.23–1.70")
      for wl in _META),
    *(Claim(f"fig8.{wl}.requests", "Fig 8", f"and needs fewer MDS disk requests for {wl} "
            "(embedded / normal)", "fig8", lambda p, wl=wl: p.proportion(wl), -INF, 1.0)
      for wl in _META),
    Claim("fig8.rdstat.size", "Fig 8(c)", "the readdir-stat saving grows with the directory "
          "size (request proportion at 10000 − at 1000 files)", "fig8",
          lambda p: p.rdstat_proportion_by_size[10000] - p.rdstat_proportion_by_size[1000],
          -INF, 0.0, closed="]"),
    Claim("fig9.create.drops", "Fig 9", "aging to 80 % slows embedded creation (fraction lost)",
          "fig9", lambda p: 1.0 - p.get("redbud-mif", 0.8).create_ops_s
          / p.get("redbud-mif", 0.0).create_ops_s, 0.02, INF, "0.43"),
    Claim("fig9.delete.holds", "Fig 9", "deletion is not severely compromised (aged / fresh)",
          "fig9", lambda p: p.get("redbud-mif", 0.8).delete_ops_s
          / p.get("redbud-mif", 0.0).delete_ops_s, 0.85, INF),
    *(Claim(f"fig9.aged.beats.{base}", "Fig 9", f"aged embedded creation still outperforms "
            f"{base} (ratio at 80 %)", "fig9",
            lambda p, base=base: p.get("redbud-mif", 0.8).create_ops_s
            / p.get(base, 0.8).create_ops_s, 1.0, INF, ">1.26")
      for base in ("redbud-orig", "lustre")),
    *(Claim(f"fig10.{prog}.faster", "Fig 10", f"{prog} runs faster on redbud-mif than on Lustre "
            "(time saved)", "fig10", lambda p, prog=prog: _saved(p, prog), 0.0, INF, "0.04–0.13")
      for prog in _FILE_BOUND),
    Claim("fig10.make.small", "Fig 10", "make is CPU-bound and gains little (time saved)",
          "fig10", lambda p: _saved(p, "make"), -INF, 0.15, "0.04"),
    Claim("fig10.make.least", "Fig 10", "make gains less than the best file-intensive program "
          "(time saved − best)", "fig10",
          lambda p: _saved(p, "make") - max(_saved(p, prog) for prog in _FILE_BOUND), -INF, 0.0),
    Claim("fpp.gap.reservation", "§II.A", "file-per-process beats one shared file severalfold "
          "under traditional placement (read-back ratio)", "file_per_process_gap",
          lambda p: p.gap("reservation"), 2.0, INF, "5"),
    Claim("fpp.gap.closes", "§II.A", "on-demand preallocation closes the gap (on-demand gap / "
          "reservation gap)", "file_per_process_gap",
          lambda p: p.gap("ondemand") / p.gap("reservation"), -INF, 1.0),
    Claim("prealloc.waste", "§III.C", "static prealloc waste: 256 KiB preallocation occupies "
          "many times the space of 16 KiB on kernel-tree files", "prealloc_waste",
          lambda p: p.waste_ratio, 8.0, INF, "100"),
)


# -- the runner ----------------------------------------------------------------

@dataclass
class ClaimsResult:
    """The scoreboard: one :class:`Verdict` per row, in table order."""

    scale: float
    seed: int
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def gated(self) -> bool:
        """The bands are properties of the pinned scale, 1.0."""
        return self.scale == 1.0


def _claims_cell(spec, tracer=None) -> CellResult:
    """One figure's run and the verdict of every row that reads it."""
    figure, scale, seed = spec
    cell = _Cell(tracer)
    payload = out = FIGURES[figure](scale, seed, cell.tracer)
    if isinstance(out, RunResult):
        # fig7 and table1 share phase labels, hence the prefix.
        cell.phases = {f"{figure}:{k}": v for k, v in out.phases.items()}
        cell.layouts = {f"{figure}:{k}": v for k, v in out.layouts.items()}
        cell.metrics.absorb(out.metrics)
        payload = out.payload
    return cell.result([c.evaluate(payload) for c in CLAIMS if c.figure == figure])


@register("claims")
def paper_claims(
    *,
    scale: float = 1.0,
    seed: int = 0,
    trace: Tracer | NullTracer | bool | None = None,
    jobs: int | None = None,
) -> RunResult:
    """Every row of :data:`CLAIMS` against a fresh run of the figure it
    cites: one sweep cell per figure."""
    run = _Run("claims", trace, scale=scale, seed=seed)
    payload = ClaimsResult(scale, seed)
    specs = [(figure, scale, seed) for figure in dict.fromkeys(c.figure for c in CLAIMS)]
    for cell in run.cells(specs, _claims_cell, jobs):
        payload.verdicts.extend(cell.payload)
    return run.result(payload)


def print_claims(run_result, args) -> int:
    """The scoreboard as one GitHub-markdown table; exit status 1 iff a row
    is out of band at the gated scale."""
    result = run_result.payload
    refuted = [v for v in result.verdicts if not v.ok]
    print("| id | source | claim | paper | measured | band | ok |")
    print("|:--|:--|:--|--:|--:|:--|:--|")
    for v in result.verdicts:
        print(f"| `{v.id}` | {v.source} | {v.statement} | {v.paper} | {v.measured:.3g} "
              f"| {v.band} | {'yes' if v.ok else '**NO**'} |")
    print(f"\n{len(result.verdicts) - len(refuted)} of {len(result.verdicts)} rows in band "
          f"at scale {result.scale:g}, seed {result.seed} "
          f"({'gated' if result.gated else 'not gated: the bands hold at scale 1'})")
    if not (result.gated and refuted):
        return 0
    for v in refuted:
        print(v.note, file=sys.stderr)
    return 1


COMMANDS = (
    RunnerCommand("claims", "the paper's claims, gated at scale 1.0", print_claims),
)
