"""Layout observability: quantitative fragmentation inspection (MiF §III/§IV).

The rest of :mod:`repro.obs` answers "where did simulated *time* go"; this
module answers "what does the on-disk *layout* look like" — the property the
paper's techniques actually optimize.  A :class:`LayoutInspector` walks the
block/extent/meta layers of a live or post-run data plane / metadata server
and produces a :class:`LayoutReport` with:

- per-file extent counts and a **contiguity score** (ideal extents over
  actual extents, 1.0 = every rotation slot is one solid run);
- the **interleave factor** (§III): physical region-runs per logical write
  region — how badly concurrent writers' regions are shuffled on disk.
  1.0 means every region sits in one physical piece; N means the average
  region is chopped into N physically discontiguous pieces interleaved
  with other regions' data;
- the per-directory **fragmentation degree** (§IV.A): layout mapping
  records per file, the quantity MiF's embedded directory keeps below its
  spill threshold;
- **free-space fragmentation**: a log2 run-length histogram over every
  allocation group's free runs;
- a modeled **sequential-read seek cost**: positioning seconds a whole-file
  logical-order sweep would pay under the disk service-time model, i.e.
  the head movement attributable purely to placement.

Everything here is duck-typed against the public surface of
:class:`~repro.fs.dataplane.DataPlane` / :class:`~repro.meta.mds.
MetadataServer` so the :mod:`repro.obs` package stays import-free of the
simulator (type names appear only under ``TYPE_CHECKING``; the stripe
geometry of :mod:`repro.fs.file` is imported where a fragment walk uses it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from repro.fs.dataplane import DataPlane
    from repro.fs.file import RedbudFile
    from repro.meta.mds import MetadataServer

#: Report schema version, bumped whenever dataclass fields change meaning.
LAYOUT_SCHEMA_VERSION = 1

_HEAT_GLYPHS = " .:-=+*#%@"


# ---------------------------------------------------------------------------
# Report dataclasses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FileLayout:
    """Layout quality of one file."""

    name: str
    size_bytes: int
    extents: int
    mapped_blocks: int
    #: ideal extents (one per populated slot) / actual extents; 1.0 = perfect.
    contiguity: float
    #: physical region-runs per distinct logical region (>= 1.0).
    interleave_factor: float
    #: number of logical write regions the interleave factor is measured over.
    regions: int
    #: modeled positioning seconds for a sequential whole-file read.
    seek_cost_s: float
    #: positioning events that actually moved the head in that sweep.
    seeks: int


@dataclass(frozen=True)
class FreeSpaceStats:
    """Free-space fragmentation over every allocation group."""

    free_blocks: int
    total_blocks: int
    runs: int
    largest_run: int
    #: log2 run-length histogram: bucket exponent e counts runs with
    #: 2**(e-1) <= length < 2**e (the binary exponent math.frexp returns).
    run_hist: dict[int, int] = field(default_factory=dict)

    @property
    def mean_run(self) -> float:
        return self.free_blocks / self.runs if self.runs else 0.0


@dataclass(frozen=True)
class DirectoryStats:
    """Per-directory fragmentation degree summary (§IV.A)."""

    directories: int
    files: int
    extent_records: int
    mean_degree: float
    max_degree: float
    #: directories above the profile's spill threshold (0 when unknown).
    over_threshold: int = 0


@dataclass(frozen=True)
class LayoutReport:
    """Structured layout-quality report for one inspected subsystem."""

    source: str                    # "dataplane" | "mds"
    label: str = ""
    files: tuple[FileLayout, ...] = ()
    free_space: FreeSpaceStats | None = None
    directories: DirectoryStats | None = None
    heatmap: str = ""

    # -- aggregates ---------------------------------------------------------
    @property
    def total_extents(self) -> int:
        return sum(f.extents for f in self.files)

    @property
    def fragmentation_degree(self) -> float:
        """Extent records per file (§IV's degree, at data-plane scope when
        no directory stats exist)."""
        if self.directories is not None and self.directories.files:
            return self.directories.extent_records / self.directories.files
        if not self.files:
            return 0.0
        return self.total_extents / len(self.files)

    @property
    def interleave_factor(self) -> float:
        """Mapped-block-weighted mean interleave factor over files."""
        weight = sum(f.mapped_blocks for f in self.files)
        if weight == 0:
            return 1.0
        return (
            sum(f.interleave_factor * f.mapped_blocks for f in self.files) / weight
        )

    @property
    def seek_cost_s(self) -> float:
        return sum(f.seek_cost_s for f in self.files)

    @property
    def contiguity(self) -> float:
        weight = sum(f.mapped_blocks for f in self.files)
        if weight == 0:
            return 1.0
        return sum(f.contiguity * f.mapped_blocks for f in self.files) / weight

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able dict with deterministic key order (sorted on dump)."""
        doc: dict[str, Any] = {
            "schema_version": LAYOUT_SCHEMA_VERSION,
            "source": self.source,
            "label": self.label,
            "files": len(self.files),
            "extents": self.total_extents,
            "fragmentation_degree": self.fragmentation_degree,
            "interleave_factor": self.interleave_factor,
            "contiguity": self.contiguity,
            "seek_cost_s": self.seek_cost_s,
        }
        if self.free_space is not None:
            fs = self.free_space
            doc["free_space"] = {
                "free_blocks": fs.free_blocks,
                "total_blocks": fs.total_blocks,
                "runs": fs.runs,
                "largest_run": fs.largest_run,
                "mean_run": fs.mean_run,
                "run_hist": {str(e): c for e, c in sorted(fs.run_hist.items())},
            }
        if self.directories is not None:
            d = self.directories
            doc["directories"] = {
                "directories": d.directories,
                "files": d.files,
                "extent_records": d.extent_records,
                "mean_degree": d.mean_degree,
                "max_degree": d.max_degree,
                "over_threshold": d.over_threshold,
            }
        return doc

    def format(self, max_files: int = 8) -> str:
        """Console rendering of the report."""
        lines = [f"LayoutReport [{self.source}] {self.label}".rstrip()]
        lines.append(
            f"  files={len(self.files)} extents={self.total_extents} "
            f"fragmentation-degree={self.fragmentation_degree:.2f} "
            f"interleave-factor={self.interleave_factor:.2f} "
            f"contiguity={self.contiguity:.3f} "
            f"seek-cost={self.seek_cost_s * 1e3:.2f} ms"
        )
        worst = sorted(self.files, key=lambda f: -f.interleave_factor)[:max_files]
        for f in worst:
            lines.append(
                f"    {f.name}: {f.extents} extents over {f.mapped_blocks} blocks, "
                f"interleave {f.interleave_factor:.2f} (regions={f.regions}), "
                f"contiguity {f.contiguity:.3f}, "
                f"seek {f.seek_cost_s * 1e3:.2f} ms / {f.seeks} seeks"
            )
        if len(self.files) > max_files:
            lines.append(f"    ... {len(self.files) - max_files} more files")
        if self.free_space is not None:
            fs = self.free_space
            lines.append(
                f"  free space: {fs.free_blocks}/{fs.total_blocks} blocks in "
                f"{fs.runs} runs (largest {fs.largest_run}, "
                f"mean {fs.mean_run:.1f})"
            )
            if fs.run_hist:
                peak = max(fs.run_hist.values())
                for e in sorted(fs.run_hist):
                    lo = 1 << max(0, e - 1)
                    bar = "#" * max(1, round(16 * fs.run_hist[e] / peak))
                    lines.append(
                        f"    >={lo:>8d} blocks | {bar:<16s} {fs.run_hist[e]}"
                    )
        if self.directories is not None:
            d = self.directories
            lines.append(
                f"  directories: {d.directories} dirs, {d.files} files, "
                f"degree mean {d.mean_degree:.2f} max {d.max_degree:.2f} "
                f"({d.over_threshold} over spill threshold)"
            )
        if self.heatmap:
            lines.append("  block map (rows = allocation groups):")
            for row in self.heatmap.splitlines():
                lines.append(f"    {row}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Inspector
# ---------------------------------------------------------------------------

class LayoutInspector:
    """Walks live simulator objects and derives layout-quality metrics.

    ``region_bytes`` sets the logical write-region size the interleave
    factor is measured over; pass the per-stream region size of the
    workload that produced the layout (e.g. ``file_bytes / nstreams``).
    When omitted, one stripe round (``width * stripe_blocks`` file-logical
    blocks) is used, which measures the same shuffle at stripe-round
    granularity.
    """

    def __init__(self, region_bytes: int | None = None) -> None:
        if region_bytes is not None and region_bytes <= 0:
            raise ValueError(f"region_bytes must be positive: {region_bytes}")
        self.region_bytes = region_bytes

    # -- data plane ---------------------------------------------------------
    def inspect_dataplane(self, plane: "DataPlane", label: str = "") -> LayoutReport:
        """Report over every live file plus the array's free space."""
        files = tuple(
            self.file_layout(plane, f)
            for f in sorted(plane.files(), key=lambda f: f.file_id)
        )
        return LayoutReport(
            source="dataplane",
            label=label,
            files=files,
            free_space=self.free_space_stats(plane.fsm),
            heatmap=block_heatmap(plane.fsm),
        )

    def file_layout(self, plane: "DataPlane", f: "RedbudFile") -> FileLayout:
        """Layout metrics for one file."""
        region_blocks = self._region_blocks(plane.block_size, f)
        disk, physical, length, logical, region = self._fragments(plane, f, region_blocks)
        extents = f.extent_count
        populated = sum(1 for m in f.maps if m.extent_count > 0)
        contiguity = populated / extents if extents else 1.0
        interleave, regions = _interleave(disk, physical, length, region)
        seek_s, seeks = _seek_cost(plane, disk, physical, length, logical)
        return FileLayout(
            name=f.name,
            size_bytes=f.size_bytes,
            extents=extents,
            mapped_blocks=f.mapped_blocks,
            contiguity=contiguity,
            interleave_factor=interleave,
            regions=regions,
            seek_cost_s=seek_s,
            seeks=seeks,
        )

    def free_space_stats(self, fsm: Any) -> FreeSpaceStats:
        """Run-length histogram over every allocation group's free runs."""
        runs = 0
        largest = 0
        free_blocks = 0
        hist: dict[int, int] = {}
        for group in fsm.groups:
            for _, length in group.free.runs():
                runs += 1
                free_blocks += length
                if length > largest:
                    largest = length
                e = math.frexp(length)[1]
                hist[e] = hist.get(e, 0) + 1
        return FreeSpaceStats(
            free_blocks=free_blocks,
            total_blocks=fsm.total_blocks,
            runs=runs,
            largest_run=largest,
            run_hist=hist,
        )

    # -- metadata plane -----------------------------------------------------
    def inspect_mds(self, mds: "MetadataServer", label: str = "") -> LayoutReport:
        """Per-directory fragmentation-degree report for one MDS."""
        degrees: list[tuple[int, int]] = []  # (file_count, record_sum)
        layout = mds.layout
        for d in layout.dirs():
            file_count = getattr(d, "file_count", None)
            record_sum = getattr(d, "record_sum", None)
            if file_count is None or record_sum is None:
                # Normal layout: derive from the live inodes' columns.
                table = layout._inodes
                rows = table.rows_of(d.entries.values())
                is_dir, records = table.gather(rows, "is_dir", "extent_records")
                files = (rows >= 0) & ~is_dir
                file_count = int(files.sum())
                record_sum = int(records[files].sum())
            degrees.append((file_count, record_sum))
        files = sum(fc for fc, _ in degrees)
        records = sum(rs for _, rs in degrees)
        per_dir = [rs / fc for fc, rs in degrees if fc > 0]
        threshold = mds.config.meta.frag_degree_threshold
        stats = DirectoryStats(
            directories=len(degrees),
            files=files,
            extent_records=records,
            mean_degree=sum(per_dir) / len(per_dir) if per_dir else 0.0,
            max_degree=max(per_dir, default=0.0),
            over_threshold=sum(1 for d in per_dir if d > threshold),
        )
        return LayoutReport(source="mds", label=label, directories=stats)

    # -- internals ----------------------------------------------------------
    def _region_blocks(self, block_size: int, f: "RedbudFile") -> int:
        if self.region_bytes is not None:
            return max(1, -(-self.region_bytes // block_size))
        return f.stripe_blocks * f.width

    def _fragments(
        self, plane: "DataPlane", f: "RedbudFile", region_blocks: int
    ) -> tuple[np.ndarray, ...]:
        """Split extents into file-logically contiguous physical runs:
        ``(disk, physical, length, logical, region)`` columns, one row per
        run, slot by slot in dlocal order.

        A slot extent is contiguous in dlocal space but file-logical
        addresses jump at every stripe-unit boundary, so extents are cut at
        stripe units and again at region boundaries; each resulting piece
        maps one solid (logical, physical) run.
        """
        from repro.fs.file import logical_of

        sb, width = f.stripe_blocks, f.width
        slot = np.repeat(np.arange(width), [len(smap) for smap in f.maps])
        dlocal, physical, length, _ = np.concatenate([smap.columns() for smap in f.maps], axis=1)
        of, start, length = _cut(dlocal, length, sb)
        physical = physical[of] + (start - dlocal[of])
        logical = logical_of(sb, width, slot[of], start)
        of, start, length = _cut(logical, length, region_blocks)
        physical = physical[of] + (start - logical[of])
        return (
            physical // plane.array.blocks_per_disk,
            physical,
            length,
            start,
            start // region_blocks,
        )


def _cut(
    start: np.ndarray, length: np.ndarray, step: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut the ranges ``[start, start+length)`` at the multiples of
    ``step``: per piece, in order, the index of its range, its start and
    its length."""
    first = start // step
    pieces = (start + length - 1) // step - first + 1
    of = np.repeat(np.arange(start.shape[0]), pieces)
    cell = np.arange(of.shape[0]) + (first - (np.cumsum(pieces) - pieces))[of]
    lo = np.maximum(start[of], cell * step)
    return of, lo, np.minimum((start + length)[of], (cell + 1) * step) - lo


def _interleave(
    disk: np.ndarray, physical: np.ndarray, length: np.ndarray, region: np.ndarray
) -> tuple[float, int]:
    """Physical region-runs per distinct region, per disk, averaged."""
    if disk.shape[0] == 0:
        return (1.0, 0)
    order = np.lexsort((physical, disk))
    disk, physical, region = disk[order], physical[order], region[order]
    # In physical order on each disk, a new run starts when the region
    # changes or the placement is physically discontiguous even within one
    # region.
    runs = 1 + np.count_nonzero(
        (disk[1:] != disk[:-1])
        | (region[1:] != region[:-1])
        | (physical[1:] != (physical + length[order])[:-1])
    )
    regions = np.unique(disk * (int(region.max()) + 1) + region).shape[0]
    return (runs / regions, regions)


def _seek_cost(
    plane: "DataPlane",
    disk: np.ndarray,
    physical: np.ndarray,
    length: np.ndarray,
    logical: np.ndarray,
) -> tuple[float, int]:
    """Positioning seconds of a logical-order sweep, summed over disks (in
    the order the fragments first reach them: the sum is a float)."""
    blocks_per_disk = plane.array.blocks_per_disk
    total = 0.0
    seeks = 0
    for d in disk[np.sort(np.unique(disk, return_index=True)[1])].tolist():
        on = np.flatnonzero(disk == d)
        on = on[np.argsort(logical[on], kind="stable")]
        cost, n = plane.array.disks[d].model.sweep_cost(
            zip((physical[on] - d * blocks_per_disk).tolist(), length[on].tolist())
        )
        total += cost
        seeks += n
    return (total, seeks)


# ---------------------------------------------------------------------------
# ASCII block-map heatmap
# ---------------------------------------------------------------------------

def block_heatmap(fsm: Any, width: int = 64) -> str:
    """Occupancy heatmap of the array: one row per allocation group with
    any used blocks, one cell per block range, shaded ``' .:-=+*#%@'`` by
    used fraction.  Each row zooms into the group's *occupied span* (from
    its first to its last used block) so low-utilization runs still show
    placement structure; the spanned block range is printed alongside.

    Interleaved salt-and-pepper allocation shows up as mid-shade noise;
    contiguous placement as solid dark runs against light free space.
    """
    if width <= 0:
        raise ValueError(f"width must be positive: {width}")
    rows = []
    empty = 0
    for group in fsm.groups:
        used_runs = group.used_runs()
        if not used_runs:
            empty += 1
            continue
        span_lo = used_runs[0][0]
        span_hi = used_runs[-1][0] + used_runs[-1][1]
        cell_blocks = max(1.0, (span_hi - span_lo) / width)
        ncells = min(width, max(1, math.ceil((span_hi - span_lo) / cell_blocks)))
        used = [0.0] * ncells
        for start, length in used_runs:
            lo = start - span_lo
            hi = lo + length
            first = int(lo / cell_blocks)
            last = min(ncells - 1, int((hi - 1) / cell_blocks))
            for cell in range(first, last + 1):
                cell_lo = cell * cell_blocks
                cell_hi = cell_lo + cell_blocks
                overlap = min(hi, cell_hi) - max(lo, cell_lo)
                if overlap > 0:
                    used[cell] += overlap
        cells = []
        for cell in range(ncells):
            frac = min(1.0, used[cell] / cell_blocks)
            idx = int(frac * (len(_HEAT_GLYPHS) - 1) + 0.5)
            if frac > 0.0:
                idx = max(1, idx)  # any occupancy is visible
            cells.append(_HEAT_GLYPHS[idx])
        rows.append(
            f"pag{group.index:<3d} d{group.disk_index} |{''.join(cells):<{width}s}| "
            f"{group.utilization:6.2%} blocks [{span_lo}, {span_hi})"
        )
    if empty:
        rows.append(f"({empty} empty groups not shown)")
    return "\n".join(rows)
