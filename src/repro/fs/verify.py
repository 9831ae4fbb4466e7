"""Consistency checking (fsck) for the simulated file system.

Validates the cross-layer invariants the allocator work depends on:

- **Data plane**: every file extent maps to blocks the free-space manager
  considers used; no two extents (within or across files) share a physical
  block; per-slot extent maps are structurally valid; accounting adds up
  (used == mapped + policy-held reservations).
- **Metadata plane**: every inode's home block lies in a valid region for
  its layout; directory content runs don't overlap; the global directory
  table resolves every embedded directory.

Everything runs in the calling process:

- **Columns, not objects** — a data-plane scan gathers every extent map
  into ``(logical, physical, length, flags)`` columns and validates them in
  one numpy pass; one kernel call over every busy PAG (allocation group)
  lexsorts extent ``(start, end)`` intervals and sweeps them with
  searchsorted / cumulative-max passes, O(extents log extents) rather than
  a per-block ownership ``dict``, and still reports per PAG.  A metadata
  directory is a set of numpy columns, one row per entry, and one kernel
  call walks every directory.  Every test is a mask, and Python visits
  only the rows a mask flagged.
- **Serial order** — every finding carries a sort key derived from its
  position in a single-threaded block-by-block, entry-by-entry walk, so
  the :class:`FsckReport` is byte-identical (findings, order, counters) to
  that walk (the tests keep it as their oracle).  Double-owned blocks are
  resolved by replaying the serial claim order over only the extents the
  kernel flagged as overlapping.
- **Repair** — each pass of :func:`repair_dataplane` / :func:`repair_mds`
  applies what the check before it found (the only detection step), then
  re-checks, until the report converges.
- **Online scrub** — :class:`Scrubber` checks and repairs one PAG at a
  time so a live service workload can interleave scrubbing with traffic.

Tests and long-running experiments call :func:`check_dataplane` /
:func:`check_mds` after churn to catch leaks and double allocations early.
The ``fig_fsck`` runner (:mod:`repro.core.runners.fsck`) models a
pFSCK-style worker pool from per-shard volumes; no real worker is started.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter, ne

import numpy as np

from repro.block.extent import Extent, extent_columns, invalid_maps
from repro.errors import MetadataError
from repro.fs.dataplane import DataPlane
from repro.meta.embedded_layout import EmbeddedDir, EmbeddedLayout
from repro.meta.inumber import decode_inos
from repro.meta.mds import MetadataServer
from repro.meta.mfs import ItableGeometry
from repro.meta.normal_layout import NormalDir, NormalLayout

@dataclass(frozen=True)
class Finding:
    """One consistency violation: a stable machine-readable code plus a
    human-readable message.  Codes are the contract tests pin against."""

    code: str
    message: str


@dataclass
class FsckReport:
    """Findings of one consistency pass; the data-plane and metadata
    reports combine with :meth:`merge` (finding lists concatenate in
    order, counters add)."""

    findings: list[Finding] = field(default_factory=list)
    checked_extents: int = 0
    checked_inodes: int = 0

    @property
    def errors(self) -> list[str]:
        """Finding messages (compatibility view of :attr:`findings`)."""
        return [f.message for f in self.findings]

    @property
    def codes(self) -> set[str]:
        """Distinct finding codes present in this report."""
        return {f.code for f in self.findings}

    def has(self, code: str) -> bool:
        return any(f.code == code for f in self.findings)

    @property
    def clean(self) -> bool:
        return not self.findings

    def error(self, message: str, code: str = "generic") -> None:
        self.findings.append(Finding(code=code, message=message))

    def merge(self, other: "FsckReport") -> "FsckReport":
        """Combine two reports: stable finding order, exact counter sums."""
        return FsckReport(
            findings=self.findings + other.findings,
            checked_extents=self.checked_extents + other.checked_extents,
            checked_inodes=self.checked_inodes + other.checked_inodes,
        )

    def raise_if_dirty(self) -> None:
        if self.findings:
            raise AssertionError(
                f"fsck found {len(self.findings)} problems:\n"
                + "\n".join(f"[{f.code}] {f.message}" for f in self.findings)
            )


@dataclass(frozen=True)
class RepairAction:
    """One fix applied by a repair pass, tagged with the finding code it
    addressed."""

    code: str
    message: str


@dataclass
class RepairResult:
    """Outcome of an iterative repair: the reports bracketing it, every
    action taken, and whether re-checking converged to clean."""

    before: FsckReport
    after: FsckReport
    actions: list[RepairAction] = field(default_factory=list)
    passes: int = 0

    @property
    def converged(self) -> bool:
        return self.after.clean

    def merge(self, other: "RepairResult") -> "RepairResult":
        """Combine two repair outcomes (e.g. data plane + metadata)."""
        return RepairResult(
            before=self.before.merge(other.before),
            after=self.after.merge(other.after),
            actions=self.actions + other.actions,
            passes=max(self.passes, other.passes),
        )


# ---------------------------------------------------------------------------
# Interval bookkeeping, shared by both planes
# ---------------------------------------------------------------------------


class _IntervalOwners:
    """Sorted, disjoint ``[start, end) -> owner`` map with splice updates.

    Replays the serial checker's per-block ownership dict at interval
    granularity: :meth:`assign` is last-writer-wins (later intervals
    overwrite the overlapped parts of earlier ones), mirroring
    ``owner[b] = x`` in a loop.
    """

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._owners: list[object] = []

    def _window(self, a: int, b: int) -> tuple[int, int]:
        """Index range of stored intervals intersecting ``[a, b)``."""
        i = bisect_right(self._ends, a)
        j = bisect_left(self._starts, b)
        return i, j

    def overlapping(self, a: int, b: int) -> list[tuple[int, int, object]]:
        """Clipped ``(start, end, owner)`` segments intersecting ``[a, b)``."""
        i, j = self._window(a, b)
        return [
            (max(self._starts[k], a), min(self._ends[k], b), self._owners[k])
            for k in range(i, j)
        ]

    def first_owned_in(self, a: int, b: int) -> tuple[int, object] | None:
        """Leftmost owned block in ``[a, b)`` and its owner, or ``None``."""
        i = bisect_right(self._ends, a)
        if i < len(self._starts) and self._starts[i] < b:
            return max(self._starts[i], a), self._owners[i]
        return None

    def assign(self, a: int, b: int, owner: object) -> None:
        i, j = self._window(a, b)
        pieces: list[tuple[int, int, object]] = []
        if i < j:
            if self._starts[i] < a:
                pieces.append((self._starts[i], a, self._owners[i]))
            if self._ends[j - 1] > b:
                pieces.append((b, self._ends[j - 1], self._owners[j - 1]))
        pieces.append((a, b, owner))
        pieces.sort(key=lambda p: p[0])
        self._starts[i:j] = [p[0] for p in pieces]
        self._ends[i:j] = [p[1] for p in pieces]
        self._owners[i:j] = [p[2] for p in pieces]


# ---------------------------------------------------------------------------
# Data plane: scan -> one per-PAG kernel call -> ordered merge
# ---------------------------------------------------------------------------

# Per-extent finding ranks reproduce the serial emission order within one
# extent: crosses-PAG, wrong-PAG, double-owned, maps-free.  Rank 0 is the
# structural pre-findings (invalid map / outside array) that consume a
# position of their own.
_RANK_PRE = 0
_RANK_CROSSES = 1
_RANK_WRONG = 2
_RANK_DOUBLE = 3
_RANK_FREE = 4

_MAPS = attrgetter("maps")
_LAYOUT = attrgetter("layout")


@dataclass
class _PlaneScan:
    """Driver-side index of one data-plane walk, one row per extent, flat in
    map order: row ``r`` is extent ``cols[:, r]`` (``phys`` and ``length``
    are two of its rows) of map ``owner[r]`` (file ``f`` holds maps
    ``first[f]:first[f + 1]``) at serial position ``pos[r]``, its slot's
    layout naming PAG ``pag[r]``.  The PAG kernel checks ``rows``
    (valid maps, inside the array); ``pre`` holds the keyed findings of the
    scan itself (structurally invalid maps, extents outside the array) and
    ``fixes`` the ``(map, row or None for a whole map, action)`` for each."""

    files: list
    first: list[int]
    cols: np.ndarray
    owner: np.ndarray
    phys: np.ndarray
    length: np.ndarray
    pos: np.ndarray
    pag: np.ndarray
    rows: np.ndarray
    pre: list[tuple]
    fixes: list[tuple]
    checked_extents: int
    mapped_blocks: int

    def slot_of(self, m: int) -> tuple:
        """``(file, slot)`` of map ``m``."""
        f = bisect_right(self.first, m) - 1
        return self.files[f], m - self.first[f]

    def extent(self, row: int) -> Extent:
        """Row ``row`` as the :class:`Extent` a message names."""
        return Extent(*self.cols[:, row].tolist())

    def label(self, row: int) -> tuple:
        """``(file, slot, extent)`` of row ``row``."""
        return (*self.slot_of(int(self.owner[row])), self.extent(row))


def _scan_dataplane(plane: DataPlane) -> _PlaneScan:
    """Gather every extent into columns and give each its serial position;
    structural problems become keyed ``pre`` findings and their ``fixes``."""
    files = plane.files()
    map_lists = list(map(_MAPS, files))
    first = list(accumulate(map(len, map_lists), initial=0))
    owner, cols = extent_columns(list(chain.from_iterable(map_lists)))
    broken = invalid_maps(owner, cols)
    phys, length = cols[1], cols[2]
    pag = np.fromiter(chain.from_iterable(map(_LAYOUT, files)), np.int64, first[-1])
    # An invalid map takes one serial position, a valid one one per extent.
    counts = np.bincount(owner, minlength=first[-1])
    invalid = np.zeros(first[-1], dtype=bool)
    invalid[[m for m, _ in broken]] = True
    weight = np.where(invalid, 1, counts)
    map_pos = np.cumsum(weight) - weight
    pos = map_pos[owner] + np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    valid = ~invalid[owner]
    inside = (phys >= 0) & (phys < plane.fsm.total_blocks)
    rows = np.flatnonzero(valid & inside)
    scan = _PlaneScan(
        files, first, cols, owner, phys, length, pos, pag[owner], rows, [], [],
        int(counts[~invalid].sum()), int(length[valid].sum()),
    )
    faults = [(int(map_pos[m]), m, None, exc) for m, exc in broken] + [
        (int(pos[r]), int(owner[r]), r, None)
        for r in np.flatnonzero(valid & ~inside).tolist()
    ]
    for p, m, r, exc in sorted(faults):
        f, slot = scan.slot_of(m)
        where = f"{f.name} slot {slot}: "
        if r is not None:
            ext = scan.extent(r)
            code, found = "extent-outside-array", f"extent {ext} outside the array"
            fixed = f"unmapped {ext} (outside array)"
        else:
            code, found = "extent-map-invalid", f"invalid extent map: {exc}"
            fixed = f"dropped invalid extent map ({exc})"
        scan.pre.append((p, _RANK_PRE, code, where + found))
        scan.fixes.append((m, r, RepairAction(code, where + fixed)))
    return scan


#: Below every block number: the end "covering" points that lie before
#: every interval.
_NOWHERE = np.iinfo(np.int64).min


def _covered(starts: np.ndarray, lengths: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Which ``points`` some ``[start, start + length)`` interval holds."""
    order = np.argsort(starts, kind="stable")
    # cover[k]: the furthest end of the k leftmost intervals.
    cover = np.concatenate(([_NOWHERE], np.maximum.accumulate((starts + lengths)[order])))
    return points < cover[np.searchsorted(starts[order], points, side="right")]


def _flip(plane: DataPlane, blocks, to_free: bool) -> int:
    """Free (or re-claim) every one of ``blocks`` that is not so already,
    skipping out-of-array ones; returns how many changed."""
    fsm = plane.fsm
    flipped = 0
    for b in blocks:
        if 0 <= b < fsm.total_blocks and fsm.group_of(b).free.is_free(b, 1) != to_free:
            (fsm.free if to_free else fsm.allocate_exact)(b, 1)
            flipped += 1
    return flipped


def _pag_rows(scan: _PlaneScan, plane: DataPlane, only: int | None = None) -> tuple:
    """``(busy, g, home, row)``: the checked rows each non-empty PAG ``g``
    (ascending, listed in ``busy``; or PAG ``only`` alone) sees.  Its home
    rows, first, hold extents whose first block lies in it."""
    groups = plane.fsm.groups
    rows = scan.rows
    gsize = groups[0].size
    phys = scan.phys[rows]
    first = phys // gsize
    # Extents crossing a PAG boundary visit every further group they touch,
    # so the PAG owning the shared blocks sees both claimants.  Crossing
    # extents are corruption — there are none on healthy images.
    last = np.minimum((phys + scan.length[rows] - 1) // gsize, len(groups) - 1)
    visitor = np.repeat(np.arange(len(rows)), last - first)
    step = np.arange(len(visitor)) - np.searchsorted(visitor, visitor)
    g = np.concatenate((first, first[visitor] + 1 + step))
    idx = np.concatenate((np.arange(len(rows)), visitor))
    home = np.arange(len(idx)) < len(rows)
    order = np.lexsort((idx, ~home, g))
    g, idx, home = g[order], rows[idx[order]], home[order]
    bounds = np.searchsorted(g, np.arange(len(groups) + 1))
    busy = np.flatnonzero(np.diff(bounds))
    if only is not None:
        busy = busy[busy == only]
    sel = slice(bounds[busy[0]], bounds[busy[-1] + 1]) if len(busy) else slice(0, 0)
    return busy, g[sel], home[sel], idx[sel]


def _plane_verdicts(scan: _PlaneScan, plane: DataPlane, only: int | None = None) -> list:
    """Vectorized invariant sweep over every busy PAG (or PAG ``only``
    alone): per PAG ``g``, ascending, the flagged extent rows
    ``(g, crosses, wrong, maps_free, overlap)``, each ascending.

    Every test is one numpy pass over all of them.  *crosses /
    wrong-PAG* are masks on the home rows.  *maps-free*: an extent overlaps
    a free run of its PAG iff a run starts before the extent's end (clipped
    to the PAG) and ends after it starts — two ``searchsorted`` calls.
    *overlap*: lexsort the PAG-clipped intervals by ``(start, end)`` and
    sweep a cumulative max of ends; an interval starting before the running
    max overlaps its cluster.  The last PAG's upper bound stays open, so
    extents running past the array end still collide; clipped ranges of
    different PAGs are disjoint, so no cluster spans two.  Every member of a
    multi-extent cluster is reported for the merge to replay in claim order.
    """
    groups = plane.fsm.groups
    gsize = groups[0].size
    busy, g, home, row = _pag_rows(scan, plane, only)
    phys = scan.phys[row]
    end = phys + scan.length[row]
    gend = (g + 1) * gsize
    free = [run for i in busy.tolist() for run in groups[i].free.runs()]
    free_starts, free_len = np.array(free, dtype=np.int64).reshape(-1, 2).T
    lo = np.searchsorted(free_starts + free_len, phys, side="right")
    hi = np.searchsorted(free_starts, np.minimum(end, gend), side="left")
    s = np.maximum(phys, g * gsize)
    e = np.minimum(end, np.where(g == len(groups) - 1, 2 ** 62, gend))
    order = np.lexsort((e, s))
    fresh = np.ones(len(s), dtype=bool)
    fresh[1:] = s[order][1:] >= np.maximum.accumulate(e[order])[:-1]
    cid = np.cumsum(fresh) - 1
    overlap = np.zeros(len(s), dtype=bool)
    overlap[order] = np.bincount(cid)[cid] >= 2

    def per_pag(mask: np.ndarray) -> list[np.ndarray]:
        rk = np.lexsort((row[mask], g[mask]))
        return np.split(row[mask][rk], np.searchsorted(g[mask][rk], busy[1:]))

    masks = (home & (end > gend), home & (scan.pag[row] != g), home & (lo < hi), overlap)
    return list(zip(busy.tolist(), *map(per_pag, masks)))


def _resolve_double_owned(scan: _PlaneScan, participants: list[int]) -> list[tuple]:
    """Replay the serial ownership walk over overlap candidates only.

    The serial checker registered blocks one at a time and *stopped* an
    extent's registration at its first already-owned block.  Interval
    arithmetic reproduces that: each extent claims ``[start, first owned
    block)``; extents that hit an owned block emit one double-owned finding
    naming the prior owner.  Extents outside every overlap cluster are
    disjoint from all others, so skipping them cannot change any verdict.
    """
    findings: list[tuple] = []
    owners = _IntervalOwners()
    for r in participants:
        f, slot, ext = scan.label(r)
        a, b = ext.physical, ext.physical_end
        hit = owners.first_owned_in(a, b)
        if hit is not None:
            blk, prior = hit
            findings.append((
                int(scan.pos[r]), _RANK_DOUBLE, "double-owned-block",
                f"block {blk} owned by both {prior} and {f.name}#{slot}",
            ))
            b = blk
        if b > a:
            owners.assign(a, b, f"{f.name}#{slot}")
    return findings


#: Per-PAG verdicts as findings: rank, code, message tail.
_PLANE_VERDICTS = (
    (_RANK_CROSSES, "extent-crosses-pag", "crosses its PAG"),
    (_RANK_WRONG, "extent-wrong-pag", "in PAG {g}, layout says {layout}"),
    (_RANK_FREE, "extent-maps-free", "maps free blocks"),
)


def _merge_dataplane(
    scan: _PlaneScan, verdicts: list, plane: DataPlane, strict_accounting: bool
) -> FsckReport:
    """Deterministic merge: keyed findings sort back into serial order."""
    keyed: list[tuple] = list(scan.pre)
    participants: set[int] = set()
    for g, crosses, wrong, maps_free, overlap in verdicts:
        for flagged, (rank, code, tail) in zip((crosses, wrong, maps_free), _PLANE_VERDICTS):
            for r in flagged.tolist():
                f, slot, ext = scan.label(r)
                what = tail.format(g=g, layout=f.layout[slot])
                keyed.append((
                    int(scan.pos[r]), rank, code,
                    f"{f.name} slot {slot}: extent {ext} {what}",
                ))
        participants.update(overlap.tolist())
    keyed.extend(_resolve_double_owned(scan, sorted(participants)))
    keyed.sort(key=lambda t: (t[0], t[1]))
    report = FsckReport(checked_extents=scan.checked_extents)
    for _pos, _rank, code, message in keyed:
        report.error(message, code=code)
    if strict_accounting and plane.fsm.used_blocks < scan.mapped_blocks:
        report.error(
            f"accounting: mapped {scan.mapped_blocks} blocks exceed used "
            f"{plane.fsm.used_blocks}",
            code="accounting-overmapped",
        )
    return report


def _detect_dataplane(
    plane: DataPlane, strict_accounting: bool = True, only: int | None = None
) -> tuple[_PlaneScan, list, FsckReport]:
    """The only data-plane detection step: the scan, the per-PAG verdicts
    (of PAG ``only`` alone, if given) and their report."""
    scan = _scan_dataplane(plane)
    verdicts = _plane_verdicts(scan, plane, only)
    return scan, verdicts, _merge_dataplane(scan, verdicts, plane, strict_accounting)


# ``jobs`` on the four public entry points is accepted and ignored: the
# host-time ledger's fsck workload still passes ``jobs=1``.


def check_dataplane(
    plane: DataPlane, strict_accounting: bool = True, jobs: int | None = None
) -> FsckReport:
    """Verify data-plane invariants; returns the report (never raises).

    The report is byte-identical to a serial block-by-block walk.
    """
    return _detect_dataplane(plane, strict_accounting)[2]


# ---------------------------------------------------------------------------
# Metadata plane: per-directory columns -> one kernel call -> ordered merge
# ---------------------------------------------------------------------------

# Metadata finding keys are 5-tuples (phase, dir seq, section, item, rank);
# plain tuple comparison restores the serial emission order: phase 0 walks
# each directory (content overlaps, table membership, entries), phase 1 is
# the trailing table-resolution sweep over all directories.


@dataclass(frozen=True)
class _EmbeddedDirSpec:
    """Snapshot of one embedded directory, one row per entry in
    directory order: numpy columns for what every row is tested on, tuples
    for what only a flagged row's finding message reads."""

    seq: int
    dir_id: int
    runs: tuple
    in_gdt: bool
    exists: np.ndarray
    is_dir: np.ndarray
    home_block: np.ndarray
    names: tuple
    inos: tuple
    inode_names: tuple


@dataclass(frozen=True)
class _NormalDirSpec:
    """Snapshot of one normal-layout directory (rows as in
    :class:`_EmbeddedDirSpec`); ``geometry`` places the whole ``inos``
    column in the inode tables."""

    seq: int
    ino: int
    nblocks: int
    fill: tuple
    dentry_blocks: tuple
    geometry: ItableGeometry
    exists: np.ndarray
    inos: np.ndarray
    home_block: np.ndarray
    home_slot: np.ndarray
    names: tuple
    entry_blocks: tuple


def _embedded_dir_spec(
    layout: EmbeddedLayout, seq: int, d: EmbeddedDir
) -> _EmbeddedDirSpec:
    inos = tuple(d.entries.values())
    table = layout._inodes
    rows = table.rows_of(inos)
    is_dir, home_block, inode_names = table.gather(
        rows, "is_dir", "home_block", "name"
    )
    return _EmbeddedDirSpec(
        seq=seq,
        dir_id=d.dir_id,
        runs=tuple(d.content_runs),
        in_gdt=d.dir_id in layout.gdt,
        exists=rows >= 0,
        is_dir=is_dir,
        home_block=home_block,
        names=tuple(d.entries),
        inos=inos,
        inode_names=inode_names,
    )


def _renamed(spec: _EmbeddedDirSpec) -> np.ndarray:
    """Rows whose live inode carries another name than its entry."""
    return spec.exists & np.fromiter(
        map(ne, spec.inode_names, spec.names), dtype=bool, count=len(spec.names)
    )


def _embedded_check(specs: list[_EmbeddedDirSpec]) -> FsckReport:
    """Check every embedded directory, in directory order.

    The whole home-block column is tested against the directory's *own*
    content runs with one sorted-starts / cumulative-max-ends probe, and
    Python touches only the rows some mask flagged.  A miss is an orphan
    only when no content run registered so far covers it either: an
    interval-owner map of every directory's runs, in order, settles that
    (the serial walk's prefix semantics) and names the prior owner of each
    block two directories' runs share (last-writer-wins, as the serial
    dict).
    """
    findings: list[tuple] = []
    checked = 0
    owners = _IntervalOwners()
    for spec in specs:
        for ridx, (start, count) in enumerate(spec.runs):
            for a, b, prior in owners.overlapping(start, start + count):
                for blk in range(a, b):
                    findings.append((
                        (0, spec.seq, 0, ridx, blk), "content-block-overlap",
                        f"content block {blk} owned by dirs {prior} "
                        f"and {spec.dir_id}",
                    ))
            owners.assign(start, start + count, spec.dir_id)
        if not spec.in_gdt:
            findings.append((
                (0, spec.seq, 1, 0, 0), "dir-missing-from-gdt",
                f"directory {spec.dir_id} missing from the directory table",
            ))
            # The membership test and the trailing resolution sweep consult
            # the same table, so both findings fire on the same condition.
            findings.append((
                (1, spec.seq, 0, 0, 0), "gdt-unresolvable",
                f"directory table cannot resolve dir {spec.dir_id}",
            ))
        checked += len(spec.names)
        runs = np.array(spec.runs, dtype=np.int64).reshape(-1, 2)
        home = spec.home_block
        own = _covered(runs[:, 0], runs[:, 1], home)
        stray = spec.exists & ~spec.is_dir & ~own
        renamed = _renamed(spec)
        for idx in np.nonzero(~spec.exists | stray | renamed)[0].tolist():
            name, ino = spec.names[idx], spec.inos[idx]
            if not spec.exists[idx]:
                findings.append((
                    (0, spec.seq, 2, idx, 0), "dangling-inode",
                    f"dir {spec.dir_id}: entry {name!r} -> dangling inode {ino}",
                ))
                continue
            block = int(home[idx])
            if stray[idx] and owners.first_owned_in(block, block + 1) is None:
                findings.append((
                    (0, spec.seq, 2, idx, 0), "orphan-home-block",
                    f"inode {ino} ({name!r}) home block {block} "
                    f"outside any directory content",
                ))
            if renamed[idx]:
                findings.append((
                    (0, spec.seq, 2, idx, 1), "inode-name-mismatch",
                    f"inode {ino}: name {spec.inode_names[idx]!r} != "
                    f"entry name {name!r}",
                ))
    return _ordered_report(findings, checked)


def _normal_dir_spec(
    layout: NormalLayout, geometry: ItableGeometry, seq: int, d: NormalDir
) -> _NormalDirSpec:
    inos = d.entries.values()
    rows = layout._inodes.rows_of(inos)
    home_block, home_slot = layout._inodes.gather(rows, "home_block", "home_slot")
    names = tuple(d.entries)
    return _NormalDirSpec(
        seq=seq,
        ino=d.ino,
        nblocks=len(d.dentry_blocks),
        fill=tuple(d.fill),
        dentry_blocks=tuple(d.dentry_blocks),
        geometry=geometry,
        exists=rows >= 0,
        inos=np.fromiter(inos, dtype=np.int64, count=len(inos)),
        home_block=home_block,
        home_slot=home_slot,
        names=names,
        entry_blocks=tuple(map(d.entry_block.get, names)),
    )


def _normal_row_faults(
    spec: _NormalDirSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row verdicts of one normal-layout directory: the itable
    ``(block, slot)`` each inode belongs in, which live rows are homed
    elsewhere, and which point at a dentry block the directory lacks."""
    want_block, want_slot = spec.geometry.blocks_of(spec.inos, spec.exists)
    moved = spec.exists & (
        (spec.home_block != want_block) | (spec.home_slot != want_slot)
    )
    known = set(spec.dentry_blocks)
    if known.issuperset(spec.entry_blocks):
        unknown = np.zeros(len(spec.names), dtype=bool)
    else:
        unknown = spec.exists & ~np.fromiter(
            map(known.__contains__, spec.entry_blocks),
            dtype=bool, count=len(spec.names),
        )
    return want_block, want_slot, moved, unknown


def _normal_check(specs: list[_NormalDirSpec]) -> FsckReport:
    """Check every normal-layout directory, each against its own state."""
    findings: list[tuple] = []
    checked = 0
    for spec in specs:
        if spec.nblocks != len(spec.fill):
            findings.append((
                (0, spec.seq, 0, 0, 0), "dentry-fill-mismatch",
                f"dir {spec.ino}: dentry-block/fill length mismatch",
            ))
        occupancy = sum(spec.fill)
        if occupancy != len(spec.names):
            findings.append((
                (0, spec.seq, 1, 0, 0), "entry-count-mismatch",
                f"dir {spec.ino}: fill says {occupancy} entries, "
                f"map has {len(spec.names)}",
            ))
        checked += len(spec.names)
        want_block, want_slot, moved, unknown = _normal_row_faults(spec)
        for idx in np.nonzero(~spec.exists | moved | unknown)[0].tolist():
            name, ino = spec.names[idx], int(spec.inos[idx])
            if not spec.exists[idx]:
                findings.append((
                    (0, spec.seq, 2, idx, 0), "dangling-inode",
                    f"dir {spec.ino}: entry {name!r} -> dangling inode {ino}",
                ))
                continue
            if moved[idx]:
                hb, hs, eb, es = (
                    int(column[idx]) for column in
                    (spec.home_block, spec.home_slot, want_block, want_slot)
                )
                findings.append((
                    (0, spec.seq, 2, idx, 0), "inode-home-mismatch",
                    f"inode {ino}: home {hb}/{hs} != itable {eb}/{es}",
                ))
            if unknown[idx]:
                findings.append((
                    (0, spec.seq, 2, idx, 1), "entry-unknown-dentry-block",
                    f"dir {spec.ino}: entry {name!r} in unknown dentry block",
                ))
    return _ordered_report(findings, checked)


def _ordered_report(findings: list[tuple], checked: int) -> FsckReport:
    """Keyed findings back in serial emission order."""
    findings.sort(key=lambda t: t[0])
    report = FsckReport(checked_inodes=checked)
    for _key, code, message in findings:
        report.error(message, code=code)
    return report


def _detect_mds(mds: MetadataServer) -> tuple[list, FsckReport]:
    """The only metadata detection step: every directory's columns and
    their report."""
    layout = mds.layout
    dirs = enumerate(layout._dirs.values())
    if isinstance(layout, EmbeddedLayout):
        specs = [_embedded_dir_spec(layout, seq, d) for seq, d in dirs]
        return specs, _embedded_check(specs)
    if isinstance(layout, NormalLayout):
        geometry = layout.mfs.itable_geometry()
        specs = [_normal_dir_spec(layout, geometry, seq, d) for seq, d in dirs]
        return specs, _normal_check(specs)
    return [], FsckReport()


def check_mds(mds: MetadataServer, jobs: int | None = None) -> FsckReport:
    """Verify metadata-plane invariants; returns the report.

    The report is byte-identical to a serial entry-by-entry walk.
    """
    return _detect_mds(mds)[1]


# ---------------------------------------------------------------------------
# Repair: each pass applies the check before it, until convergence
# ---------------------------------------------------------------------------


def repair_dataplane(
    plane: DataPlane, max_passes: int = 4, jobs: int | None = None
) -> RepairResult:
    """Fix data-plane findings; iterates check→repair until clean.

    Strategy mirrors the checker: structurally invalid maps are dropped;
    extents outside the array, crossing or landing in the wrong PAG are
    unmapped (their blocks freed when no other extent owns them); later
    claimants of double-owned blocks lose them; extents mapping free blocks
    re-claim them with ``allocate_exact``.

    Each pass applies the scan and per-PAG verdicts of the check before it;
    re-checking settles any cross-PAG interactions one pass cannot see.
    """
    scan, verdicts, before = _detect_dataplane(plane)
    result = RepairResult(before=before, after=before)
    report = before
    while not report.clean and result.passes < max_passes:
        done = len(result.actions)
        _apply_dataplane(plane, scan, verdicts, result.actions)
        result.passes += 1
        scan, verdicts, report = _detect_dataplane(plane)
        if len(result.actions) == done:
            break
    result.after = report
    return result


def _apply_dataplane(
    plane: DataPlane, scan: _PlaneScan, verdicts: list, actions: list
) -> None:
    """Apply one check's scan, then its verdicts in PAG order, to the live
    plane.  A dropped map's blocks are freed unless a kept extent maps them,
    so no block a verdict names changes before the verdict is applied."""
    for m, r, action in scan.fixes:
        if r is None:
            f, slot = scan.slot_of(m)
            f.maps[slot].clear()
        else:
            f, slot, ext = scan.label(r)
            f.maps[slot].remove_range(ext.logical, ext.length)
        actions.append(action)
    dropped = np.isin(scan.owner, [m for m, r, _ in scan.fixes if r is None])
    for r in np.flatnonzero(dropped).tolist():
        blocks = np.arange(scan.phys[r], scan.phys[r] + scan.length[r])
        kept = _covered(scan.phys[scan.rows], scan.length[scan.rows], blocks)
        _flip(plane, blocks[~kept].tolist(), True)
    removed: set[int] = set()
    for verdict in verdicts:
        _apply_pag_verdict(plane, scan, verdict, removed, actions)


def _apply_pag_verdict(
    plane: DataPlane, scan: _PlaneScan, verdict: tuple, removed: set, actions: list
) -> None:
    """Apply one PAG's verdicts to the live plane.

    Serial-position (row) order decides double-ownership: the earliest
    claimant of a contested block keeps its full extent, later claimants
    are unmapped.  ``removed`` is shared across PAGs so an extent flagged
    by several (it crosses PAG boundaries) is unmapped exactly once.
    """
    _g, crosses, wrong, maps_free, overlap = verdict
    misplaced = set(crosses.tolist()) | set(wrong.tolist())
    losers: set[int] = set()
    claims = _IntervalOwners()
    for r in overlap.tolist():
        if r in removed or r in misplaced:
            continue
        a = int(scan.phys[r])
        b = a + int(scan.length[r])
        if claims.first_owned_in(a, b) is not None:
            losers.add(r)
        else:
            claims.assign(a, b, r)
    for r in sorted(misplaced | losers):
        if r in removed:
            continue
        f, slot, ext = scan.label(r)
        f.maps[slot].remove_range(ext.logical, ext.length)
        removed.add(r)
        # Blocks nobody else claims go back to free space; blocks a kept
        # extent owns are left allocated.
        _flip(plane, (
            b for b in range(ext.physical, ext.physical_end)
            if claims.first_owned_in(b, b + 1) is None
        ), True)
        code = "double-owned-block" if r in losers else "extent-wrong-pag"
        actions.append(RepairAction(code, f"{f.name} slot {slot}: unmapped {ext}"))
    for r in maps_free.tolist():
        if r in removed or r in misplaced or r in losers:
            continue
        f, slot, ext = scan.label(r)
        reclaimed = _flip(plane, range(ext.physical, ext.physical_end), False)
        if reclaimed:
            actions.append(RepairAction(
                "extent-maps-free",
                f"{f.name} slot {slot}: re-claimed {reclaimed} blocks of {ext}",
            ))


def repair_mds(
    mds: MetadataServer, max_passes: int = 4, jobs: int | None = None
) -> RepairResult:
    """Fix metadata-plane findings; iterates check→repair until clean.
    Each pass applies the directory columns of the check before it."""
    specs, before = _detect_mds(mds)
    result = RepairResult(before=before, after=before)
    report = before
    layout = mds.layout
    # Any other layout checks clean, so no pass runs on it.
    apply = _repair_embedded_pass if isinstance(layout, EmbeddedLayout) else _repair_normal_pass
    while not report.clean and result.passes < max_passes:
        changed = apply(layout, specs, result.actions)
        result.passes += 1
        specs, report = _detect_mds(mds)
        if not changed:
            break
    result.after = report
    return result


def _embedded_home_of(layout: EmbeddedLayout, d: EmbeddedDir, offset: int) -> int:
    """Authoritative home block for slot ``offset`` of ``d``, extending the
    directory content when the slot lies beyond it (lost-extension repair)."""
    try:
        return layout._block_of_offset(d, offset)
    except MetadataError:
        needed = offset // layout.slots_per_block + 1
        while d.content_blocks < needed:
            start, got, _ = layout.mfs.alloc_data(
                d.group, needed - d.content_blocks, minimum=1
            )
            d.content_runs.append((start, got))
        return layout._block_of_offset(d, offset)


def _repair_embedded_pass(
    layout: EmbeddedLayout, specs: list[_EmbeddedDirSpec], actions: list[RepairAction]
) -> bool:
    changed = False
    dirs = sorted(layout._dirs.values(), key=lambda d: d.dir_id)
    # 1. Directory-table entries lost: the live directory object is the
    #    authority, so restore its mapping.
    for d in dirs:
        if d.dir_id not in layout.gdt:
            layout.gdt.restore(d.dir_id, d.ino)
            actions.append(RepairAction(
                "gdt-unresolvable", f"restored table entry for dir {d.dir_id}"
            ))
            changed = True
    # 2. Overlapping content runs: the first claimant (lowest dir_id) keeps
    #    the blocks; later overlapping runs are dropped, and any inodes they
    #    homed are re-homed by step 3 on the next pass.
    content_owner: set[int] = set()
    for d in dirs:
        kept: list[tuple[int, int]] = []
        for start, count in d.content_runs:
            if any(b in content_owner for b in range(start, start + count)):
                actions.append(RepairAction(
                    "content-block-overlap",
                    f"dir {d.dir_id}: dropped overlapping content run "
                    f"({start}, {count})",
                ))
                changed = True
                continue
            content_owner.update(range(start, start + count))
            kept.append((start, count))
        d.content_runs = kept
    # 3. Per-entry inode state, from the check's columns (steps 1 and 2 left
    #    them true).  A flagged row re-tests the live inode, so an inode two
    #    entries share is fixed once; an inode whose name an earlier
    #    directory reset is flagged again in later ones.
    by_id = {spec.dir_id: spec for spec in specs}
    table = layout._inodes
    named: set[int] = set()
    for d in dirs:
        spec = by_id[d.dir_id]
        dir_ids, offsets = decode_inos(
            np.fromiter(spec.inos, dtype=np.uint64, count=len(spec.inos))
        )
        # Renamed-away ids: home authority lies elsewhere.
        native = spec.exists & (dir_ids == d.dir_id)
        # _block_of_offset over the column (content_runs are in slot order;
        # upto[k] content blocks precede run k).  A slot beyond the content
        # is a lost extension: _embedded_home_of grows the directory for it.
        runs = np.array(d.content_runs, dtype=np.int64).reshape(-1, 2)
        upto = np.concatenate(([0], np.cumsum(runs[:, 1])))
        block_no = (offsets // layout.slots_per_block).astype(np.int64)
        run = np.searchsorted(upto[1:], block_no, side="right")
        beyond = run == len(runs)
        expected = np.append(runs[:, 0], 0)[run] + block_no - upto[run]
        misplaced = native & (beyond | (spec.home_block != expected))
        flagged = ~spec.exists | _renamed(spec) | misplaced
        if named:
            flagged |= np.fromiter(map(named.__contains__, spec.inos), bool, len(spec.inos))
        dropped = False
        for idx in np.nonzero(flagged)[0].tolist():
            name, ino = spec.names[idx], spec.inos[idx]
            if not spec.exists[idx]:
                del d.entries[name]
                d.file_count = max(0, d.file_count - 1)
                actions.append(RepairAction(
                    "dangling-inode",
                    f"dir {d.dir_id}: dropped entry {name!r} -> lost inode {ino}",
                ))
                changed = dropped = True
                continue
            inode = table[ino]
            if inode.name != name:
                actions.append(RepairAction(
                    "inode-name-mismatch",
                    f"inode {ino}: reset name {inode.name!r} -> {name!r}",
                ))
                inode.name = name
                named.add(ino)
                changed = True
            if not misplaced[idx]:
                continue
            offset = int(offsets[idx])
            home = (
                _embedded_home_of(layout, d, offset)
                if beyond[idx] else int(expected[idx])
            )
            if inode.home_block != home:
                actions.append(RepairAction(
                    "orphan-home-block",
                    f"inode {ino}: re-homed {inode.home_block} -> {home}",
                ))
                inode.home_block = home
                inode.home_slot = offset % layout.slots_per_block
                changed = True
        if dropped:
            # The fragmentation degree (§IV.A) counts the live files left.
            rows = table.rows_of(d.entries.values())
            is_dir, records = table.gather(rows, "is_dir", "extent_records")
            counters = (int((~is_dir).sum()), int(records[~is_dir].sum()))
            if counters != (d.file_count, d.record_sum):
                actions.append(RepairAction("dangling-inode", (
                    f"dir {d.dir_id}: rebuilt (file_count, record_sum) "
                    f"{(d.file_count, d.record_sum)} -> {counters}"
                )))
                d.file_count, d.record_sum = counters
    return changed


def _repair_normal_pass(
    layout: NormalLayout, specs: list[_NormalDirSpec], actions: list[RepairAction]
) -> bool:
    changed = False
    # The check's columns; a flagged row re-tests the live inode.
    for d, spec in zip(layout._dirs.values(), specs):
        want_block, want_slot, moved, unknown = _normal_row_faults(spec)
        for idx in np.nonzero(~spec.exists | moved | unknown)[0].tolist():
            name, ino = spec.names[idx], int(spec.inos[idx])
            if not spec.exists[idx]:
                d.entry_block.pop(name, None)
                del d.entries[name]
                actions.append(RepairAction(
                    "dangling-inode",
                    f"dir {d.ino}: dropped entry {name!r} -> lost inode {ino}",
                ))
                changed = True
                continue
            inode = layout._inodes[ino]
            expected = (int(want_block[idx]), int(want_slot[idx]))
            if (inode.home_block, inode.home_slot) != expected:
                actions.append(RepairAction(
                    "inode-home-mismatch",
                    f"inode {ino}: re-homed to itable "
                    f"{expected[0]}/{expected[1]}",
                ))
                inode.home_block, inode.home_slot = expected
                changed = True
            if d.entry_block.get(name) not in d.dentry_blocks:
                if not d.dentry_blocks:
                    layout._add_dentry_block(d)
                d.entry_block[name] = d.dentry_blocks[0]
                actions.append(RepairAction(
                    "entry-unknown-dentry-block",
                    f"dir {d.ino}: re-pointed entry {name!r} at block "
                    f"{d.dentry_blocks[0]}",
                ))
                changed = True
        # Rebuild per-block fill counts from the entry→block map (the
        # authoritative state after the fixes above).
        if len(d.fill) != len(d.dentry_blocks):
            d.fill = [0] * len(d.dentry_blocks)
            actions.append(RepairAction(
                "dentry-fill-mismatch", f"dir {d.ino}: resized fill vector"
            ))
            changed = True
        index = {b: i for i, b in enumerate(d.dentry_blocks)}
        counts = [0] * len(d.dentry_blocks)
        for block in d.entry_block.values():
            counts[index[block]] += 1
        if counts != d.fill:
            d.fill = counts
            actions.append(RepairAction(
                "entry-count-mismatch", f"dir {d.ino}: rebuilt fill counts"
            ))
            changed = True
    return changed


# ---------------------------------------------------------------------------
# Online scrubbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScrubStep:
    """Outcome of one online scrub step: which shard was visited, how many
    findings it surfaced, and how many repair actions were applied."""

    shard: str
    findings: int
    repaired: int


class Scrubber:
    """Incremental round-robin fsck over live state.

    Each :meth:`step` checks (and repairs) one shard — a single PAG of the
    data plane, or the metadata plane — so a service loop can interleave
    scrubbing with foreground traffic instead of stopping the world.  A
    full rotation over :attr:`shard_count` shards covers every invariant
    the offline checker tests; :meth:`full_check` runs the offline checker
    for a convergence verdict.
    """

    def __init__(
        self,
        plane: DataPlane,
        mds: MetadataServer | None = None,
        strict_accounting: bool = False,
    ) -> None:
        self.plane = plane
        self.mds = mds
        self.strict_accounting = strict_accounting
        self._next = 0
        self.shards_checked = 0
        self.findings_found = 0
        self.repairs_applied = 0
        self.cycles = 0

    @property
    def shard_count(self) -> int:
        return len(self.plane.fsm.groups) + (1 if self.mds is not None else 0)

    def step(self) -> ScrubStep:
        """Check/repair the next shard in rotation."""
        idx = self._next
        self._next = (self._next + 1) % self.shard_count
        if self._next == 0:
            self.cycles += 1
        self.shards_checked += 1
        if idx < len(self.plane.fsm.groups):
            # The whole plane's structural faults, but only PAG idx's verdicts.
            actions: list[RepairAction] = []
            scan, verdicts, report = _detect_dataplane(self.plane, False, only=idx)
            _apply_dataplane(self.plane, scan, verdicts, actions)
            shard, findings = f"pag-{idx}", report.findings
        else:
            result = repair_mds(self.mds, max_passes=2)
            shard, findings, actions = "mds", result.before.findings, result.actions
        self.findings_found += len(findings)
        self.repairs_applied += len(actions)
        return ScrubStep(shard=shard, findings=len(findings), repaired=len(actions))

    def full_check(self) -> FsckReport:
        """Offline-grade report over everything the scrubber covers."""
        report = check_dataplane(
            self.plane, strict_accounting=self.strict_accounting
        )
        if self.mds is not None:
            report = report.merge(check_mds(self.mds))
        return report
