"""Seeded structure-level corruption.

While the :class:`~repro.fault.injector.FaultInjector` models *physical*
faults under the disk, the :class:`Corruptor` damages file-system state the
way fsck fuzzers (e2fuzz, CrashMonkey's oracle) do: it flips exactly the
invariants :mod:`repro.fs.verify` checks — double-owned blocks, extents
mapping free space, dangling directory entries, orphan embedded inodes,
dropped directory-table mappings — so the repair routines have something
real to fix.  All choices are drawn from a :func:`repro.rng.derive_rng`
stream, so a campaign's damage is a pure function of its seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.block.extent import Extent
from repro.errors import NoSpaceError
from repro.meta.embedded_layout import EmbeddedLayout
from repro.meta.normal_layout import NormalLayout
from repro.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fs imports meta)
    from repro.fs.dataplane import DataPlane
    from repro.meta.mds import MetadataServer


class Corruptor:
    """Applies seeded structural damage; records what it aimed for."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = derive_rng(seed, "fault", "corrupt")
        #: Finding codes each applied corruption targets (campaign report).
        self.injected: list[str] = []

    def _pick(self, items: list):
        return items[int(self.rng.integers(0, len(items)))]

    # -- data plane ---------------------------------------------------------
    def corrupt_dataplane(self, plane: "DataPlane", nfaults: int = 3) -> list[str]:
        """Inject up to ``nfaults`` data-plane corruptions; returns the
        finding codes they should produce."""
        ops = [self._dp_free_mapped, self._dp_duplicate_extent, self._dp_wrong_pag]
        applied: list[str] = []
        for _ in range(nfaults):
            op = self._pick(ops)
            code = op(plane)
            if code is not None:
                applied.append(code)
        self.injected += applied
        return applied

    def _mapped_extents(self, plane: "DataPlane"):
        out = []
        for f in plane.files():
            for slot, smap in enumerate(f.maps):
                for ext in smap:
                    out.append((f, slot, ext))
        return out

    def _dp_free_mapped(self, plane: "DataPlane") -> str | None:
        """Free a block a live extent still maps (lost-bitmap-update)."""
        extents = self._mapped_extents(plane)
        if not extents:
            return None
        _, _, ext = self._pick(extents)
        if plane.fsm.group_of(ext.physical).free.is_free(ext.physical, 1):
            return None  # already corrupted by an earlier draw
        plane.fsm.free(ext.physical, 1)
        return "extent-maps-free"

    def _dp_duplicate_extent(self, plane: "DataPlane") -> str | None:
        """Map one file's physical blocks into another file too."""
        extents = self._mapped_extents(plane)
        files = plane.files()
        if not extents or not files:
            return None
        _, _, src = self._pick(extents)
        victim = self._pick(files)
        smap = victim.maps[0]
        length = min(src.length, 2)
        smap.insert(Extent(smap.size_blocks + 4, src.physical, length))
        return "double-owned-block"

    def _dp_wrong_pag(self, plane: "DataPlane") -> str | None:
        """Give a file an extent in a PAG outside its layout."""
        files = [f for f in plane.files() if f.maps]
        if not files:
            return None
        f = self._pick(files)
        wrong = [g for g in range(len(plane.fsm.groups)) if g not in f.layout]
        if not wrong:
            return None
        group = self._pick(wrong)
        try:
            start, got = plane.fsm.allocate_in_group(group, 2, hint=None, minimum=1)
        except NoSpaceError:
            return None
        smap = f.maps[0]
        smap.insert(Extent(smap.size_blocks + 8, start, got))
        return "extent-wrong-pag"

    # -- metadata plane ------------------------------------------------------
    def corrupt_mds(self, mds: "MetadataServer", nfaults: int = 3) -> list[str]:
        """Inject up to ``nfaults`` metadata corruptions."""
        layout = mds.layout
        if isinstance(layout, EmbeddedLayout):
            ops = [
                self._md_dangling,
                self._md_orphan_home,
                self._md_gdt_drop,
                self._md_name_mismatch,
            ]
        elif isinstance(layout, NormalLayout):
            ops = [
                self._md_dangling,
                self._md_home_mismatch,
                self._md_unknown_entry_block,
                self._md_fill_corrupt,
            ]
        else:  # pragma: no cover - exhaustive over shipped layouts
            return []
        applied: list[str] = []
        for _ in range(nfaults):
            op = self._pick(ops)
            code = op(layout)
            if code is not None:
                applied.append(code)
        self.injected += applied
        return applied

    def _file_entries(self, layout):
        """``(dir, name, ino)`` of every entry whose inode is a live file,
        in directory order, tested on the ``is_dir`` column in one gather."""
        entries = [
            (d, name, ino)
            for d in layout._dirs.values() for name, ino in d.entries.items()
        ]
        table = layout._inodes
        rows = table.rows_of([ino for _, _, ino in entries])
        (is_dir,) = table.gather(rows, "is_dir")
        return [entries[i] for i in np.flatnonzero((rows >= 0) & ~is_dir).tolist()]

    def _md_dangling(self, layout) -> str | None:
        """Lose an inode but keep its directory entry."""
        entries = self._file_entries(layout)
        if not entries:
            return None
        _, _, ino = self._pick(entries)
        del layout._inodes[ino]
        return "dangling-inode"

    def _md_orphan_home(self, layout: EmbeddedLayout) -> str | None:
        """Point a file inode's home outside any directory content."""
        entries = self._file_entries(layout)
        if not entries:
            return None
        _, _, ino = self._pick(entries)
        layout._inodes[ino].home_block = 0  # superblock: never dir content
        return "orphan-home-block"

    def _md_gdt_drop(self, layout: EmbeddedLayout) -> str | None:
        """Drop a directory's global-table mapping."""
        dirs = [d for d in layout._dirs.values() if d.dir_id in layout.gdt]
        if not dirs:
            return None
        d = self._pick(dirs)
        layout.gdt.drop_dir(d.dir_id)
        return "gdt-unresolvable"

    def _md_name_mismatch(self, layout: EmbeddedLayout) -> str | None:
        """Scribble over an inode's embedded name bytes."""
        entries = self._file_entries(layout)
        if not entries:
            return None
        _, _, ino = self._pick(entries)
        layout._inodes[ino].name += "~corrupt"
        return "inode-name-mismatch"

    def _md_home_mismatch(self, layout: NormalLayout) -> str | None:
        """Relocate an inode away from its inode-table slot."""
        entries = self._file_entries(layout)
        if not entries:
            return None
        _, _, ino = self._pick(entries)
        layout._inodes[ino].home_block += 1
        return "inode-home-mismatch"

    def _md_unknown_entry_block(self, layout: NormalLayout) -> str | None:
        """Point a dentry at a block its directory doesn't own."""
        entries = self._file_entries(layout)
        if not entries:
            return None
        d, name, _ = self._pick(entries)
        d.entry_block[name] = max(d.dentry_blocks, default=0) + 977
        return "entry-unknown-dentry-block"

    def _md_fill_corrupt(self, layout: NormalLayout) -> str | None:
        """Inflate a dentry block's fill count."""
        dirs = [d for d in layout._dirs.values() if d.fill]
        if not dirs:
            return None
        d = self._pick(dirs)
        d.fill[0] += 1
        return "entry-count-mismatch"
