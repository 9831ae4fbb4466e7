"""Inode numbering for the embedded layout (§IV.B).

Embedded directories allocate inodes dynamically inside directory content,
breaking the classic ``ino → (group, table index)`` translation.  MiF
regains it with:

- inode numbers of the form ⟨32-bit directory identification, 32-bit offset
  in the directory⟩;
- a **global directory table** mapping each directory identification to its
  parent directory's inode number, so any inode can be located by walking
  the table back to the root;
- a **rename correlation** table: because moving a file changes its inode
  number (the parent identification is baked in), the old and new numbers
  stay correlated "until the management routines exit", and changes routed
  to either reach the same inode.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InodeError

_OFFSET_BITS = 32
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1
#: Directory identifications are 32-bit in the paper's implementation; the
#: text notes a 128-bit escape hatch "would overcome any realistic
#: limitations" — we enforce the 64-bit form and surface overflow clearly.
MAX_DIR_ID = (1 << 32) - 1
MAX_OFFSET = _OFFSET_MASK


def encode_ino(dir_id: int, offset: int) -> int:
    """Pack ⟨directory identification, offset⟩ into a 64-bit inode number.

    >>> encode_ino(1, 0)
    4294967296
    >>> decode_ino(encode_ino(7, 42))
    (7, 42)
    """
    if not (0 <= dir_id <= MAX_DIR_ID):
        raise InodeError(f"directory identification out of range: {dir_id}")
    if not (0 <= offset <= MAX_OFFSET):
        raise InodeError(f"directory offset out of range: {offset}")
    return (dir_id << _OFFSET_BITS) | offset


def decode_ino(ino: int) -> tuple[int, int]:
    """Unpack an embedded inode number into (dir_id, offset)."""
    if ino < 0 or ino > ((MAX_DIR_ID << _OFFSET_BITS) | MAX_OFFSET):
        raise InodeError(f"inode number out of range: {ino}")
    return (ino >> _OFFSET_BITS, ino & _OFFSET_MASK)


def decode_inos(inos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`decode_ino` over a ``uint64`` column (whose every value is a
    well-formed inode number)."""
    return (inos >> np.uint64(_OFFSET_BITS), inos & np.uint64(_OFFSET_MASK))


class GlobalDirectoryTable:
    """dir_id ↔ directory inode number, plus rename correlations."""

    ROOT_DIR_ID = 1

    def __init__(self) -> None:
        self._dir_ino: dict[int, int] = {}
        self._next_dir_id = self.ROOT_DIR_ID
        # old ino <-> new ino (both directions resolve to the new inode).
        self._rename_old_to_new: dict[int, int] = {}
        self._rename_new_to_old: dict[int, int] = {}

    def new_dir_id(self, dir_ino: int) -> int:
        """Register a new directory; returns its identification."""
        dir_id = self._next_dir_id
        if dir_id > MAX_DIR_ID:
            raise InodeError("directory identification space exhausted")
        self._next_dir_id += 1
        self._dir_ino[dir_id] = dir_ino
        return dir_id

    def dir_ino_of(self, dir_id: int) -> int:
        """Inode number of directory ``dir_id`` (its parent-table entry)."""
        try:
            return self._dir_ino[dir_id]
        except KeyError:
            raise InodeError(f"unknown directory identification: {dir_id}") from None

    def drop_dir(self, dir_id: int) -> None:
        """Remove a deleted directory's entry."""
        if self._dir_ino.pop(dir_id, None) is None:
            raise InodeError(f"unknown directory identification: {dir_id}")

    def restore(self, dir_id: int, dir_ino: int) -> None:
        """Re-insert a mapping recovered by fsck repair (the live directory
        object is the authority; the table entry was lost)."""
        if not (0 <= dir_id <= MAX_DIR_ID):
            raise InodeError(f"directory identification out of range: {dir_id}")
        self._dir_ino[dir_id] = dir_ino
        if dir_id >= self._next_dir_id:
            self._next_dir_id = dir_id + 1

    def __contains__(self, dir_id: int) -> bool:
        return dir_id in self._dir_ino

    def __len__(self) -> int:
        return len(self._dir_ino)

    def ancestry(self, ino: int, max_depth: int = 64) -> list[int]:
        """Directory-inode chain from ``ino``'s parent up to the root
        (§IV.B's recursive track-back used to locate an arbitrary inode)."""
        chain: list[int] = []
        current = self.resolve(ino)
        for _ in range(max_depth):
            dir_id, _offset = decode_ino(current)
            if dir_id == 0:  # root's parent: ⟨0, x⟩ terminates the walk
                return chain
            parent_ino = self.dir_ino_of(dir_id)
            chain.append(parent_ino)
            if parent_ino == current:
                return chain
            current = parent_ino
        raise InodeError(f"directory ancestry too deep for inode {ino}")

    # -- rename correlation (§IV.B) --------------------------------------------
    def correlate_rename(self, old_ino: int, new_ino: int) -> None:
        """Record that ``old_ino`` now refers to ``new_ino``."""
        # Chase chains: a second rename correlates the *original* id too.
        origin = self._rename_new_to_old.pop(old_ino, None)
        self._rename_old_to_new[old_ino] = new_ino
        self._rename_new_to_old[new_ino] = old_ino
        if origin is not None:
            self._rename_old_to_new[origin] = new_ino

    def resolve(self, ino: int) -> int:
        """Follow rename correlations to the current inode number."""
        seen = set()
        current = ino
        while current in self._rename_old_to_new:
            if current in seen:
                raise InodeError(f"rename correlation cycle at {ino}")
            seen.add(current)
            current = self._rename_old_to_new[current]
        return current
