"""The MDS inode table.

The simulator does not serialize inode bytes; what matters for the paper's
results is *where* each inode's on-disk bytes live (``home_block``) and how
many layout-mapping records it carries (``extent_records`` — §IV.A stuffs
them in the inode tail and spills to extra blocks when they overflow).

:class:`InodeTable` is its columns: one ``array`` per numeric field and a
list each for ``name`` and ``spill_blocks``, one row per live inode, found
through an ``ino -> row`` dict.  The layouts' hot paths read and write the
columns directly; fsck gathers a directory's rows with numpy
(:meth:`InodeTable.rows_of` + :meth:`InodeTable.gather`).  An
:class:`Inode` is a handle on one row, built on demand for callers that
want an inode object; no ``Inode`` is stored per inode.

A deleted inode's row goes on a free list and the next :meth:`add` reuses
it.  A handle can never read its row's next tenant: the table keeps a
generation per row, bumped when the row is freed, and every handle read or
write checks the generation it was built with, so a handle that outlived
its inode raises :class:`~repro.errors.MetadataError` instead.  A re-key
(the embedded layout's rename moves the row to a new ``rows`` key and
``ino``) keeps the row and its generation, so a handle follows its inode
to the new number.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from repro.errors import MetadataError

#: Numeric columns, ``field -> array typecode``; ``is_dir`` is 0/1.
_NUMERIC = {
    "ino": "q", "is_dir": "B", "parent_dir_id": "q", "home_block": "q",
    "home_slot": "q", "size": "q", "nlink": "q", "mtime": "d", "ctime": "d",
    "extent_records": "q",
}
#: numpy dtype a column of each typecode is gathered as.
_DTYPES = {"q": np.int64, "B": np.bool_, "d": np.float64}


class InodeTable:
    """Every inode at the MDS, one row each, stored by column.

    ``len``, ``table[ino]`` (a handle) and ``del table[ino]`` read like the
    ``dict[int, Inode]`` it replaces; ``rows`` is the ``ino -> row`` dict.
    """

    def __init__(self) -> None:
        #: ``ino -> row``; iteration order is insertion order, a re-keyed
        #: inode moving to the end (as ``dict`` pop + set did).
        self.rows: dict[int, int] = {}
        #: Rows free to take, the next one last: freed rows and the unused
        #: tail the columns were grown by.
        self._free = array("q")
        self.gen = array("q")
        for field_name, code in _NUMERIC.items():
            setattr(self, field_name, array(code))
        self.name: list[str] = []
        self.spill_blocks: list[list[int] | None] = []  # None on a free row
        self._grow()

    def _grow(self) -> None:
        """Grow every column by a quarter (at least 64 rows) of blank rows."""
        have = len(self.gen)
        more = max(have >> 2, 64)
        for column in [self.gen, *(getattr(self, f) for f in _NUMERIC)]:
            column.frombytes(bytes(more * column.itemsize))
        self.name += [""] * more
        self.spill_blocks += [None] * more
        self._free.extend(range(have + more - 1, have - 1, -1))

    # -- the layouts' column paths ------------------------------------------
    def add(
        self, ino: int, is_dir: bool, name: str, parent_dir_id: int,
        home_block: int, home_slot: int, now: float = 0.0,
    ) -> int:
        """Enter a new inode stamped ``now``; returns its row."""
        if ino < 0:
            raise MetadataError(f"negative inode number: {ino}")
        if home_block < 0 or home_slot < 0:
            raise MetadataError(
                f"invalid inode home: ino {ino} at {home_block}/{home_slot}"
            )
        rows = self.rows
        if ino in rows:
            raise MetadataError(f"inode {ino} already exists")
        if not self._free:
            self._grow()
        row = self._free.pop()
        self.ino[row] = ino
        self.is_dir[row] = is_dir
        self.parent_dir_id[row] = parent_dir_id
        self.home_block[row] = home_block
        self.home_slot[row] = home_slot
        self.size[row] = 0
        self.nlink[row] = 1
        self.mtime[row] = now
        self.ctime[row] = now
        self.extent_records[row] = 0
        self.name[row] = name
        self.spill_blocks[row] = []
        rows[ino] = row
        return row

    def touch(self, ino: int, now: float) -> int:
        """Stamp ``ino``'s times (utime/setattr); returns its home block."""
        row = self.rows[ino]
        self.mtime[row] = now
        self.ctime[row] = now
        return self.home_block[row]

    def __delitem__(self, ino: int) -> None:
        row = self.rows.pop(ino)
        self.gen[row] += 1
        self.name[row] = ""
        self.spill_blocks[row] = None
        self._free.append(row)

    # -- fsck's gathers -----------------------------------------------------
    def rows_of(self, inos) -> np.ndarray:
        """Row of each of ``inos`` (a sized iterable), -1 for a lost one."""
        return np.fromiter(
            map(self.rows.get, inos, repeat(-1)), dtype=np.int64, count=len(inos)
        )

    def gather(self, rows: np.ndarray, *fields: str) -> list:
        """Each of ``fields`` at ``rows``: a fresh numpy array per numeric
        field, a tuple for ``name``.  A -1 row (a lost inode) reads 0 or "".

        The numpy view of a column lives only inside its gather: a view
        exports the ``array``'s buffer, and an exported ``array`` refuses to
        grow (``BufferError`` on the next :meth:`add`).
        """
        lost = rows < 0
        lost_at = np.flatnonzero(lost).tolist() if lost.any() else ()
        out: list = []
        for field_name in fields:
            column = getattr(self, field_name)
            if field_name == "name":
                values = list(map(column.__getitem__, rows.tolist()))
                for idx in lost_at:
                    values[idx] = ""
                out.append(tuple(values))
                continue
            values = np.frombuffer(column, dtype=_DTYPES[column.typecode])[rows]
            if lost_at:
                values[lost] = 0
            out.append(values)
        return out

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, ino: int) -> "Inode":
        return Inode(self, self.rows[ino])


def _column_field(field_name: str, cast=None) -> property:
    def fget(self: "Inode"):
        value = getattr(self._table, field_name)[self._live_row()]
        return value if cast is None else cast(value)

    def fset(self: "Inode", value) -> None:
        getattr(self._table, field_name)[self._live_row()] = value

    return property(fget, fset)


class Inode:
    """Handle on one :class:`InodeTable` row: a file or directory inode at
    the MDS, read and written by field."""

    __slots__ = ("_table", "_row", "_gen")

    def __init__(self, table: InodeTable, row: int) -> None:
        self._table = table
        self._row = row
        self._gen = table.gen[row]

    def _live_row(self) -> int:
        if self._table.gen[self._row] != self._gen:
            raise MetadataError("stale inode handle: its inode was deleted")
        return self._row

    @property
    def ino(self) -> int:
        return self._table.ino[self._live_row()]

    is_dir = _column_field("is_dir", bool)
    name = _column_field("name")
    parent_dir_id = _column_field("parent_dir_id")
    #: MDS-disk block where the inode's bytes live (itable block in the
    #: normal layout, directory-content block in the embedded layout).
    home_block = _column_field("home_block")
    #: Slot index within the home block.
    home_slot = _column_field("home_slot")
    size = _column_field("size")
    nlink = _column_field("nlink")
    mtime = _column_field("mtime")
    ctime = _column_field("ctime")
    #: Layout-mapping records (data-plane extents for files).
    extent_records = _column_field("extent_records")
    #: MDS-disk blocks holding spilled mapping records (§IV.A "extra
    #: blocks"), in order.
    spill_blocks = _column_field("spill_blocks")
