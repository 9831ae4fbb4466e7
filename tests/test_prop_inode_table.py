"""Stateful property test: ``InodeTable`` against a plain ``dict`` of records.

The machine adds, touches, re-homes, renames (the name field), re-keys (as
the embedded layout's rename does), deletes, and deletes-then-adds (so a
freed row is reused), and after every step checks:

1. ``len``, membership and every field read through a handle equal the model;
2. fsck's gather (``rows_of`` + ``gather``) over live and lost inos equals
   the model's: ``exists`` per entry, the field where live, 0 / "" where lost;
3. an ``add`` right after a gather, its arrays still held, does not raise
   (a numpy view of a column that outlived the gather would make it raise
   ``BufferError``).

A handle kept across its inode's delete must raise rather than read the
row's next tenant.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from repro.errors import MetadataError
from repro.meta.inode import InodeTable

from tests.meta_reference import Inode as Record

#: Every ino the machine uses lies below this; absent ones are "lost".
INOS = 48
#: Probe ino the gather invariant adds and deletes again.
PROBE = 10**6
FIELDS = [
    "ino", "is_dir", "name", "parent_dir_id", "home_block", "home_slot",
    "size", "nlink", "mtime", "ctime", "extent_records", "spill_blocks",
]
GATHERED = ("is_dir", "home_block", "home_slot", "name")

_ino = st.integers(0, INOS - 1)
_block = st.integers(0, 10**6)
_slot = st.integers(0, 63)
_name = st.text(alphabet="abc~/", max_size=4)
_now = st.floats(0.0, 1e6, allow_nan=False)


def model_gather(model: dict[int, Record], inos: list[int]) -> list:
    exists = [ino in model for ino in inos]
    out = [np.array(exists, dtype=bool)]
    for field_name in GATHERED:
        blank = "" if field_name == "name" else 0
        values = [
            getattr(model[ino], field_name) if ino in model else blank
            for ino in inos
        ]
        out.append(tuple(values) if field_name == "name" else np.array(values))
    return out


class InodeTableMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.table = InodeTable()
        self.model: dict[int, Record] = {}

    def _add(self, ino, is_dir, name, parent, block, slot, now) -> int:
        row = self.table.add(ino, is_dir, name, parent, block, slot, now)
        self.model[ino] = Record(
            ino=ino, is_dir=is_dir, name=name, parent_dir_id=parent,
            home_block=block, home_slot=slot, mtime=now, ctime=now,
        )
        return row

    def _live(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.model)))

    def _absent(self, data) -> int:
        return data.draw(
            st.sampled_from([ino for ino in range(INOS) if ino not in self.model])
        )

    # -- rules ----------------------------------------------------------------
    @precondition(lambda self: len(self.model) < INOS)
    @rule(data=st.data(), is_dir=st.booleans(), name=_name, parent=_ino,
          block=_block, slot=_slot, now=_now)
    def add(self, data, is_dir, name, parent, block, slot, now) -> None:
        self._add(self._absent(data), is_dir, name, parent, block, slot, now)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), now=_now)
    def touch(self, data, now) -> None:
        ino = self._live(data)
        assert self.table.touch(ino, now) == self.model[ino].home_block
        self.model[ino].touch(now)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), block=_block, slot=_slot)
    def rehome(self, data, block, slot) -> None:
        ino = self._live(data)
        inode = self.table[ino]
        inode.home_block, inode.home_slot = block, slot
        self.model[ino].home_block, self.model[ino].home_slot = block, slot

    @precondition(lambda self: self.model)
    @rule(data=st.data(), name=_name)
    def rename_name(self, data, name) -> None:
        ino = self._live(data)
        self.table[ino].name = name
        self.model[ino].name = name

    @precondition(lambda self: self.model and len(self.model) < INOS)
    @rule(data=st.data())
    def rekey(self, data) -> None:
        old = self._live(data)
        new = self._absent(data)
        handle = self.table[old]
        rows = self.table.rows  # what EmbeddedLayout.rename does
        rows[new] = rows.pop(old)
        self.table.ino[rows[new]] = new
        record = self.model.pop(old)
        record.ino = new
        self.model[new] = record
        assert handle.ino == new  # a handle follows its inode

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data) -> None:
        ino = self._live(data)
        handle = self.table[ino]
        del self.table[ino]
        del self.model[ino]
        with pytest.raises(MetadataError):
            handle.name

    @precondition(lambda self: self.model)
    @rule(data=st.data(), is_dir=st.booleans(), name=_name, block=_block,
          slot=_slot, now=_now)
    def delete_then_add(self, data, is_dir, name, block, slot, now) -> None:
        ino = self._live(data)
        handle = self.table[ino]
        row = self.table.rows[ino]
        del self.table[ino]
        del self.model[ino]
        fresh = self._absent(data)
        assert self._add(fresh, is_dir, name, ino, block, slot, now) == row
        # The row's new tenant is not readable through the old handle.
        with pytest.raises(MetadataError):
            handle.home_block
        with pytest.raises(MetadataError):
            handle.home_block = 0

    # -- invariants -----------------------------------------------------------
    @invariant()
    def fields_match_model(self) -> None:
        table, model = self.table, self.model
        assert len(table) == len(model)
        assert list(table.rows) == list(model)
        for ino, record in model.items():
            inode = table[ino]
            for field_name in FIELDS:
                assert getattr(inode, field_name) == getattr(record, field_name)

    @invariant()
    def gather_matches_model(self) -> None:
        inos = list(range(INOS))  # live and lost inos interleaved
        rows = self.table.rows_of(inos)
        got = [rows >= 0, *self.table.gather(rows, *GATHERED)]
        want = model_gather(self.model, inos)
        for g, w in zip(got, want):
            if isinstance(w, tuple):
                assert g == w
            else:
                np.testing.assert_array_equal(g, w)
        # The gathered arrays are still alive here: growing the table must
        # not trip over an exported buffer.
        self.table.add(PROBE, False, "probe", 0, 0, 0)
        del self.table[PROBE]


TestInodeTableMachine = InodeTableMachine.TestCase
TestInodeTableMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_gather_of_an_empty_table_reads_every_ino_as_lost():
    table = InodeTable()
    rows = table.rows_of([3, 5])
    is_dir, home_block, name = table.gather(rows, "is_dir", "home_block", "name")
    assert rows.tolist() == [-1, -1]
    assert is_dir.tolist() == [False, False]
    assert home_block.tolist() == [0, 0]
    assert name == ("", "")


def test_add_refuses_what_the_record_refused():
    table = InodeTable()
    with pytest.raises(MetadataError, match="negative inode number"):
        table.add(-1, False, "f", 0, 0, 0)
    with pytest.raises(MetadataError, match="invalid inode home"):
        table.add(1, False, "f", 0, -1, 0)
    table.add(1, False, "f", 0, 0, 0)
    with pytest.raises(MetadataError, match="already exists"):
        table.add(1, False, "g", 0, 0, 0)
    assert len(table) == 1 and table[1].name == "f"
