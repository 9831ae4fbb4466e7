"""Inode numbering, global directory table, rename correlations (§IV.B)."""

import pytest

from repro.errors import InodeError
from repro.meta.inumber import (
    MAX_DIR_ID,
    MAX_OFFSET,
    GlobalDirectoryTable,
    decode_ino,
    encode_ino,
)


class TestEncoding:
    def test_roundtrip(self):
        for dir_id, offset in [(0, 0), (1, 0), (7, 42), (MAX_DIR_ID, MAX_OFFSET)]:
            assert decode_ino(encode_ino(dir_id, offset)) == (dir_id, offset)

    def test_distinct(self):
        assert encode_ino(1, 2) != encode_ino(2, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(InodeError):
            encode_ino(MAX_DIR_ID + 1, 0)
        with pytest.raises(InodeError):
            encode_ino(0, MAX_OFFSET + 1)
        with pytest.raises(InodeError):
            encode_ino(-1, 0)

    def test_decode_range_check(self):
        with pytest.raises(InodeError):
            decode_ino(-1)


class TestGlobalDirectoryTable:
    def test_ids_are_sequential_from_root(self):
        t = GlobalDirectoryTable()
        assert t.new_dir_id(encode_ino(0, 1)) == GlobalDirectoryTable.ROOT_DIR_ID
        assert t.new_dir_id(encode_ino(1, 0)) == 2

    def test_lookup(self):
        t = GlobalDirectoryTable()
        root_ino = encode_ino(0, 1)
        d = t.new_dir_id(root_ino)
        assert t.dir_ino_of(d) == root_ino
        assert d in t

    def test_unknown_id_rejected(self):
        with pytest.raises(InodeError):
            GlobalDirectoryTable().dir_ino_of(99)

    def test_drop(self):
        t = GlobalDirectoryTable()
        d = t.new_dir_id(encode_ino(0, 1))
        t.drop_dir(d)
        assert d not in t
        with pytest.raises(InodeError):
            t.drop_dir(d)

    def test_ancestry_walks_to_root(self):
        t = GlobalDirectoryTable()
        root_ino = encode_ino(0, 1)
        root_id = t.new_dir_id(root_ino)          # 1
        sub_ino = encode_ino(root_id, 0)          # subdir in root
        sub_id = t.new_dir_id(sub_ino)            # 2
        file_ino = encode_ino(sub_id, 5)          # file in subdir
        chain = t.ancestry(file_ino)
        assert chain == [sub_ino, root_ino]

    def test_ancestry_of_root_child(self):
        t = GlobalDirectoryTable()
        root_ino = encode_ino(0, 1)
        root_id = t.new_dir_id(root_ino)
        assert t.ancestry(encode_ino(root_id, 3)) == [root_ino]


class TestRenameCorrelation:
    def test_old_resolves_to_new(self):
        t = GlobalDirectoryTable()
        t.correlate_rename(100, 200)
        assert t.resolve(100) == 200
        assert t.resolve(200) == 200

    def test_chained_renames(self):
        t = GlobalDirectoryTable()
        t.correlate_rename(100, 200)
        t.correlate_rename(200, 300)
        assert t.resolve(100) == 300
        assert t.resolve(200) == 300

    def test_untouched_ino_resolves_to_itself(self):
        assert GlobalDirectoryTable().resolve(42) == 42
