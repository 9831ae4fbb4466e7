"""Unit conversions and block arithmetic."""

import pytest

from repro.units import (
    DEFAULT_BLOCK_SIZE,
    GiB,
    KiB,
    MiB,
    block_span,
    bytes_to_blocks,
    fmt_bytes,
)


class TestBytesToBlocks:
    def test_zero(self):
        assert bytes_to_blocks(0) == 0

    def test_one_byte_needs_one_block(self):
        assert bytes_to_blocks(1) == 1

    def test_exact_block(self):
        assert bytes_to_blocks(DEFAULT_BLOCK_SIZE) == 1

    def test_one_over_block_rounds_up(self):
        assert bytes_to_blocks(DEFAULT_BLOCK_SIZE + 1) == 2

    def test_custom_block_size(self):
        assert bytes_to_blocks(1024, block_size=512) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bytes_to_blocks(-1)


class TestBlockSpan:
    def test_aligned_range(self):
        assert block_span(0, 4096) == (0, 1)

    def test_straddling_range(self):
        assert block_span(4095, 2) == (0, 2)

    def test_zero_length(self):
        assert block_span(8192, 0) == (2, 0)

    def test_interior(self):
        first, count = block_span(10000, 10000)
        assert first == 2
        assert count == 3  # blocks 2,3,4 cover bytes [8192, 20480)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            block_span(-1, 5)
        with pytest.raises(ValueError):
            block_span(0, -5)


class TestFmtBytes:
    def test_bytes(self):
        assert fmt_bytes(512) == "512 B"

    def test_kib(self):
        assert fmt_bytes(4 * KiB) == "4.0 KiB"

    def test_mib(self):
        assert fmt_bytes(int(2.5 * MiB)) == "2.5 MiB"

    def test_gib(self):
        assert fmt_bytes(3 * GiB) == "3.0 GiB"
