"""Size units and block arithmetic helpers.

All on-disk quantities in the simulator are expressed in *blocks* (the file
system block, 4 KiB by default, mirroring ext3/4 and the paper's Redbud).
Workload generators speak bytes; this module is the single place where the
two are converted, so that rounding conventions (always round a byte range
*up* to whole blocks) are consistent everywhere.
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

#: Default file system block size (bytes).  ext3/ext4 default; the paper's
#: examples ("request size from each client is one block") assume the same.
DEFAULT_BLOCK_SIZE: int = 4 * KiB


def bytes_to_blocks(nbytes: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Number of whole blocks needed to hold ``nbytes`` (round up).

    >>> bytes_to_blocks(1)
    1
    >>> bytes_to_blocks(4096)
    1
    >>> bytes_to_blocks(4097)
    2
    >>> bytes_to_blocks(0)
    0
    """
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    return -(-nbytes // block_size)


def block_span(offset: int, length: int, block_size: int = DEFAULT_BLOCK_SIZE) -> tuple[int, int]:
    """Return ``(first_block, nblocks)`` covering byte range [offset, offset+length).

    A zero-length range covers zero blocks.

    >>> block_span(0, 4096)
    (0, 1)
    >>> block_span(4095, 2)
    (0, 2)
    >>> block_span(8192, 0)
    (2, 0)
    """
    if offset < 0 or length < 0:
        raise ValueError(f"negative range: offset={offset} length={length}")
    if length == 0:
        return (offset // block_size, 0)
    first = offset // block_size
    last = (offset + length - 1) // block_size
    return (first, last - first + 1)


def fmt_bytes(nbytes: float) -> str:
    """Human-readable size string (binary units).

    >>> fmt_bytes(512)
    '512 B'
    >>> fmt_bytes(4096)
    '4.0 KiB'
    >>> fmt_bytes(3 * 1024 * 1024)
    '3.0 MiB'
    """
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")
