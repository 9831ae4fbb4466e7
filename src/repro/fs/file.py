"""Regular-file representation on the data plane.

Following the layout model of object/block parallel file systems (Lustre
objects, pNFS block extents), a file's data is striped over a rotation of
PAGs and **each rotation slot keeps its own extent map** in a dense local
("dlocal") coordinate space.  A client stream writing sequentially appears
sequential to every slot, so per-slot extents merge; Table I's segment count
is the sum of per-slot extent counts.

The stripe geometry — file block to ``(slot, dlocal)`` and back — lives
here once: :func:`split` over ints, :func:`split_rows` and
:func:`logical_of` over int64 columns, and :func:`slot_share`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.block.extent import ExtentMap
from repro.errors import ConfigError


@dataclass
class RedbudFile:
    """A regular file on the data plane."""

    file_id: int
    name: str
    #: PAG indices, one per rotation slot (stripe ``s`` lands on slot
    #: ``s % width``).
    layout: list[int]
    stripe_blocks: int
    #: Per-slot extent maps, dlocal -> global physical.
    maps: list[ExtentMap] = field(default_factory=list)
    size_bytes: int = 0
    #: Declared size for fallocate-style preallocation (None = unknown).
    expected_bytes: int | None = None
    deleted: bool = False

    def __post_init__(self) -> None:
        if not self.layout:
            raise ConfigError("file layout must name at least one PAG")
        if self.stripe_blocks <= 0:
            raise ConfigError(f"stripe_blocks must be positive: {self.stripe_blocks}")
        if not self.maps:
            self.maps = [ExtentMap() for _ in self.layout]
        if len(self.maps) != len(self.layout):
            raise ConfigError("one extent map per layout slot required")
        # Stripe width (number of rotation slots).  Cached as a plain
        # attribute: the striping arithmetic reads it per segment and the
        # slot count never changes after creation.
        self.width = len(self.layout)

    @property
    def extent_count(self) -> int:
        """Total extents over all slots — Table I's "Seg Counts"."""
        return sum(m.extent_count for m in self.maps)

    @property
    def mapped_blocks(self) -> int:
        return sum(m.mapped_blocks for m in self.maps)

    @property
    def written_blocks(self) -> int:
        return sum(m.written_blocks for m in self.maps)

    def to_logical(self, slot: int, dlocal: int) -> int:
        """The file block at ``dlocal`` of rotation slot ``slot``."""
        if not (0 <= slot < self.width):
            raise ConfigError(f"slot out of range: {slot}")
        if dlocal < 0:
            raise ConfigError(f"negative dlocal block: {dlocal}")
        round_, offset = divmod(dlocal, self.stripe_blocks)
        stripe = round_ * self.width + slot
        return stripe * self.stripe_blocks + offset


# -- stripe geometry ---------------------------------------------------------
# File block ``b`` lies in stripe unit ``s = b // sb``, which lands on slot
# ``s % width`` at dlocal ``(s // width) * sb + b % sb``.  Consecutive units
# of a width-1 file are dlocal-contiguous, so a range of one is one segment:
# the policy sees one request per PAG, not one per stripe unit (PVFS list
# I/O's "describe many pieces in one request").


def split(sb: int, width: int, lb: int, nb: int) -> list[tuple[int, int, int]]:
    """File blocks ``[lb, lb+nb)`` of a file with stripe unit ``sb`` over
    ``width`` slots as ``(slot, dlocal start, length)`` segments in logical
    order, each dlocal-contiguous: one per stripe unit, one in all at
    width 1."""
    stripe, off = divmod(lb, sb)
    if off + nb <= sb:  # inside one stripe unit, the common case
        return [(stripe % width, (stripe // width) * sb + off, nb)]
    if width == 1:
        return [(0, lb, nb)]
    out = [(stripe % width, (stripe // width) * sb + off, sb - off)]
    end = lb + nb
    for stripe in range(stripe + 1, (end - 1) // sb + 1):
        out.append((stripe % width, (stripe // width) * sb, min(sb, end - stripe * sb)))
    return out


def split_rows(
    sb: np.ndarray, width: np.ndarray, lb: np.ndarray, nb: np.ndarray
) -> tuple[np.ndarray, ...]:
    """:func:`split` of many ranges held as int64 columns, ``sb`` and
    ``width`` being each range's file's.  Per range its segment count
    ``units``, and per segment (in range, then logical order) the range it
    belongs to, its slot, dlocal start and length."""
    end = lb + nb
    first = lb // sb
    units = np.where(width == 1, 1, (end - 1) // sb - first + 1)
    op = np.repeat(np.arange(lb.shape[0]), units)
    stripe = np.arange(op.shape[0]) + (first - (np.cumsum(units) - units))[op]
    sb, width, end = sb[op], width[op], end[op]
    lo = np.maximum(lb[op], stripe * sb)
    dcount = np.where(width == 1, end, np.minimum(end, (stripe + 1) * sb)) - lo
    return units, op, stripe % width, (stripe // width) * sb + (lo - stripe * sb), dcount


def logical_of(sb: int, width: int, slot: np.ndarray, dlocal: np.ndarray) -> np.ndarray:
    """The file blocks at ``dlocal`` of slots ``slot`` (columns or ints)."""
    return ((dlocal // sb) * width + slot) * sb + dlocal % sb


def slot_share(sb: int, width: int, total_blocks: int, slot: int) -> int:
    """Blocks of a ``total_blocks``-file that land on rotation slot ``slot``."""
    full_stripes, tail = divmod(total_blocks, sb)
    rounds, extra = divmod(full_stripes, width)
    if slot < extra:
        return (rounds + 1) * sb
    return rounds * sb + (tail if slot == extra else 0)
