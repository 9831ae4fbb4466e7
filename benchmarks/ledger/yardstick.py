"""The yardstick: a fixed piece of work that tells how fast the box is *now*.

The reference box is a shared VM whose speed changes under the benchmark:
sub-second bursts of 10-30 %, and spells of many minutes in which everything
runs 1.3-2.5x slower (all of it user CPU time; co-tenants, not the guest).
No statistic of raw wall-clock samples survives that — two runs of the same
code ten minutes apart differ by more than any regression bound.  So every
timing the ledger reports is divided by the time this yardstick took right
before and right after it, and multiplied by :data:`REF_S`: the result reads
as *seconds on the reference box in a quiet spell*, whatever spell it was
measured in.

The yardstick has to slow down when the simulator slows down, so it is
written in the simulator's idiom rather than as a tight arithmetic loop
(which barely notices a slow spell): a heap of small event objects, a
request loop over dataclass instances and per-disk dicts, and short numpy
sort/diff/cumsum calls like the array disk path makes.  It touches nothing
under ``src/``, so no change to the simulator can move it.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Seconds one :func:`run` takes on the reference box in a quiet spell.  A
#: scale constant only: it makes normalised seconds read like real ones.
REF_S = 0.076


class _Event:
    __slots__ = ("when", "payload", "next")

    def __init__(self, when: int, payload: list, nxt) -> None:
        self.when = when
        self.payload = payload
        self.next = nxt


@dataclass
class _Request:
    disk: int
    start: int
    count: int
    write: bool
    service_s: float = 0.0


class _Disk:
    def __init__(self) -> None:
        self.head = 0
        self.busy_s = 0.0
        self.stats: dict[str, int] = {}

    def submit(self, req: _Request) -> float:
        seek = abs(req.start - self.head)
        self.head = req.start + req.count
        t = 0.004 + seek * 1e-7 + req.count * 1e-5
        self.busy_s += t
        kind = "w" if req.write else "r"
        self.stats[kind] = self.stats.get(kind, 0) + 1
        return t


_ARRAYS = [np.arange(2000, dtype=np.int64) * 7919 % (10007 + k) for k in range(8)]


def _event_heap(n: int) -> int:
    heap: list = []
    for i in range(n):
        heapq.heappush(heap, (i * 7919 % 10007, i, _Event(i, [i], None)))
    return sum(heapq.heappop(heap)[2].when for _ in range(n))


def _request_loop(n: int) -> int:
    disks = [_Disk() for _ in range(8)]
    done = []
    for i in range(n):
        req = _Request(i & 7, (i * 2654435761) & 0xFFFFF, 1 + (i & 15), bool(i & 1))
        req.service_s = disks[req.disk].submit(req)
        done.append(req)
    by_disk: dict[int, list] = {}
    for req in done:
        by_disk.setdefault(req.disk, []).append((req.start, req.count))
    return sum(len(sorted(runs)) for runs in by_disk.values())


def _array_batches(n: int) -> int:
    total = 0
    for i in range(n):
        blocks = _ARRAYS[i & 7]
        ordered = blocks[np.argsort(blocks, kind="stable")]
        gaps = np.diff(ordered)
        total += int(np.cumsum(gaps)[-1]) + int(np.count_nonzero(gaps > 3))
    return total


def run() -> float:
    """Wall seconds of one pass; the collector is off so the caller's heap
    size does not enter into it."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    _event_heap(16_000)
    _request_loop(18_000)
    _array_batches(450)
    elapsed = perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed


def normalise(walls: list[float], yards: list[float]) -> list[float]:
    """``walls[i]`` in reference-box seconds, given that sample ``i`` ran
    between yardstick readings ``yards[i]`` and ``yards[i + 1]``."""
    return [
        wall * REF_S / ((before + after) / 2)
        for wall, before, after in zip(walls, yards, yards[1:])
    ]
