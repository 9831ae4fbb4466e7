"""``AllocationPolicy.allocate_many`` is the loop of ``allocate`` calls.

Twin policies on twin free-space managers take the same generated rows: one
through ``allocate_many`` (resumed after every stop on the same column
iterators, as ``DataPlane._map_write_columns`` does), the other one
``allocate`` call per row.  After every call the answers, the per-stream
and per-pool state, the free-space books, the metrics (key order included)
and the trace rows must be equal — also when ``NoSpaceError`` fires mid-run
on a tiny disk.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.base import AllocationPolicy, AllocTarget, _backs_exactly
from repro.alloc.ondemand import OnDemandPolicy
from repro.alloc.registry import POLICY_NAMES, make_policy
from repro.block.freespace import FreeSpaceManager
from repro.config import AllocPolicyParams
from repro.errors import NoSpaceError
from repro.obs.trace import Tracer
from repro.sim.metrics import Metrics

NGROUPS = 2
TARGETS = [
    AllocTarget(group_index=g, slot=g)
    for g in range(NGROUPS)
]
#: A policy's handles on the shared books, compared separately.
SHARED = {"params", "fsm", "metrics", "tracer", "_counters"}


def build(name: str, blocks_per_disk: int, traced: bool) -> AllocationPolicy:
    metrics = Metrics()
    tracer = Tracer() if traced else None
    fsm = FreeSpaceManager(1, blocks_per_disk, NGROUPS, metrics, tracer)
    params = AllocPolicyParams(
        policy=name, max_preallocation_blocks=64, reservation_blocks=24,
        delayed_batch_blocks=32,
    )
    policy = make_policy(params, fsm, metrics, tracer)
    policy.prepare(0, TARGETS[0], 8)  # file 0 is declared (static, hybrid)
    return policy


def state(obj):
    """Everything a policy holds besides its shared handles, in order."""
    if isinstance(obj, AllocationPolicy):
        return [(k, state(v)) for k, v in vars(obj).items() if k not in SHARED]
    if isinstance(obj, dict):
        return [(k, state(v)) for k, v in obj.items()]
    if isinstance(obj, set):
        return sorted(obj)
    return obj


def books(policy: AllocationPolicy):
    fsm = policy.fsm
    return (
        state(policy),
        fsm.free_blocks,
        [(g.cursor, g.free.runs()) for g in fsm.groups],
        list(policy.metrics.raw_counters().items()),
        policy.metrics.snapshot(),
        policy.tracer.rows(),
    )


def by_call(policy: AllocationPolicy, rows: list[tuple]) -> list[tuple[list, tuple]]:
    """One ``allocate_many`` call per stop: per call, each row's answer
    and the books after it."""
    cols = tuple(iter(c) for c in zip(*rows))
    out: list[tuple[list, tuple]] = []
    done = 0
    while done < len(rows):
        phys: list[int] = []
        try:
            new = policy.allocate_many(*cols, phys)
        except NoSpaceError:
            new = "enospc"
        answers: list = [("exact", p) for p in phys]
        done += len(phys)
        if new is not None:
            answers.append(new)
            done += 1
        out.append((answers, books(policy)))
        if new is None:
            break
    return out


def by_row(policy: AllocationPolicy, rows: list[tuple], calls: list[list]) -> list:
    """The same rows one ``allocate`` call each, grouped like ``calls``."""
    out = []
    it = iter(rows)
    for answers in calls:
        got: list = []
        for row in (next(it) for _ in answers):
            try:
                new = policy.allocate(*row)
            except NoSpaceError:
                got.append("enospc")
                continue
            got.append(("exact", new[0].physical) if _backs_exactly(new, *row[3:]) else new)
        out.append((got, books(policy)))
    return out


@st.composite
def row_lists(draw):
    """Rows over (file, stream, group) cursors: sequential extends, skipped
    dlocal, jumps elsewhere and repeats of the last row."""
    rows: list[tuple] = []
    cursors: dict[tuple[int, int, int], int] = {}
    for _ in range(draw(st.integers(1, 60))):
        fid, sid, g = draw(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)))
        cursor = cursors.get((fid, sid, g), 8 * sid)
        kind = draw(st.sampled_from(["seq", "seq", "seq", "skip", "jump", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(rows[-1])
            continue
        if kind == "skip":
            cursor += draw(st.integers(1, 6))
        elif kind == "jump":
            cursor = draw(st.integers(0, 400))
        count = draw(st.integers(1, 10))
        rows.append((fid, sid, TARGETS[g], cursor, count))
        cursors[(fid, sid, g)] = cursor + count
    return rows


@pytest.mark.parametrize("name", POLICY_NAMES)
@given(
    rows=row_lists(),
    blocks=st.sampled_from([48, 160, 4096]),
    traced=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_allocate_many_is_the_allocate_loop(name, rows, blocks, traced):
    many = by_call(build(name, blocks, traced), rows)
    loop = by_row(build(name, blocks, traced), rows, [answers for answers, _ in many])
    assert many == loop
    assert sum(len(answers) for answers, _ in many) == len(rows)


def test_in_place_rows_touch_no_free_space():
    """A run of extends inside the current window: one answer per row, and
    neither the free-space books nor a trigger counter move."""
    policy = build("ondemand", 4096, traced=True)
    assert isinstance(policy, OnDemandPolicy)
    t = TARGETS[1]
    # Miss, then promote: the stream owns a current window of 8 blocks.
    policy.allocate(1, 7, t, 0, 4)
    policy.allocate(1, 7, t, 4, 1)
    cw = policy.stream_state(1, 7, 1).current
    assert cw is not None and cw.remaining == 7
    before = policy.metrics.snapshot().counters
    free, traced = policy.fsm.free_blocks, len(policy.tracer.rows())
    phys: list[int] = []
    rows = [(1, 7, t, 5 + k, 1) for k in range(7)]
    assert policy.allocate_many(*zip(*rows), phys) is None
    assert phys == [cw.physical + 1 + k for k in range(7)]
    assert cw.remaining == 0
    assert policy.fsm.free_blocks == free and len(policy.tracer.rows()) == traced
    after = policy.metrics.snapshot().counters
    moved = {k for k in after if after[k] != before.get(k, 0)}
    assert moved == {"alloc.requests", "alloc.cw_hits"}
    assert after["alloc.requests"] - before["alloc.requests"] == 7


def test_no_space_mid_run_keeps_the_rows_before_it():
    """The rows before the failing one took effect and the failing row is
    counted, exactly as the loop leaves it."""
    for name in ("ondemand", "reservation"):
        policy = build(name, 48, traced=False)
        rows = [(1, 0, TARGETS[0], 8 * k, 8) for k in range(8)]
        phys: list[int] = []
        with pytest.raises(NoSpaceError):
            policy.allocate_many(*zip(*rows), phys)
        twin = build(name, 48, traced=False)
        for row in rows[: len(phys)]:
            twin.allocate(*row)
        with pytest.raises(NoSpaceError):
            twin.allocate(*rows[len(phys)])
        assert phys and books(policy) == books(twin)
        assert policy.metrics.count("alloc.requests") == len(phys) + 1
