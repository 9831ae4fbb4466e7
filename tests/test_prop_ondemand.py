"""Property-based tests for on-demand preallocation (§III).

Core invariants under arbitrary interleavings of stream writes:

1. **Exact coverage** — the returned runs back exactly the requested dlocal
   range, each block once.
2. **No double allocation** — no physical block is handed to two requests.
3. **Conservation** — free + handed out + reserved-in-windows == total.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.base import AllocTarget
from repro.alloc.ondemand import OnDemandPolicy
from repro.block.freespace import FreeSpaceManager
from repro.config import AllocPolicyParams


def make_policy(scale=2, threshold=3) -> OnDemandPolicy:
    fsm = FreeSpaceManager(ndisks=1, blocks_per_disk=16384, pags_per_disk=1)
    return OnDemandPolicy(
        AllocPolicyParams(
            policy="ondemand",
            window_scale=scale,
            miss_threshold=threshold,
            max_preallocation_blocks=128,
        ),
        fsm,
    )


TARGET = AllocTarget(group_index=0, slot=0)


@st.composite
def write_schedules(draw):
    """Per-stream sequential cursors, interleaved in random order; some
    streams also jump to random positions (mixed sequential/random)."""
    nstreams = draw(st.integers(min_value=1, max_value=4))
    ops = []
    cursors = {s: s * 2000 for s in range(nstreams)}
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        s = draw(st.integers(min_value=0, max_value=nstreams - 1))
        if draw(st.booleans()):
            count = draw(st.integers(min_value=1, max_value=8))
            ops.append((s, cursors[s], count))
            cursors[s] += count
        else:
            jump = draw(st.integers(min_value=0, max_value=15_000))
            count = draw(st.integers(min_value=1, max_value=4))
            ops.append((s, jump, count))
            # Sequential cursor unaffected: the jump models a stray write.
    return ops


@given(write_schedules())
@settings(max_examples=120, deadline=None)
def test_runs_cover_request_exactly_once(ops):
    policy = make_policy()
    file_id = 1
    claimed: dict[int, set[int]] = {}
    for stream, dlocal, count in ops:
        # Skip requests overlapping already-mapped dlocal (the file system
        # only asks the policy for holes).
        blocks = set(range(dlocal, dlocal + count))
        mapped = claimed.setdefault(stream, set())
        all_mapped = set().union(*claimed.values()) if claimed else set()
        if blocks & all_mapped:
            continue
        runs = policy.allocate(file_id, stream, TARGET, dlocal, count)
        got = sorted(
            b
            for r in runs
            if not r.unwritten
            for b in range(r.dlocal, r.dlocal + r.length)
        )
        assert got == sorted(blocks)
        mapped |= blocks
        for s2 in claimed:
            if s2 != stream:
                assert not (claimed[s2] & blocks)
        claimed[stream] = mapped


@given(write_schedules())
@settings(max_examples=120, deadline=None)
def test_no_physical_double_allocation_and_conservation(ops):
    policy = make_policy()
    fsm = policy.fsm
    total = fsm.free_blocks
    handed: set[int] = set()
    seen_dlocal: set[int] = set()
    for stream, dlocal, count in ops:
        blocks = set(range(dlocal, dlocal + count))
        if blocks & seen_dlocal:
            continue
        seen_dlocal |= blocks
        for r in policy.allocate(1, stream, TARGET, dlocal, count):
            phys = set(range(r.physical, r.physical + r.length))
            assert not phys & handed, "physical block handed out twice"
            handed |= phys
    # Everything not free is either handed to the file or parked in windows.
    released = policy.release(1)
    assert fsm.free_blocks == total - len(handed)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=60, deadline=None)
def test_pure_sequential_stream_is_contiguous(scale, threshold, writes):
    policy = make_policy(scale=scale, threshold=threshold)
    runs = []
    dlocal = 0
    for _ in range(writes):
        runs.extend(policy.allocate(1, 7, TARGET, dlocal, 4))
        dlocal += 4
    spans = sorted((r.physical, r.length) for r in runs)
    cursor = spans[0][0]
    for start, length in spans:
        assert start == cursor
        cursor = start + length
