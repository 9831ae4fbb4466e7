"""On-demand preallocation: windows, triggers, miss cut-off, ramping (§III)."""

import pytest

from repro.alloc.base import AllocTarget
from repro.alloc.ondemand import OnDemandPolicy
from repro.block.freespace import FreeSpaceManager
from repro.config import AllocPolicyParams


def make_policy(**params) -> OnDemandPolicy:
    fsm = FreeSpaceManager(ndisks=1, blocks_per_disk=65536, pags_per_disk=1)
    defaults = dict(policy="ondemand", window_scale=2, miss_threshold=3)
    defaults.update(params)
    return OnDemandPolicy(AllocPolicyParams(**defaults), fsm)


def target() -> AllocTarget:
    return AllocTarget(group_index=0, slot=0)


FILE = 1


class TestSequentialStream:
    def test_first_extend_initializes_sequential_window(self):
        p = make_policy()
        p.allocate(FILE, 7, target(), dlocal=0, count=4)
        st = p.stream_state(FILE, 7, 0)
        assert st is not None
        assert st.sequential is not None
        # §III.C: window = write size * scale.
        assert st.sequential.length == 8
        assert st.sequential.logical == 4

    def test_sequential_write_hits_window_and_promotes(self):
        p = make_policy()
        p.allocate(FILE, 7, target(), dlocal=0, count=4)
        p.allocate(FILE, 7, target(), dlocal=4, count=4)
        assert p.metrics.count("alloc.trigger_prealloc_layout") == 1
        assert p.metrics.count("alloc.promotions") == 1
        st = p.stream_state(FILE, 7, 0)
        assert st.current is not None  # the promoted window
        assert st.sequential is not None  # the new, ramped window

    def test_window_ramps_exponentially(self):
        p = make_policy(window_scale=2)
        sizes = []
        dlocal = 0
        for _ in range(6):
            p.allocate(FILE, 7, target(), dlocal=dlocal, count=4)
            dlocal += 4
            st = p.stream_state(FILE, 7, 0)
            if st.sequential is not None:
                sizes.append(st.sequential.length)
        # 8 -> 16 -> 32 ... strictly growing until cap.
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_window_capped_at_max(self):
        p = make_policy(max_preallocation_blocks=16)
        dlocal = 0
        for _ in range(10):
            p.allocate(FILE, 7, target(), dlocal=dlocal, count=8)
            dlocal += 8
        st = p.stream_state(FILE, 7, 0)
        assert st.window_size <= 16

    def test_sequential_stream_placement_is_contiguous(self):
        p = make_policy()
        runs = []
        dlocal = 0
        for _ in range(32):
            runs.extend(p.allocate(FILE, 7, target(), dlocal=dlocal, count=4))
            dlocal += 4
        phys = sorted((r.physical, r.length) for r in runs)
        # All 128 blocks must form one contiguous physical range.
        cursor = phys[0][0]
        for start, length in phys:
            assert start == cursor
            cursor = start + length

    def test_scale_four_ramps_faster(self):
        p2 = make_policy(window_scale=2)
        p4 = make_policy(window_scale=4)
        for p in (p2, p4):
            dlocal = 0
            for _ in range(4):
                p.allocate(FILE, 7, target(), dlocal=dlocal, count=4)
                dlocal += 4
        s2 = p2.stream_state(FILE, 7, 0).window_size
        s4 = p4.stream_state(FILE, 7, 0).window_size
        assert s4 > s2


class TestConcurrentStreams:
    def test_streams_do_not_share_windows(self):
        p = make_policy()
        p.allocate(FILE, 1, target(), dlocal=0, count=4)
        p.allocate(FILE, 2, target(), dlocal=1000, count=4)
        st1 = p.stream_state(FILE, 1, 0)
        st2 = p.stream_state(FILE, 2, 0)
        assert st1.sequential.physical != st2.sequential.physical

    def test_per_stream_regions_stay_contiguous_under_interleave(self):
        """The paper's headline property: concurrent streams' regions each
        stay physically contiguous."""
        p = make_policy()
        runs = {1: [], 2: [], 3: []}
        for rnd in range(16):
            for s in (1, 2, 3):
                base = (s - 1) * 1000
                runs[s].extend(
                    p.allocate(FILE, s, target(), dlocal=base + rnd * 4, count=4)
                )
        for s, rs in runs.items():
            spans = sorted((r.physical, r.length) for r in rs)
            breaks = sum(
                1
                for (a, al), (b, _) in zip(spans, spans[1:])
                if b != a + al
            )
            # log2(16 rounds) window jumps at most, not one break per write.
            assert breaks <= 5

    def test_random_stream_does_not_interrupt_sequential_one(self):
        """§III.B: "preallocation sequence of the sequential stream
        interposed by random streams is not interrupted"."""
        p = make_policy(miss_threshold=2)
        import numpy as np
        rng = np.random.default_rng(0)
        seq_runs = []
        dlocal = 0
        for i in range(16):
            seq_runs.extend(p.allocate(FILE, 1, target(), dlocal=dlocal, count=4))
            dlocal += 4
            # Random stream scribbles all over its own huge range.
            p.allocate(FILE, 2, target(), dlocal=int(rng.integers(10_000, 60_000)), count=1)
        st2 = p.stream_state(FILE, 2, 0)
        assert not st2.prealloc_on  # classified random, preallocation off
        spans = sorted((r.physical, r.length) for r in seq_runs)
        breaks = sum(
            1 for (a, al), (b, _) in zip(spans, spans[1:]) if b != a + al
        )
        assert breaks <= 5  # sequential stream's chain survives


class TestMissCutoff:
    def test_random_stream_turns_prealloc_off(self):
        p = make_policy(miss_threshold=3)
        for dlocal in (0, 5000, 10000, 15000, 20000):
            p.allocate(FILE, 9, target(), dlocal=dlocal, count=1)
        st = p.stream_state(FILE, 9, 0)
        assert not st.prealloc_on
        assert p.metrics.count("alloc.streams_turned_random") == 1

    def test_no_reservation_after_cutoff(self):
        p = make_policy(miss_threshold=2)
        for dlocal in (0, 5000, 10000, 15000):
            p.allocate(FILE, 9, target(), dlocal=dlocal, count=1)
        st = p.stream_state(FILE, 9, 0)
        assert st.sequential is None

    def test_promotion_resets_miss_count(self):
        """A stream alternating runs and jumps (BTIO rows) never trips the
        cut-off because every sw hit proves it sequential again."""
        p = make_policy(miss_threshold=3)
        dlocal = 0
        for _ in range(10):  # 10 region jumps, each followed by a seq hit
            p.allocate(FILE, 9, target(), dlocal=dlocal, count=4)
            p.allocate(FILE, 9, target(), dlocal=dlocal + 4, count=4)
            dlocal += 10_000
        st = p.stream_state(FILE, 9, 0)
        assert st.prealloc_on

    def test_first_extend_is_not_a_miss(self):
        p = make_policy(miss_threshold=1)
        p.allocate(FILE, 9, target(), dlocal=0, count=4)
        st = p.stream_state(FILE, 9, 0)
        assert st.misses == 0
        assert st.prealloc_on


class TestRelease:
    def test_release_returns_reserved_blocks(self):
        p = make_policy()
        fsm = p.fsm
        p.allocate(FILE, 7, target(), dlocal=0, count=4)
        free_before = fsm.free_blocks
        released = p.release(FILE)
        assert released == 8  # the initial sequential window
        assert fsm.free_blocks == free_before + 8
        assert p.stream_state(FILE, 7, 0) is None

    def test_release_includes_unconsumed_current_window(self):
        p = make_policy()
        p.allocate(FILE, 7, target(), dlocal=0, count=4)
        p.allocate(FILE, 7, target(), dlocal=4, count=2)  # promote, consume 2 of 8
        st = p.stream_state(FILE, 7, 0)
        expected = st.current.remaining + st.sequential.length
        assert p.release(FILE) == expected

    def test_no_block_leak_over_lifecycle(self):
        p = make_policy()
        fsm = p.fsm
        total = fsm.free_blocks
        allocated = 0
        dlocal = 0
        for _ in range(20):
            for r in p.allocate(FILE, 7, target(), dlocal=dlocal, count=4):
                allocated += r.length
            dlocal += 4
        p.release(FILE)
        # Whatever is not free must be exactly the blocks handed to the file.
        assert fsm.free_blocks == total - allocated


class TestOutOfSpace:
    """ENOSPC must be exception-safe: a failed allocate leaves the stream
    state and the free-space accounting exactly as they were, and a later
    allocate (after space is freed) works normally."""

    def _tiny_policy(self) -> OnDemandPolicy:
        fsm = FreeSpaceManager(ndisks=1, blocks_per_disk=64, pags_per_disk=1)
        return OnDemandPolicy(
            AllocPolicyParams(policy="ondemand", window_scale=2, miss_threshold=3),
            fsm,
        )

    def _fill(self, p: OnDemandPolicy) -> list:
        from repro.errors import NoSpaceError

        runs = []
        dlocal = 0
        while True:
            try:
                for r in p.allocate(2, 1, target(), dlocal=dlocal, count=4):
                    dlocal = r.dlocal + r.length
                    runs.append(r)
            except NoSpaceError:
                return runs

    def test_failed_allocate_rolls_back(self):
        from repro.errors import NoSpaceError

        p = self._tiny_policy()
        self._fill(p)
        used_before = p.fsm.used_blocks
        st_before = p.stream_state(2, 1, 0)
        misses_before = st_before.misses if st_before else 0
        last_end_before = st_before.last_end if st_before else None
        with pytest.raises(NoSpaceError):
            p.allocate(FILE, 7, target(), dlocal=0, count=4)
        assert p.fsm.used_blocks == used_before  # nothing leaked
        st_new = p.stream_state(FILE, 7, 0)
        if st_new is not None:  # entry may exist, but must be pristine
            assert st_new.misses == 0
            assert st_new.current is None and st_new.sequential is None
            assert st_new.last_end is None
        st_after = p.stream_state(2, 1, 0)
        if st_after is not None:
            assert st_after.misses == misses_before
            assert st_after.last_end == last_end_before

    def test_allocate_works_after_space_freed(self):
        from repro.errors import NoSpaceError

        p = self._tiny_policy()
        filler_runs = self._fill(p)
        with pytest.raises(NoSpaceError):
            p.allocate(FILE, 7, target(), dlocal=0, count=4)
        p.release(2)
        for r in filler_runs[:4]:  # delete part of the filler file
            p.fsm.free(r.physical, r.length)
        runs = p.allocate(FILE, 7, target(), dlocal=0, count=4)
        assert sum(r.length for r in runs) == 4

    def test_enospc_rollback_counter(self):
        from repro.errors import NoSpaceError

        p = self._tiny_policy()
        self._fill(p)
        before = p.metrics.count("alloc.enospc_rolled_back_blocks")
        with pytest.raises(NoSpaceError):
            p.allocate(FILE, 7, target(), dlocal=0, count=4)
        assert p.metrics.count("alloc.enospc_rolled_back_blocks") >= before
