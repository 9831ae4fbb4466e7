"""MiF's on-demand preallocation (§III).

Per *stream* (client id + thread pid), per target PAG, the allocator keeps:

- a **current window** (cw): contiguous blocks already allocated to the
  stream, logically bound to the stream's dlocal range ("persistently
  preallocated" in the paper — they are committed allocations, not mere
  in-memory hints);
- a **sequential window** (sw): contiguous blocks *temporarily reserved*
  directly after the current window, predicting the stream's next extends.
  No other stream can allocate from an occupied window.

Two triggers (§III.B, Fig. 2):

- ``layout_miss`` — the write lands outside both windows (or is the
  stream's first extend).  Misses are counted; at ``miss_threshold`` the
  stream is classified as random and preallocation turns off for it.
- ``pre_alloc_layout`` — the write lands in the sequential window: the
  stream is sequential, so the sw is promoted to become the cw and a new,
  exponentially larger sw is reserved after it (§III.C:
  ``size = prev * scale``, capped by ``max_preallocation_size``).

Because every stream is handled independently, a sequential stream's
preallocation sequence "interposed by random streams is not interrupted".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.base import AllocationPolicy, AllocTarget, PhysicalRun, _backs_exactly
from repro.alloc.window import Window
from repro.errors import NoSpaceError

#: Trace schemas, ``(layer, op, *attr names)``; the stream is the row's own.
_PRE_ALLOC_LAYOUT = ("alloc", "pre_alloc_layout", "file", "group", "dlocal", "window")
_LAYOUT_MISS = ("alloc", "layout_miss", "file", "group", "dlocal", "misses")
_STREAM_RANDOM = ("alloc", "stream_random", "file", "group", "misses")
_WINDOW_RAMP = ("alloc", "window_ramp", "file", "group", "window")


@dataclass
class StreamState:
    """Per-(file, stream, PAG) allocator state."""

    current: Window | None = None
    sequential: Window | None = None
    misses: int = 0
    prealloc_on: bool = True
    #: Sequential-window size for the *next* reservation (§III.C ramp).
    window_size: int = 0
    #: Physical end of the stream's last allocation: the goal block for the
    #: next miss-path allocation, so one stream's regions chain contiguously
    #: (and just-released window blocks are reused immediately).
    last_end: int | None = field(default=None)


class OnDemandPolicy(AllocationPolicy):
    """Per-stream current/sequential windows with miss-based cut-off."""

    name = "ondemand"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._states: dict[tuple[int, int, int], StreamState] = {}

    # -- public API -----------------------------------------------------------
    def allocate(
        self,
        file_id: int,
        stream_id: int,
        target: AllocTarget,
        dlocal: int,
        count: int,
    ) -> list[PhysicalRun]:
        self._counters["alloc.requests"] += 1
        key = (file_id, stream_id, target.group_index)
        st = self._states.get(key)
        if st is None:
            st = StreamState()
            self._states[key] = st

        runs: list[PhysicalRun] = []
        try:
            self._allocate_loop(key, st, target, dlocal, count, runs)
        except NoSpaceError:
            # Basic exception guarantee: blocks handed out earlier in this
            # call are returned to free space so the caller (which maps no
            # extents on failure) leaks nothing and the books stay balanced.
            for run in runs:
                self.fsm.free(run.physical, run.length)
            if runs:
                self.metrics.incr(
                    "alloc.enospc_rolled_back_blocks", sum(r.length for r in runs)
                )
            raise
        return runs

    def allocate_many(self, file_ids, streams, targets, dstarts, dcounts, out_physical):
        """§III's fast path in place: a row from its stream's consumption
        cursor to inside the current window fires no trigger and makes no
        free-space call, so only the window's cursor moves."""
        states = self._states
        hits = 0
        try:
            for fid, sid, target, ds, dc in zip(file_ids, streams, targets, dstarts, dcounts):
                st = states.get((fid, sid, target.group_index))
                cw = st.current if st is not None else None
                if cw is not None:
                    used = cw.consumed
                    if ds == cw.logical + used and used + dc <= cw.length:
                        physical = cw.physical + used
                        cw.consumed = used + dc
                        st.last_end = physical + dc
                        out_physical.append(physical)
                        hits += 1
                        continue
                new = self.allocate(fid, sid, target, ds, dc)
                if not _backs_exactly(new, ds, dc):
                    return new
                out_physical.append(new[0].physical)
            return None
        finally:
            # A window is only ever consumed from after both keys exist.
            if hits:
                self._counters["alloc.requests"] += hits
                self._counters["alloc.cw_hits"] += hits

    def _allocate_loop(
        self,
        key: tuple[int, int, int],
        st: StreamState,
        target: AllocTarget,
        dlocal: int,
        count: int,
        runs: list[PhysicalRun],
    ) -> None:
        cursor = dlocal
        remaining = count
        counters = self._counters
        while remaining > 0:
            cw, sw = st.current, st.sequential
            if cw is not None and cw.covers(cursor) and cursor >= cw.next_logical:
                # Plain consumption from the current window: no trigger.
                # (Blocks behind the consumption cursor are gone — skipped
                # ranges are released below, so they must never be re-served.)
                if cursor > cw.next_logical:
                    skipped = cursor - cw.next_logical
                    self.fsm.free(cw.next_physical, skipped)
                    counters["alloc.cw_skipped_blocks"] += skipped
                take = min(remaining, cw.logical_end - cursor)
                physical = cw.physical_for(cursor)
                runs.append(PhysicalRun(dlocal=cursor, physical=physical, length=take))
                cw.consume_to(cursor + take)
                st.last_end = physical + take
                cursor += take
                remaining -= take
                counters["alloc.cw_hits"] += 1
            elif st.prealloc_on and sw is not None and sw.covers(cursor):
                # pre_alloc_layout: the stream proved sequential.
                counters["alloc.trigger_prealloc_layout"] += 1
                if self.tracer.enabled:
                    self.tracer.record(
                        _PRE_ALLOC_LAYOUT, None, 0.0, key[1],
                        key[0], target.group_index, cursor, sw.length,
                    )
                self._promote(key, st, target)
            else:
                # layout_miss (also the stream's very first extend).
                counters["alloc.trigger_layout_miss"] += 1
                if self.tracer.enabled:
                    self.tracer.record(
                        _LAYOUT_MISS, None, 0.0, key[1],
                        key[0], target.group_index, cursor, st.misses,
                    )
                took = self._miss(key, st, target, cursor, remaining, runs)
                cursor += took
                remaining -= took

    def release(self, file_id: int) -> int:
        """Release temporary sequential windows (and unconsumed current-
        window tails) of every stream of ``file_id``."""
        released = 0
        for key in [k for k in self._states if k[0] == file_id]:
            st = self._states.pop(key)
            released += self._drop_windows(st)
        if released:
            self.metrics.incr("alloc.windows_released_blocks", released)
        return released

    def stream_state(
        self, file_id: int, stream_id: int, group_index: int
    ) -> StreamState | None:
        """Inspect per-stream allocator state (tests and ablations)."""
        return self._states.get((file_id, stream_id, group_index))

    # -- internals -----------------------------------------------------------
    def _miss(
        self,
        key: tuple[int, int, int],
        st: StreamState,
        target: AllocTarget,
        dlocal: int,
        count: int,
        runs: list[PhysicalRun],
    ) -> int:
        """Handle layout_miss at ``dlocal``; appends runs for ``count``
        blocks and (re)establishes windows.  Returns blocks covered.

        Exception-safe: stale windows are dropped up front (a consistent
        state either way — their blocks go back to free space), but the
        miss count, random classification and ``runs`` are only touched
        after :meth:`_plain_allocate` succeeds, so an out-of-space error
        leaves no partially-applied stream state behind.
        """
        first_extend = st.current is None and st.sequential is None and st.misses == 0
        # Stale windows are abandoned: unconsumed blocks go back to free
        # space (before allocating, so the miss can reuse them).
        self._drop_windows(st)

        # Allocate the written blocks themselves (contiguous best effort),
        # chaining after the stream's previous allocation when it has one.
        # _plain_allocate is atomic: on NoSpaceError nothing was kept, and
        # nothing below this line has run.
        allocated = self._plain_allocate(target, st.last_end, count)

        if not first_extend:
            st.misses += 1
        if st.misses >= self.params.miss_threshold:
            # §III.B: workload recognized as random; preallocation off.
            if st.prealloc_on:
                st.prealloc_on = False
                self.metrics.incr("alloc.streams_turned_random")
                if self.tracer.enabled:
                    self.tracer.record(
                        _STREAM_RANDOM, None, 0.0, key[1], key[0], key[2], st.misses
                    )

        cursor = dlocal
        last_end: int | None = None
        for start, got in allocated:
            runs.append(PhysicalRun(dlocal=cursor, physical=start, length=got))
            cursor += got
            last_end = start + got
        st.last_end = last_end

        # The written blocks are fully consumed, so no current window is
        # kept for them; the sequential window anchors right after the last
        # allocated block, predicting the stream's next extend.
        st.current = None
        if st.prealloc_on and last_end is not None:
            # §III.C initialisation: window = write size * scale.  The ramp
            # restarts at every region jump, so a window never balloons past
            # the stream's observed sequential run (a blanket window would
            # cover dlocal ranges other streams are about to write).
            st.window_size = self._clamp(count * self.params.window_scale)
            self._reserve_sequential(st, target, dlocal + count, last_end)
        return count

    def _promote(
        self, key: tuple[int, int, int], st: StreamState, target: AllocTarget
    ) -> None:
        """sw → cw; reserve a new, ramped sw after it."""
        sw = st.sequential
        assert sw is not None
        # Unconsumed tail of the old current window is trimmed back to free
        # space (the stream has moved past it).
        if st.current is not None and st.current.remaining > 0:
            self.fsm.free(st.current.next_physical, st.current.remaining)
            self.metrics.incr("alloc.cw_trimmed_blocks", st.current.remaining)
        st.current = sw
        st.sequential = None
        # The stream just proved sequential again: decay the miss count so
        # region jumps in an otherwise-sequential workload (e.g. BTIO's
        # strided cell rows) never accumulate to the random cut-off.
        st.misses = 0
        self.metrics.incr("alloc.promotions")
        self.metrics.incr("alloc.prealloc_persistent_blocks", sw.length)
        # §III.C ramp: next reservation is scale times larger, capped.
        st.window_size = self._clamp(max(1, st.window_size) * self.params.window_scale)
        self.metrics.observe("alloc.window_blocks", st.window_size)
        if self.tracer.enabled:
            self.tracer.record(
                _WINDOW_RAMP, None, 0.0, key[1], key[0], key[2], st.window_size
            )
        self._reserve_sequential(st, target, sw.logical_end, sw.physical_end)

    def _reserve_sequential(
        self, st: StreamState, target: AllocTarget, logical: int, phys_hint: int | None
    ) -> None:
        """Reserve a sequential window at ``logical``, near ``phys_hint``."""
        size = max(1, st.window_size)
        try:
            start, got = self.fsm.allocate_in_group(
                target.group_index, size, hint=phys_hint, minimum=1
            )
        except NoSpaceError:
            st.sequential = None
            return
        st.sequential = Window(logical=logical, physical=start, length=got)
        self.metrics.incr("alloc.sw_reservations")
        self.metrics.incr("alloc.sw_reserved_blocks", got)

    def _drop_windows(self, st: StreamState) -> int:
        """Release the sw entirely and the cw's unconsumed tail."""
        released = 0
        if st.sequential is not None:
            self.fsm.free(st.sequential.physical, st.sequential.length)
            released += st.sequential.length
            st.sequential = None
        if st.current is not None:
            if st.current.remaining > 0:
                self.fsm.free(st.current.next_physical, st.current.remaining)
                released += st.current.remaining
            st.current = None
        return released

    def _clamp(self, size: int) -> int:
        return min(size, self.params.max_preallocation_blocks)
