"""Stateful property test: the data plane under random op sequences.

The machine performs random creates, writes (any policy state), reads,
fsyncs, closes, deletes and crash-recoveries, and holds three invariants:

1. fsck stays clean (no double allocation, extents in-bounds, maps valid);
2. written blocks per file match the byte ranges the model wrote;
3. deleting everything returns the file system to its starting occupancy.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.fs.dataplane import DataPlane
from repro.fs.verify import check_dataplane
from repro.units import KiB

from tests.conftest import small_config

_POLICY = st.sampled_from(["vanilla", "reservation", "static", "ondemand", "hybrid"])


class DataPlaneMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.plane = DataPlane(small_config(policy="ondemand"))
        self.initial_free = self.plane.fsm.free_blocks
        self.files: dict[str, set[int]] = {}  # name -> model of written blocks
        self.counter = 0

    # -- rules ----------------------------------------------------------------
    @rule(declared=st.booleans())
    def create(self, declared: bool) -> None:
        name = f"/f{self.counter}"
        self.counter += 1
        self.plane.create_file(
            name, expected_bytes=256 * KiB if declared else None
        )
        self.files[name] = set()

    def _pick(self, data):
        names = sorted(self.files)
        idx = data.draw(st.integers(min_value=0, max_value=len(names) - 1))
        name = names[idx]
        f = next(x for x in self.plane.files() if x.name == name)
        return name, f

    @precondition(lambda self: self.files)
    @rule(
        data=st.data(),
        stream=st.integers(min_value=0, max_value=3),
        block=st.integers(min_value=0, max_value=255),
        nblocks=st.integers(min_value=1, max_value=16),
    )
    def write(self, data, stream: int, block: int, nblocks: int) -> None:
        name, f = self._pick(data)
        starts, lengths = self.plane.write(
            f, stream, block * 4096, nblocks * 4096
        )
        self.files[name] |= set(range(block, block + nblocks))
        assert starts.shape == lengths.shape

    @precondition(lambda self: self.files)
    @rule(data=st.data(), block=st.integers(0, 300), nblocks=st.integers(1, 16))
    def read(self, data, block: int, nblocks: int) -> None:
        name, f = self._pick(data)
        _, lengths = self.plane.read(f, block * 4096, nblocks * 4096)
        covered = int(lengths.sum())
        expected = len(
            self.files[name] & set(range(block, block + nblocks))
        )
        # Reads cover exactly the written intersection (holes are free).
        assert covered == expected

    @precondition(lambda self: self.files)
    @rule(data=st.data())
    def close(self, data) -> None:
        _, f = self._pick(data)
        self.plane.close_file(f)

    @precondition(lambda self: self.files)
    @rule(data=st.data())
    def delete(self, data) -> None:
        name, f = self._pick(data)
        self.plane.close_file(f)
        self.plane.delete_file(f)
        del self.files[name]

    @rule()
    def crash_recover(self) -> None:
        self.plane.crash_recover()

    # -- invariants -----------------------------------------------------------
    @invariant()
    def fsck_clean(self) -> None:
        check_dataplane(self.plane).raise_if_dirty()

    @invariant()
    def written_blocks_match_model(self) -> None:
        for f in self.plane.files():
            assert f.written_blocks == len(self.files[f.name])

    def teardown(self) -> None:
        for f in list(self.plane.files()):
            self.plane.close_file(f)
            self.plane.delete_file(f)
        self.plane.crash_recover()  # drop any surviving reservations
        assert self.plane.fsm.free_blocks == self.initial_free


TestDataPlaneMachine = DataPlaneMachine.TestCase
TestDataPlaneMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
