"""Simulated clock.

The simulator is *time-driven by devices*: disks advance the clock by the
service time of each request they process, and the metadata server adds
per-operation CPU charges.  There is no global event queue — concurrency
between client streams is modelled by interleaving their requests in arrival
order (exactly the situation in the paper's Figure 1(a)), and each device
accounts busy time on its own timeline.
"""

from __future__ import annotations

from repro.errors import SimulationError


class SimClock:
    """Monotonically advancing simulated time, in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise SimulationError(f"clock cannot start negative: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, when: float) -> float:
        """Advance the clock to absolute time ``when`` (no-op if in the past)."""
        if when > self._now:
            self._now = when
        return self._now

    def reset(self) -> None:
        """Reset the clock to zero (used between experiment phases)."""
        self._now = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"
