"""Declarative SLO objectives evaluated against telemetry time series.

An :class:`SLObjective` states a service-level promise the way a provider
writes one: *the p99 of ``data.latency_s`` stays at or below 50 ms,
evaluated per 0.5 s compliance window, with 5% of windows allowed to
violate*.  :func:`evaluate` checks a set of objectives against a
:class:`~repro.obs.timeseries.TimeSeriesSnapshot` and produces an
error-budget burn-rate report with a machine-readable pass/fail verdict —
what a CI gate or a provisioning sweep consumes.

The compact spec grammar (CLI-friendly, one objective per token):

``SERIES:pP<=THRESHOLD[:wSECONDS][:bFRACTION]``

- ``SERIES`` — a histogram series name in the time series
  (``data.latency_s``, ``meta.latency_s``, ``data.queue_depth``, …);
- ``pP`` — the target percentile (``p50``, ``p99``, ``p99.9``);
- ``THRESHOLD`` — the upper bound the percentile must satisfy;
- ``wSECONDS`` — compliance window in simulated seconds (default: one
  telemetry window);
- ``bFRACTION`` — error budget: the fraction of compliance windows allowed
  to violate before the objective fails (default 0.05).

Evaluation merges the series' log2 histograms across each compliance
window (exact bucket addition — see :meth:`~repro.obs.timeseries.
TimeSeriesSnapshot.merged`), takes the percentile, and counts violating
windows; windows with no samples are vacuously compliant and excluded.
The **burn rate** is the observed bad-window fraction divided by the
budget — 0.0 is a quiet run, 1.0 means the budget is exactly spent, and
anything above 1.0 fails the objective.

Everything here is a frozen dataclass: picklable (sweep cells carry
reports across process boundaries) and comparable (the determinism tests
assert report equality across job counts).  Like the rest of
:mod:`repro.obs`, this module imports nothing from the simulator.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from dataclasses import dataclass

from repro.obs.timeseries import TimeSeriesSnapshot

__all__ = [
    "DEFAULT_OBJECTIVES",
    "ObjectiveResult",
    "SLObjective",
    "SLOReport",
    "evaluate",
    "parse_objective",
    "resolve_objectives",
]


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective over a histogram series."""

    series: str                #: histogram series name, e.g. "data.latency_s"
    percentile: float          #: target percentile in (0, 100]
    threshold: float           #: upper bound the percentile must satisfy
    window_s: float | None = None  #: compliance window (None = one telemetry window)
    budget: float = 0.05       #: allowed violating fraction of windows

    def __post_init__(self) -> None:
        if not self.series:
            raise ValueError("objective series name must be non-empty")
        if not (0.0 < self.percentile <= 100.0):
            raise ValueError(f"percentile must be in (0, 100]: {self.percentile}")
        if not (0.0 <= self.threshold < math.inf):
            raise ValueError(
                f"threshold must be finite and non-negative: {self.threshold}"
            )
        if self.window_s is not None and not (0.0 < self.window_s < math.inf):
            raise ValueError(
                f"compliance window must be finite and positive: {self.window_s}"
            )
        if not (0.0 < self.budget <= 1.0):
            raise ValueError(f"error budget must be in (0, 1]: {self.budget}")

    @property
    def name(self) -> str:
        """Canonical spec string (parses back to an equal objective)."""
        text = f"{self.series}:p{self.percentile:g}<={self.threshold:g}"
        if self.window_s is not None:
            text += f":w{self.window_s:g}"
        if self.budget != 0.05:
            text += f":b{self.budget:g}"
        return text


_SPEC_RE = re.compile(
    r"^(?P<series>[^:]+):p(?P<pct>[0-9.]+)<=(?P<threshold>[^:]+)"
    r"(?P<opts>(?::[wb][0-9.eE+-]+)*)$"
)


def parse_objective(text: str) -> SLObjective:
    """Parse one ``SERIES:pP<=THRESHOLD[:wS][:bF]`` spec string."""
    m = _SPEC_RE.match(text.strip())
    if m is None:
        raise ValueError(
            f"malformed SLO spec {text!r}; expected "
            "SERIES:pP<=THRESHOLD[:wSECONDS][:bFRACTION] "
            "(e.g. data.latency_s:p99<=0.05:w0.5:b0.05)"
        )
    window_s: float | None = None
    budget = 0.05
    for opt in m.group("opts").split(":"):
        if not opt:
            continue
        if opt[0] == "w":
            window_s = float(opt[1:])
        else:
            budget = float(opt[1:])
    try:
        return SLObjective(
            series=m.group("series"),
            percentile=float(m.group("pct")),
            threshold=float(m.group("threshold")),
            window_s=window_s,
            budget=budget,
        )
    except ValueError as exc:
        raise ValueError(f"invalid SLO spec {text!r}: {exc}") from None


#: Out-of-the-box objectives for the open-loop service mode: generous tail
#: bounds that hold at feasible operating points (saturation < 1) and trip
#: when the queue starts growing without bound.
DEFAULT_OBJECTIVES: tuple[str, ...] = (
    "data.latency_s:p99<=0.25",
    "meta.latency_s:p99<=0.1",
)


def resolve_objectives(
    slo: bool | str | SLObjective | Iterable[str | SLObjective] | None,
) -> tuple[SLObjective, ...] | None:
    """Normalize a runner's ``slo=`` argument into parsed objectives.

    ``None``/``False`` → no SLO evaluation; ``True`` or ``"default"`` →
    :data:`DEFAULT_OBJECTIVES`; a spec string (comma-separated for several)
    or an iterable of specs/objectives → parsed as given.
    """
    if slo is None or slo is False:
        return None
    if slo is True or slo == "default":
        return tuple(parse_objective(s) for s in DEFAULT_OBJECTIVES)
    if isinstance(slo, SLObjective):
        return (slo,)
    if isinstance(slo, str):
        specs: Iterable[str | SLObjective] = [
            s for s in (part.strip() for part in slo.split(",")) if s
        ]
    else:
        specs = slo
    out = tuple(
        s if isinstance(s, SLObjective) else parse_objective(s) for s in specs
    )
    return out or None


@dataclass(frozen=True)
class ObjectiveResult:
    """One objective's outcome against one time series."""

    objective: SLObjective
    windows: int           #: compliance windows with samples
    bad_windows: int       #: windows whose percentile exceeded the threshold
    worst: float           #: worst per-window percentile observed
    burn_rate: float       #: bad-window fraction / error budget

    @property
    def compliance(self) -> float:
        """Fraction of evaluated windows that met the objective."""
        return 1.0 - self.bad_windows / self.windows if self.windows else 1.0

    @property
    def passed(self) -> bool:
        return self.burn_rate <= 1.0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "objective": self.objective.name,
            "series": self.objective.series,
            "percentile": self.objective.percentile,
            "threshold": self.objective.threshold,
            "budget": self.objective.budget,
            "windows": self.windows,
            "bad_windows": self.bad_windows,
            "worst": self.worst,
            "compliance": self.compliance,
            "burn_rate": self.burn_rate,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class SLOReport:
    """All objectives' outcomes; the overall verdict is the AND."""

    results: tuple[ObjectiveResult, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "objectives": [r.to_dict() for r in self.results],
        }


def _evaluate_one(ts: TimeSeriesSnapshot, obj: SLObjective) -> ObjectiveResult:
    if obj.window_s is None:
        span = 1
    else:
        span = max(1, math.ceil(obj.window_s / ts.window_s))
    windows = 0
    bad = 0
    worst = 0.0
    for start in range(0, len(ts.frames), span):
        merged = ts.merged(obj.series, start, start + span)
        if merged.count == 0:
            continue  # no samples: vacuously compliant, not counted
        value = merged.percentile(obj.percentile)
        windows += 1
        if value > worst:
            worst = value
        if value > obj.threshold:
            bad += 1
    burn = (bad / windows) / obj.budget if windows else 0.0
    return ObjectiveResult(
        objective=obj, windows=windows, bad_windows=bad, worst=worst,
        burn_rate=burn,
    )


def evaluate(
    ts: TimeSeriesSnapshot,
    objectives: Iterable[SLObjective | str],
) -> SLOReport:
    """Evaluate objectives (parsed or spec strings) against a time series."""
    parsed = tuple(
        o if isinstance(o, SLObjective) else parse_objective(o)
        for o in objectives
    )
    return SLOReport(results=tuple(_evaluate_one(ts, o) for o in parsed))
