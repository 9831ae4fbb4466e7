"""Unified runner API: one entry point, one result shape.

Every canned experiment (figure/table runner) registers under a short name
and is invoked as ``run(name, scale=..., seed=..., trace=..., **kwargs)``.
All runners share the calling convention — keyword-only ``scale``, ``seed``
and ``trace`` — and all return a :class:`RunResult`:

- ``phases`` maps phase labels to the :class:`ThroughputResult` each timed
  sub-phase produced, so comparisons across runners need no per-figure
  result spelunking;
- ``metrics`` is the full :class:`MetricsSnapshot` of the run (counters,
  accumulators and latency/size histograms);
- ``payload`` carries the runner's figure-specific dataclass (rows/series
  exactly as the paper reports them);
- ``trace`` holds the :class:`~repro.obs.trace.Tracer` when tracing was
  requested, ready for :func:`repro.obs.to_chrome` / ``to_jsonl`` export.

Execution strategy — ``jobs`` (parallel sweep cells) — never changes a
result, only how fast it is produced, so it does not participate in
fingerprints.

A runner's CLI subcommand is declared beside it as a :class:`RunnerCommand`
row; ``repro.cli`` wires ``repro.core.runners.RUNNER_COMMANDS`` in a loop.
"""

from __future__ import annotations

import argparse
import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError
from repro.obs.layout import LayoutReport
from repro.obs.trace import Tracer
from repro.sim.metrics import MetricsSnapshot, ThroughputResult


def fingerprint(name: str, **kwargs: Any) -> str:
    """Deterministic 12-hex-digit digest of a runner configuration.

    Two runs with the same name and keyword arguments share a fingerprint,
    making results from different processes comparable/cacheable by key.
    """
    parts = [name]
    for key in sorted(kwargs):
        parts.append(f"{key}={kwargs[key]!r}")
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunResult:
    """Uniform outcome of any registered experiment runner."""

    name: str
    fingerprint: str
    phases: dict[str, ThroughputResult] = field(default_factory=dict)
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    payload: Any = None
    trace: Tracer | None = None
    #: Post-run layout reports keyed by capture tag (policy/profile/app),
    #: produced by :class:`~repro.obs.layout.LayoutInspector`.
    layouts: dict[str, LayoutReport] = field(default_factory=dict)

    def phase(self, label: str) -> ThroughputResult:
        try:
            return self.phases[label]
        except KeyError:
            raise KeyError(
                f"run {self.name!r} has no phase {label!r}; "
                f"phases: {sorted(self.phases)}"
            ) from None

    def layout(self, tag: str) -> LayoutReport:
        try:
            return self.layouts[tag]
        except KeyError:
            raise KeyError(
                f"run {self.name!r} has no layout capture {tag!r}; "
                f"captures: {sorted(self.layouts)}"
            ) from None


#: Registry of runner names -> callables returning :class:`RunResult`.
RUNNERS: dict[str, Callable[..., RunResult]] = {}


def register(name: str) -> Callable[[Callable[..., RunResult]], Callable[..., RunResult]]:
    """Register the decorated callable as the runner for ``name``."""

    def deco(fn: Callable[..., RunResult]) -> Callable[..., RunResult]:
        RUNNERS[name] = fn
        return fn

    return deco


def runner_names() -> list[str]:
    """All registered runner names."""
    return sorted(RUNNERS)


def run(
    name: str,
    *,
    scale: float = 1.0,
    jobs: int | None = None,
    config: Any = None,
    seed: int = 0,
    trace: Tracer | bool | None = None,
    **kwargs: Any,
) -> RunResult:
    """Run the registered experiment ``name`` and return its RunResult.

    The unified invocation surface: every runner takes keyword-only
    ``scale``, ``seed`` and ``trace``; ``jobs`` fans sweep cells out over
    worker processes and ``config`` supplies an :class:`~repro.config.FSConfig`
    to runners that accept one — both are forwarded only when set, and
    neither changes a result (or its fingerprint), only how it is produced.

    ``trace=True`` records into a fresh bounded :class:`Tracer` (returned
    as ``result.trace``); passing a Tracer records into it; ``None``/
    ``False`` runs with the zero-overhead null tracer.
    """
    try:
        fn = RUNNERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown runner {name!r}; choose from {sorted(RUNNERS)}"
        ) from None
    if jobs is not None:
        kwargs["jobs"] = jobs
    if config is not None:
        kwargs["config"] = config
    return fn(scale=scale, seed=seed, trace=trace, **kwargs)


# -- declarative runner-backed CLI subcommands --------------------------------

def positive_int(text: str) -> int:
    """``argparse`` type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def positive_float(text: str) -> float:
    """``argparse`` type: a finite float > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text}")
    return value


@dataclass(frozen=True)
class CliOption:
    """One extra ``add_argument`` for a runner command.

    ``forward`` names the runner kwarg the parsed value is passed to
    (``None`` = printer-only option, e.g. an output path).
    """

    flags: tuple[str, ...]
    forward: str | None = None
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunnerCommand:
    """Declarative spec for one runner-backed CLI subcommand."""

    name: str
    help: str
    printer: Callable[[RunResult, argparse.Namespace], int]
    default_scale: float = 1.0
    #: Fixed kwargs the CLI always passes to the runner.
    run_kwargs: dict = field(default_factory=dict)
    options: tuple[CliOption, ...] = ()
