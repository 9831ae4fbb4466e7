"""Digests that pin the trace of a cell-based sweep at ``jobs=1``,
independent of *whose ring* the cells recorded into.

``tests/test_sweep_trace.py`` compares these against values recorded at
commit 810d797 — the last commit at which every cell of a traced sweep
borrowed the run's one tracer (and a traced sweep therefore always took the
serial in-process driver) — so the per-cell rings merged in submission order
(``repro.core.sweep``) are held to the shared ring's event stream, row for
row, with the same lifetime and eviction counts.  (``service-sampled`` was
re-recorded at ISSUE 23 step A, when the arrival draws were re-keyed;
``fig10`` was recorded at e0ad66e, where it replaced the deleted
``fig_cache`` case as the traced sweep that drives one ``MetaOp`` per
call.)

Run ``PYTHONPATH=src python -m tests.sweep_golden`` to print the table (that
is how the recorded values were produced, with ``src`` pointing at the
checkout being recorded) and ``... --check`` to compare it with the recorded
one instead: a per-id diff and exit status 1 on any mismatch.
"""

from __future__ import annotations

import hashlib
import io

from repro.core.run import run
from repro.obs.export import to_jsonl
from repro.obs.trace import SamplingTracer, Tracer

#: A ring no case overflows, and one every full-``Tracer`` case does.
ROOMY, TIGHT = 1 << 20, 997

#: case id -> (runner, kwargs, tracer factory taking a capacity).  Smoke
#: sizes; every case has at least two cells, so ``jobs=2`` uses the pool.
CASES = {
    "fig6a": ("fig6a", dict(
        scale=0.05, stream_counts=(8, 16), policies=("reservation", "ondemand"),
    ), Tracer),
    "fig8": ("fig8", dict(scale=0.04, dir_sizes=(200,)), Tracer),
    "fig_listio": ("fig_listio", dict(scale=0.05), Tracer),
    "service-sampled": ("service", dict(
        streams=2000, rates=("small", "medium"), duration="short",
    ), lambda capacity: SamplingTracer(every=50, capacity=capacity)),
    "fig7": ("fig7", dict(scale=0.05, ndisks=4), Tracer),
    "fig10": ("fig10", dict(scale=0.1), Tracer),
}


def traced_run(case: str, capacity: int, jobs: int):
    """Run ``case`` under a fresh tracer of that capacity."""
    runner, kwargs, make_tracer = CASES[case]
    return run(runner, seed=0, trace=make_tracer(capacity), jobs=jobs, **kwargs)


def trace_digest(tracer) -> tuple[str, int, int]:
    """``(sha256 of the JSONL export, emitted, dropped)`` of one tracer."""
    buf = io.StringIO()
    to_jsonl(tracer.events(), buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return digest, tracer.emitted, tracer.dropped


def tables() -> dict[str, dict]:
    """The golden table of ``tests/test_sweep_trace.py``, computed now."""
    return {
        "GOLDEN": {
            (case, capacity): trace_digest(traced_run(case, capacity, jobs=1).trace)
            for case in CASES for capacity in (ROOMY, TIGHT)
        },
    }


if __name__ == "__main__":
    import sys

    from tests import test_sweep_trace
    from tests.golden import main

    sys.exit(main(tables(), test_sweep_trace, sys.argv[1:]))
