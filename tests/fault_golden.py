"""Digests that pin the fault campaign (``repro faults``), independent of
*which* request loop serviced the faulted disks.

``tests/test_fault_golden.py`` compares these against values recorded at
commit f3214f3 — the last commit at which an attached ``FaultInjector``
steered every disk batch onto the per-request object loop and every
metadata op onto the scalar MDS body — so the one column path
(docs/FAULTS.md, "Faults as columns") is held to that campaign's output:
the payload (fault counts, corruptions, both repair results), every phase,
all counters, every histogram's buckets and extrema, and the exported trace
row for row.  The only tolerance is the documented one
(``SimulatedDisk._service_arrays``): the ``disk.positioning_s`` /
``disk.transfer_s`` accumulators and histogram ``total``s, whose array sums
carry last-ulp drift against the per-request fold, are rounded to 12 places.

Run ``PYTHONPATH=src python -m tests.fault_golden`` to print the table
(that is how the recorded values were produced, with ``src`` pointing at
the parent checkout).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json

from repro.core.run import run
from repro.obs.export import to_jsonl

#: (seed, scale).  Scale 0.2 is what CI's fault smoke runs; its workload ends
#: before either seed's crash point, so scale 1.0 pins the crash, the
#: replayed and discarded journal records and four torn writes as well.
CASES = ((0, 0.2), (1, 0.2), (0, 1.0), (1, 1.0))
ROUNDED = ("disk.positioning_s", "disk.transfer_s")


def campaign_document(seed: int, scale: float) -> dict:
    """Everything simulated one traced campaign run produces (floats by
    ``repr`` through ``json``)."""
    result = run("faults", seed=seed, scale=scale, trace=True)
    snap = result.metrics
    buf = io.StringIO()
    to_jsonl(result.trace.events(), buf)
    return {
        "fingerprint": result.fingerprint,
        "payload": dataclasses.asdict(result.payload),
        "phases": {k: dataclasses.asdict(v) for k, v in result.phases.items()},
        "counters": dict(snap.counters),
        "accumulators": {
            k: round(v, 12) if k in ROUNDED else v
            for k, v in snap.accumulators.items()
        },
        "histograms": {
            k: {
                "count": h.count, "total": round(h.total, 12), "zeros": h.zeros,
                "buckets": {str(e): c for e, c in sorted(h.buckets.items())},
                "min": h.minimum, "max": h.maximum,
            }
            for k, h in snap.histograms.items()
        },
        "trace": {
            "emitted": result.trace.emitted,
            "dropped": result.trace.dropped,
            "jsonl": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        },
    }


def campaign_digest(seed: int, scale: float) -> str:
    doc = campaign_document(seed, scale)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    print("CAMPAIGN = {")
    for case in CASES:
        print(f"    {case}: {campaign_digest(*case)!r},")
    print("}")
