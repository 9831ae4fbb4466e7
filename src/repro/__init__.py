"""repro — reproduction of "MiF: Mitigating the intra-file Fragmentation in
parallel file system" (Yi, Shu, Lu, Wang & Zheng; ICPP 2011).

The package implements, as a discrete simulation:

- the Redbud block-based parallel file system (striped PAGs, extent maps,
  an MDS with an ext3-style metadata file system, journal, buffer cache);
- MiF's two techniques — **on-demand preallocation** (per-stream
  current/sequential windows) and the **embedded directory** — plus every
  baseline the paper compares against (vanilla, reservation, fallocate,
  delayed allocation; normal directory layout with/without Htree);
- the paper's workloads (shared-file micro-benchmark, IOR2, BTIO,
  Metarates, PostMark, kernel-tree applications, file system aging);
- experiment runners regenerating every table and figure of §V.

Quickstart::

    from repro import redbud_mif_profile, RedbudFileSystem

    fs = RedbudFileSystem(redbud_mif_profile())
    fs.create("/data.odb")
    fs.write("/data.odb", offset=0, nbytes=1 << 20)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.config import (
    AllocPolicyParams,
    CacheParams,
    DiskParams,
    FSConfig,
    MetaParams,
    SchedulerParams,
)
from repro.core.run import RunResult, run
from repro.fs import (
    RedbudFile,
    RedbudFileSystem,
    lustre_profile,
    make_stream_id,
    redbud_mif_profile,
    redbud_vanilla_profile,
)
from repro.obs import (
    NULL_TRACER,
    Histogram,
    HistogramSnapshot,
    NullTracer,
    TraceEvent,
    Tracer,
    format_breakdown,
    to_chrome,
    to_jsonl,
)
from repro.sim.metrics import Metrics, MetricsSnapshot, ThroughputResult

__version__ = "1.1.0"

__all__ = [
    "AllocPolicyParams",
    "CacheParams",
    "DiskParams",
    "FSConfig",
    "Histogram",
    "HistogramSnapshot",
    "MetaParams",
    "Metrics",
    "MetricsSnapshot",
    "NULL_TRACER",
    "NullTracer",
    "RedbudFile",
    "RedbudFileSystem",
    "RunResult",
    "SchedulerParams",
    "ThroughputResult",
    "TraceEvent",
    "Tracer",
    "__version__",
    "format_breakdown",
    "lustre_profile",
    "make_stream_id",
    "redbud_mif_profile",
    "redbud_vanilla_profile",
    "run",
    "to_chrome",
    "to_jsonl",
]
