"""Workload generators reproducing the paper's benchmarks (§V)."""

from repro.workloads.base import (
    FsyncOp,
    MetaOp,
    MetaOpRun,
    ReadOp,
    ReadvOp,
    StreamProgram,
    WriteOp,
    WritevOp,
    drive,
    run_data_phase,
)
from repro.workloads.service import ServiceSpec, ServiceWorkload
from repro.workloads.traces import TraceRecord, synth_checkpoint_trace
from repro.workloads.streams import SharedFileMicrobench
from repro.workloads.listio import StridedAccessBenchmark, TileAccessBenchmark
from repro.workloads.ior import IORBenchmark
from repro.workloads.btio import BTIOBenchmark
from repro.workloads.metarates import MetaratesWorkload
from repro.workloads.fpp import FilePerProcessBench
from repro.workloads.postmark import PostMarkConfig, PostMarkWorkload
from repro.workloads.filesizes import kernel_tree_sizes
from repro.workloads.apps import KernelTree, MakeCleanApp, MakeApp, TarApp
from repro.workloads.aging import age_metadata_fs

__all__ = [
    "WriteOp",
    "ReadOp",
    "WritevOp",
    "ReadvOp",
    "FsyncOp",
    "MetaOp",
    "MetaOpRun",
    "StreamProgram",
    "drive",
    "run_data_phase",
    "ServiceSpec",
    "ServiceWorkload",
    "TraceRecord",
    "synth_checkpoint_trace",
    "SharedFileMicrobench",
    "StridedAccessBenchmark",
    "TileAccessBenchmark",
    "IORBenchmark",
    "BTIOBenchmark",
    "MetaratesWorkload",
    "FilePerProcessBench",
    "PostMarkConfig",
    "PostMarkWorkload",
    "kernel_tree_sizes",
    "KernelTree",
    "MakeCleanApp",
    "MakeApp",
    "TarApp",
    "age_metadata_fs",
]
