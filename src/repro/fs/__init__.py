"""The Redbud parallel file system: data plane (striped, extent-mapped
files over PAGs) and the stream model."""

from repro.fs.stream import StreamId, make_stream_id, split_stream_id
from repro.fs.file import RedbudFile
from repro.fs.dataplane import DataPlane
from repro.fs.redbud import RedbudFileSystem
from repro.fs.verify import Finding, FsckReport, check_dataplane, check_mds
from repro.fs.profiles import (
    lustre_profile,
    redbud_mif_profile,
    redbud_vanilla_profile,
)

__all__ = [
    "StreamId",
    "make_stream_id",
    "split_stream_id",
    "RedbudFile",
    "DataPlane",
    "RedbudFileSystem",
    "Finding",
    "FsckReport",
    "check_dataplane",
    "check_mds",
    "lustre_profile",
    "redbud_mif_profile",
    "redbud_vanilla_profile",
]
