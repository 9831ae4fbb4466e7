"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with one clause.  The subtypes mirror the
layers of the system: block layer, allocation policies, metadata service and
file system facade.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration values."""


class NoSpaceError(ReproError):
    """The block layer could not satisfy an allocation request (ENOSPC)."""


class AllocationError(ReproError):
    """An allocation policy violated an invariant (double allocation, etc.)."""


class ExtentError(ReproError):
    """Invalid extent or overlapping logical mapping."""


class MetadataError(ReproError):
    """Base class for metadata-service errors."""


class FileNotFound(MetadataError):
    """Path or inode does not exist (ENOENT)."""


class FileExists(MetadataError):
    """Path already exists (EEXIST)."""


class IsADirectory(MetadataError):
    """Operation requires a regular file but found a directory (EISDIR)."""


class InodeError(MetadataError):
    """Invalid inode number or broken directory-table mapping."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class FaultError(ReproError):
    """Base class for injected faults (the fault layer, not real bugs)."""


class LatentSectorError(FaultError):
    """A read touched a latent sector error (EIO until overwritten)."""


class CrashError(FaultError):
    """The simulated node crashed at an injected crash point."""
