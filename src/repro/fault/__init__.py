"""Deterministic fault injection for the simulated file system.

The fault layer sits beneath every disk submit
(:meth:`SimulatedDisk.submit_arrays` / ``submit_one``) and turns a seeded
:class:`~repro.fault.plan.FaultPlan` into latent sector errors, torn
multi-block writes and crash points.  A separate structure-level
:class:`~repro.fault.corrupt.Corruptor` damages file-system state directly
(CrashMonkey / fsck-fuzzing style) to exercise the repair routines in
:mod:`repro.fs.verify`.
"""

from repro.fault.corrupt import Corruptor
from repro.fault.crashimage import CrashedImage, build_crashed_image
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan

__all__ = [
    "Corruptor",
    "CrashedImage",
    "FaultInjector",
    "FaultPlan",
    "build_crashed_image",
]
