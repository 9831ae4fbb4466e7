"""Run the doctest examples embedded in module docstrings.

``trace_replay`` is ``examples/trace_replay.py`` and ``client_session``
``examples/client_session.py``."""

import doctest
import sys
from pathlib import Path

import pytest

import repro.meta.inumber
import repro.rng
import repro.sim.events
import repro.sim.report
import repro.units
import repro.workloads.filesizes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
import client_session  # noqa: E402
import trace_replay  # noqa: E402

MODULES = [
    repro.units,
    repro.rng,
    repro.sim.events,
    repro.sim.report,
    repro.meta.inumber,
    repro.workloads.filesizes,
    trace_replay,
    client_session,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
