"""Run the doctest examples embedded in module docstrings."""

import doctest

import pytest

import repro.core.api
import repro.fs.client
import repro.meta.inumber
import repro.rng
import repro.sim.events
import repro.sim.report
import repro.sim.visual
import repro.units
import repro.workloads.filesizes
import repro.workloads.replay

MODULES = [
    repro.units,
    repro.rng,
    repro.sim.events,
    repro.sim.report,
    repro.sim.visual,
    repro.meta.inumber,
    repro.workloads.filesizes,
    repro.workloads.replay,
    repro.fs.client,
    repro.core.api,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
