"""Shared fixtures: small, fast configurations for unit/integration tests."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

# Derandomize property tests on CI so red builds reproduce locally from the
# printed blob; "dev" keeps the default randomized exploration.  "deep"
# (HYPOTHESIS_PROFILE=deep, a CI job of its own) explores randomly with
# DEEP_FACTOR times every test's examples and prints the blob of a failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("dev")
settings.register_profile("deep", print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE") or ("ci" if os.environ.get("CI") else "dev")
settings.load_profile(PROFILE)
DEEP_FACTOR = 5

from repro.config import (
    AllocPolicyParams,
    CacheParams,
    DiskParams,
    FSConfig,
    MetaParams,
    SchedulerParams,
)

#: A tiny disk: 64 MiB (16384 blocks of 4 KiB).
SMALL_BLOCKS = 16384


def pytest_collection_modifyitems(items) -> None:
    """Under "deep", scale each property test's own ``max_examples`` (a
    profile only sets the default that ``@settings`` overrides), and each
    state machine's, whose settings sit on its ``TestCase`` class."""
    if PROFILE != "deep":
        return
    seen = set()
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)  # a method's function
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and id(test) not in seen:
            seen.add(id(test))
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=DEEP_FACTOR * own.max_examples
            )
        machine = getattr(item, "cls", None)
        own = vars(machine).get("settings") if machine is not None else None
        if isinstance(own, settings) and id(machine) not in seen:
            seen.add(id(machine))
            machine.settings = settings(own, max_examples=DEEP_FACTOR * own.max_examples)


@pytest.fixture
def small_disk_params() -> DiskParams:
    return DiskParams(capacity_blocks=SMALL_BLOCKS)


@pytest.fixture
def small_meta_params() -> MetaParams:
    # 4 groups x 2048 blocks, 256 inodes per group, small journal.
    return MetaParams(
        block_groups=4,
        blocks_per_group=2048,
        inodes_per_group=256,
        journal_blocks=128,
        journal_interval_ops=16,
        dir_prealloc_blocks=2,
    )


def small_config(policy: str = "ondemand", layout: str = "embedded", **kw) -> FSConfig:
    """A complete small FSConfig for fast end-to-end tests."""
    return FSConfig(
        name=f"test-{policy}-{layout}",
        ndisks=kw.pop("ndisks", 2),
        stripe_blocks=kw.pop("stripe_blocks", 64),
        pags_per_disk=kw.pop("pags_per_disk", 2),
        disk=DiskParams(capacity_blocks=SMALL_BLOCKS),
        mds_disk=DiskParams(capacity_blocks=SMALL_BLOCKS),
        scheduler=SchedulerParams(),
        cache=CacheParams(capacity_blocks=kw.pop("cache_blocks", 1024)),
        alloc=AllocPolicyParams(policy=policy, **kw.pop("alloc_kw", {})),
        meta=MetaParams(
            layout=layout,
            block_groups=4,
            blocks_per_group=2048,
            inodes_per_group=256,
            journal_blocks=128,
            journal_interval_ops=16,
            dir_prealloc_blocks=2,
            **kw.pop("meta_kw", {}),
        ),
        **kw,
    )


@pytest.fixture
def config() -> FSConfig:
    return small_config()


def columns(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, nblocks)`` or ``(start, nblocks, is_write)`` rows as the
    ``(starts, nblocks, is_write)`` columns ``DiskArray.submit_batch``
    takes; a row without a direction is a read."""
    rows = [(*row, False)[:3] for row in rows]
    return (
        np.array([row[0] for row in rows], dtype=np.int64),
        np.array([row[1] for row in rows], dtype=np.int64),
        np.array([row[2] for row in rows], dtype=bool),
    )


def pairs(requests) -> list[tuple[int, int]]:
    """A data-plane result's ``(starts, nblocks)`` columns as row pairs."""
    starts, nblocks = requests
    return list(zip(starts.tolist(), nblocks.tolist()))
