"""Deterministic random number generation.

All stochastic components (workload generators, file-size distributions,
aging churn) draw from generators created here so that every experiment is
reproducible from a single integer seed.  Sub-streams are derived with
``numpy``'s ``SeedSequence.spawn`` semantics via named keys, so adding a new
consumer never perturbs the draws seen by existing ones.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_rng(seed: int, *keys: str | int) -> np.random.Generator:
    """Create an independent generator for a named sub-stream.

    The same ``(seed, keys)`` pair always yields the same stream, and
    distinct key tuples yield statistically independent streams.

    >>> a = derive_rng(1, "workload", 0)
    >>> b = derive_rng(1, "workload", 0)
    >>> float(a.random()) == float(b.random())
    True
    """
    material = [seed & 0xFFFFFFFF]
    for key in keys:
        if isinstance(key, int):
            material.append(key & 0xFFFFFFFF)
        else:
            material.append(zlib.crc32(key.encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(material))
