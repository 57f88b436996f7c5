"""Reproducible random number generation.

All sampling in the package goes through a counter-based Philox generator
keyed by a 64-bit seed plus an optional stream tuple. Identical
(seed, stream) pairs yield identical draws across runs and platforms,
which the experiment harness relies on for byte-for-byte replay. The
algorithm identifier is recorded in output metadata.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

RNG_ALGORITHM = "philox4x64"
#: distinct (shape, seed, stream) blocks fixed_normals keeps
_FIXED_DRAWS = 8


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given seed and stream ids.

    Distinct stream tuples (e.g. per iteration, per worker) give
    independent streams; callers own parallelism by splitting here.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


@lru_cache(maxsize=_FIXED_DRAWS)
def fixed_normals(shape, seed: int, *stream: int) -> np.ndarray:
    """make_rng(seed, *stream).standard_normal(shape), drawn once.

    For callers that reuse one fixed-seed block at every iterate (probe
    grids, the objective's Monte Carlo fallback). The block is read-only
    and memoised for the last _FIXED_DRAWS distinct arguments.
    """
    draws = make_rng(seed, *stream).standard_normal(shape)
    draws.setflags(write=False)
    return draws
