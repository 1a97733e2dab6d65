"""Deterministic seed derivation for independent iteration streams.

Per-iteration seeds come from a splitmix64-style mix of (master_seed,
iteration index), so iterations are reproducible independently of each
other and of the language or thread doing the work.
"""

from __future__ import annotations

import numpy as np

from .validate import count

__all__ = ["mix_seed", "rng_for"]

_MASK = (1 << 64) - 1


def mix_seed(master_seed: int, index: int) -> int:
    """64-bit splitmix finalizer over master_seed advanced index+1 times.

    master_seed may be any integer and index any integer >= 0; numpy integers
    mix as the Python int of the same value.
    """
    count("master_seed", master_seed)
    count("index", index, 0)
    z = (int(master_seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def rng_for(seed: int) -> np.random.Generator:
    """The one RNG constructor used everywhere, for reproducibility; seed is
    an integer >= 0."""
    count("seed", seed, 0)
    return np.random.Generator(np.random.PCG64(seed))
