"""Deterministic random streams.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed through a SplitMix64 hash of (seed, task indices), so that
simulations, Monte Carlo replications and bootstrap draws are pure
functions of the user-facing seed.  Every Gaussian draw (the noise of
continuous panels, the bootstrap multipliers and the rows of the count
copula) comes from ``Generator.standard_normal``, which reads the stream
in order: one draw of a + b rows equals a draw of a rows followed by one
of b.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mix_seed", "stream"]

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(*parts: int) -> int:
    """Fold integer task indices into a single 64-bit stream key.

    Distinct tuples map to distinct keys up to the usual 2^-64 collision
    probability; the fold is order sensitive, so (a, b) != (b, a).
    """
    h = 0
    for part in parts:
        h = _splitmix64(h ^ (int(part) & _MASK64))
    return h


def stream(*parts: int) -> np.random.Generator:
    """Independent generator for the task identified by ``parts``."""
    return np.random.Generator(np.random.Philox(key=mix_seed(*parts)))

