"""Deterministic, cross-platform random number generation.

The generator is counter-based splitmix64: output ``i`` of a stream with seed
``c`` is ``mix64(c + (i + 1) * GOLDEN)`` where ``mix64`` is the standard
splitmix64 finalizer.  Because outputs are a pure function of (seed, counter),
bulk draws vectorize over numpy uint64 arrays and every draw is reproducible
bit-for-bit on any platform.  Gaussian variates come from the Box-Muller
transform applied to consecutive uniform pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_bound

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 arrays (wraps mod 2**64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def spawn_seed(seed: int, index: int) -> int:
    """Derive the seed of child stream ``index`` from a base seed.

    Children of distinct (seed, index) pairs are statistically independent
    streams; the rule is fixed so recorded child seeds replay exactly.
    """
    child = mix64(np.array([((index + 1) * _GOLDEN) & _MASK], dtype=np.uint64))
    return int(mix64(np.array([seed & _MASK], dtype=np.uint64) ^ child)[0])


class SplitMix64:
    """A seeded splitmix64 stream with scalar and bulk draw methods."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._count = 0

    def _raw(self, size: int) -> np.ndarray:
        counters = np.arange(self._count + 1, self._count + size + 1, dtype=np.uint64)
        self._count += size
        return mix64(np.uint64(self._seed) + counters * np.uint64(_GOLDEN))

    def uniforms(self, size: int) -> np.ndarray:
        """``size`` uniforms on (0, 1], 53-bit resolution."""
        bits = self._raw(size) >> np.uint64(11)
        return (bits.astype(np.float64) + 1.0) * 2.0**-53

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, size: int) -> np.ndarray:
        """``size`` standard normals via Box-Muller on consecutive uniform pairs."""
        pairs = (size + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(2.0 * math.pi * u2)
        out[1::2] = r * np.sin(2.0 * math.pi * u2)
        return out[:size]

    def integer(self, bound: int) -> int:
        """A uniform integer in ``[0, bound)``."""
        check_bound("bound", bound, 0, strict=True)
        return min(int(self.uniform() * bound), bound - 1)
