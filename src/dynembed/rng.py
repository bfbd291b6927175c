"""Seedable, portable random number generator.

All stochastic steps in this package (graph sampling, weight initialization,
shuffling, splits) draw from :class:`Rng`, a counter-based SplitMix64
generator. The algorithm is fully specified here so streams can be reproduced
bit-for-bit on any platform or language:

    state_i = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = state_i
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    out_i = z ^ (z >> 31)

where i counts draws from 0. Doubles in [0, 1) take the top 53 bits:
out_i >> 11, scaled by 2^-53.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0 ** -53


def _mix(z):
    """SplitMix64's output function, in place on the uint64 array z."""
    t = np.right_shift(z, np.uint64(30))
    z ^= t
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


class Rng:
    """Counter-based SplitMix64 stream, deterministic per (seed, draw index)."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._count = 0

    def raw64(self, size: int) -> np.ndarray:
        """Next `size` raw 64-bit outputs."""
        z = np.arange(self._count + 1, self._count + size + 1, dtype=np.uint64)
        self._count += size
        with np.errstate(over="ignore"):
            z *= _GOLDEN
            z += self._seed
            return _mix(z)

    def random(self, size=None):
        """Uniform float64 draws in [0, 1); scalar when size is None."""
        if size is None:
            return float((self.raw64(1)[0] >> np.uint64(11)) * _INV_2_53)
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape))
        z = self.raw64(n)
        z >>= np.uint64(11)
        return np.multiply(z, _INV_2_53).reshape(shape)

    def uniform(self, low: float, high: float, size=None):
        return low + (high - low) * self.random(size)

    def integers(self, n: int, size=None):
        """Uniform integers in [0, n) derived from float draws."""
        if n <= 0:
            raise ValueError("n must be positive")
        out = np.floor(self.random(size if size is not None else 1) * n).astype(np.int64)
        out = np.minimum(out, n - 1)
        if size is None:
            return int(out[0])
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n) via argsort of fresh uniforms."""
        return np.argsort(self.random(n), kind="stable")

    def choice_no_replace(self, pool, k: int) -> np.ndarray:
        """k distinct elements sampled uniformly from pool (order randomized)."""
        pool = np.asarray(pool)
        if k > pool.size:
            raise ValueError(f"cannot draw {k} items from pool of {pool.size}")
        return pool[self.permutation(pool.size)[:k]]
