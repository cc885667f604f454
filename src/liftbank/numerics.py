"""Dense float64 numerics: deterministic RNG, finite-difference oracle, padding.

Arrays throughout the package are plain numpy ``float64`` ndarrays in C
(row-major) order. 64-bit is the canonical precision: every gradient check
and every reconstruction bound in the test suite is stated for it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Rng",
    "finite_difference_gradient",
    "pad_to_multiple",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


class Rng:
    """SplitMix64 pseudo-random stream (Steele, Lea and Flood, 2014).

    The update rule is fixed-width integer arithmetic modulo 2**64, so a
    given seed yields bit-identical output on every platform and with every
    numpy version. Statistically adequate for parameter initialization and
    data synthesis, and trivially reproducible.
    """

    def __init__(self, seed):
        self._state = int(seed) & _U64_MASK

    def raw(self, n):
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + idx * _GAMMA
        self._state = (self._state + n * int(_GAMMA)) & _U64_MASK
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniform(self, shape, lo=0.0, hi=1.0):
        """Array of the given shape, elements in [lo, hi)."""
        shape = tuple(int(d) for d in np.atleast_1d(shape))
        n = int(np.prod(shape)) if shape else 1
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        out = lo + u * (hi - lo)
        # float rounding could bump lo + u*(hi-lo) onto hi; keep the interval open
        np.minimum(out, np.nextafter(hi, -np.inf), out=out)
        return out.reshape(shape)

    def normal(self, shape):
        """Standard normal samples via Box-Muller on the uniform stream."""
        shape = tuple(int(d) for d in np.atleast_1d(shape))
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = ((self.raw(m) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV_2_53
        u2 = (self.raw(m) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return z[:n].reshape(shape)

    def permutation(self, n):
        """Deterministic permutation of range(n)."""
        return np.argsort(self.raw(int(n)), kind="stable")

    def fork(self):
        """Independent child stream seeded from this one."""
        return Rng(int(self.raw(1)[0]))


def finite_difference_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar objective.

    g[i] = (f(x + h*e_i) - f(x - h*e_i)) / (2h). The O(h^2) truncation error
    of central differences is what makes the package-wide 1e-4 relative
    tolerance on analytic gradients honest.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += h
        fp = float(f(xp))
        xp[idx] -= 2.0 * h
        fm = float(f(xp))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("objective not finite")
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def pad_to_multiple(x, m):
    """Zero-pad the last axis up to the next multiple of ``m``.

    Returns (padded, original_length); callers truncate back to the original
    length after an inverse transform.
    """
    if m < 1:
        raise ValueError("multiple must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    length = x.shape[-1]
    target = ((length + m - 1) // m) * m
    if target == length:
        return x, length
    pad = [(0, 0)] * (x.ndim - 1) + [(0, target - length)]
    return np.pad(x, pad), length
