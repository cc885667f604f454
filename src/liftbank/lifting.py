"""Invertible lifting-scheme filterbank.

A waveform is split into even/odd polyphase branches, run through a stack of
additive coupling stages (each preceded by an invertible reshape that trades
time for channels), and merged into a channels-by-frames feature. Every step
has an exact structural inverse, so the analysis/synthesis pair reconstructs
perfectly no matter what the predictor blocks compute, and the synthesis path
reuses the analysis parameters.

With the defaults (6 stages, 4 base channels) the feature is
``(256, T / 64)`` and carries exactly 4 * T numbers. Its upper half is the top
stage's predicted branch; a caller that discards it skips that predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .layers import Conv1d, Module, grid_valid, leaky_relu, leaky_relu_grad, to_grid
from .numerics import Rng

__all__ = [
    "BlockSpec",
    "LiftingConfig",
    "split",
    "split_inverse",
    "invertible_downsample",
    "invertible_upsample",
    "coupling_forward",
    "coupling_inverse",
    "CouplingBlock",
    "LiftingTransform",
]


@dataclass(frozen=True)
class BlockSpec:
    """Layer list of one coupling predictor: conv kernels plus activation."""

    kernel_sizes: tuple = (3, 3)
    leaky_slope: float = 0.2
    spectral_norm: bool = False

    def __post_init__(self):
        if len(self.kernel_sizes) < 1:
            raise ValueError("block needs at least one convolution")
        for k in self.kernel_sizes:
            if k % 2 == 0 or k < 1:
                raise ValueError("block kernel sizes must be odd and positive")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError("leaky ReLU slope must lie in (0, 1)")


@dataclass(frozen=True)
class LiftingConfig:
    """Structure of the transform.

    num_stages: number of coupling stages (time decimation is 2**num_stages).
    base_channels: branch channels at stage 1; stage j holds
        base_channels * 2**(j-1).
    linear_variant: strip biases and activations from every predictor, making
        the whole transform linear (the "no bias" configuration).
    """

    num_stages: int = 6
    base_channels: int = 4
    block: BlockSpec = field(default_factory=BlockSpec)
    linear_variant: bool = False

    def __post_init__(self):
        if self.num_stages < 1:
            raise ValueError("need at least one lifting stage")
        if self.base_channels < 1:
            raise ValueError("need at least one branch channel")

    def channels(self, stage):
        """Branch channel count at a 1-based stage index."""
        return self.base_channels * (2 ** (stage - 1))

    @property
    def merged_channels(self):
        return 2 * self.channels(self.num_stages)

    @property
    def time_divisor(self):
        return 2 ** self.num_stages


# ---------------------------------------------------------------------------
# structural (parameter-free) operators
# ---------------------------------------------------------------------------

def split(x, n_channels):
    """Polyphase split of (..., T) into two (n_channels, ..., T/2) branches.

    Branches use the transform's channels-first (C, ..., L) layout. It is the
    first invertible down-sample, zero-padded: channel 0 of branch a holds the
    even-index samples, channel 0 of branch b the odd-index samples; the other
    channels give the couplings room to work in.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2 or x.shape[-1] % 2 != 0:
        raise ValueError("length not even")
    phases = invertible_downsample(x[None])         # (2, ..., T/2): even, odd
    a = np.zeros((int(n_channels),) + phases.shape[1:])
    b = np.zeros_like(a)
    a[0], b[0] = phases
    return a, b


def split_inverse(a, b):
    """Up-sample channel 0 of two (C, ..., L) branches into a (..., 2L) waveform."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"branch shapes differ: {a.shape} vs {b.shape}")
    return invertible_upsample(np.stack([a[0], b[0]]))[0]


def invertible_downsample(x):
    """Lossless reshape (C, ..., L) -> (2C, ..., L/2).

    out[2c][..., t] = x[c][..., 2t] and out[2c+1][..., t] = x[c][..., 2t+1];
    no arithmetic.
    """
    x = np.asarray(x, dtype=np.float64)
    c, mid, length = x.shape[0], x.shape[1:-1], x.shape[-1]
    if length % 2 != 0:
        raise ValueError("time length must be even to down-sample")
    y = np.moveaxis(x.reshape((c,) + mid + (length // 2, 2)), -1, 1)
    return np.ascontiguousarray(y).reshape((2 * c,) + mid + (length // 2,))


def invertible_upsample(x):
    """Exact inverse of invertible_downsample: (2C, ..., L) -> (C, ..., 2L)."""
    x = np.asarray(x, dtype=np.float64)
    c2, mid, length = x.shape[0], x.shape[1:-1], x.shape[-1]
    if c2 % 2 != 0:
        raise ValueError("channel count must be even to up-sample")
    # one strided write per parity: a copy whose innermost axis is the
    # length-2 interleave runs several times slower
    y = np.empty((c2 // 2,) + mid + (length, 2))
    y[..., 0] = x[0::2]
    y[..., 1] = x[1::2]
    return y.reshape((c2 // 2,) + mid + (2 * length,))


def coupling_forward(a, b, predictor):
    """Additive coupling step: (a, b) -> (b, a + predictor(b)).

    Layout-agnostic; the transform calls it on (C, B, L) branches.
    """
    t = predictor(b)
    if np.shape(t) != np.shape(b):
        raise ValueError(f"predictor changed shape {np.shape(b)} -> {np.shape(t)}")
    return b, a + t


def coupling_inverse(a, b, predictor):
    """Inverse coupling step, using the same predictor evaluation rule."""
    t = predictor(a)
    if np.shape(t) != np.shape(a):
        raise ValueError(f"predictor changed shape {np.shape(a)} -> {np.shape(t)}")
    return b - t, a


# ---------------------------------------------------------------------------
# predictor blocks and the full transform
# ---------------------------------------------------------------------------

class CouplingBlock(Module):
    """Shape-preserving conv stack used as one stage's lifting predictor.

    Maps channels-first (C, B, L) to (C, B, L), the transform's internal
    layout. The input is copied once onto a zero-padded grid
    (C, B, L + 2P), P the widest conv's half-width; every conv and leaky
    ReLU then reads and writes that layout (see ``layers.to_grid``), and the
    output is a view of the last grid's signal columns. The leaky ReLU runs
    in place on the whole grid, whose zero pad columns stay zero both ways.
    The cache is the list of the convs' input grids; the leaky ReLU backward
    reads the sign of the next conv's input grid.
    """

    def __init__(self, channels, spec, linear, rng):
        self.convs = [
            Conv1d(channels, channels, k, bias=not linear,
                   spectral_norm=spec.spectral_norm, rng=rng)
            for k in spec.kernel_sizes
        ]
        self.slope = None if linear else float(spec.leaky_slope)
        self.pad = max(spec.kernel_sizes) // 2

    def forward(self, x):
        grid = to_grid(x, self.pad)
        cache = []
        for i, conv in enumerate(self.convs):
            out = conv.forward_grid(grid, self.pad)
            cache.append(grid)
            if self.slope is not None and i < len(self.convs) - 1:
                leaky_relu(out, self.slope, out)
            grid = out
        return grid_valid(grid, self.pad), cache

    def backward(self, cache, grad_out):
        grad = to_grid(grad_out, self.pad)
        activated = None      # the next conv's input grid
        for conv, grid in zip(self.convs[::-1], cache[::-1]):
            if self.slope is not None and activated is not None:
                leaky_relu_grad(grad, activated, self.slope, grad)
            grad = conv.backward_grid(grid, grad, self.pad)
            activated = grid
        return grid_valid(grad, self.pad)

    def parts(self):
        return [(f"conv{i}", conv) for i, conv in enumerate(self.convs)]


class LiftingTransform(Module):
    """The trainable invertible analysis/synthesis filterbank pair.

    Public arrays are channels-second, ``(..., T)`` waveforms in and
    ``(..., C, M)`` features out; internally branches live in a channels-first
    (C, B, L) layout so the predictors avoid data transposes.
    """

    prefix = "lifting"

    def __init__(self, config=None, rng=None):
        self.config = config if config is not None else LiftingConfig()
        rng = rng if rng is not None else Rng(0)
        self.blocks = [
            CouplingBlock(self.config.channels(j), self.config.block,
                          self.config.linear_variant, rng)
            for j in range(1, self.config.num_stages + 1)
        ]

    def parts(self):
        return [(f"stage{j}", block) for j, block in enumerate(self.blocks, start=1)]

    # -- shape helpers ----------------------------------------------------

    def _merge(self, a, b, lead):
        """(C, B, M) branches -> (..., 2C, M) channels-second feature."""
        phi = np.ascontiguousarray(np.moveaxis(np.concatenate([a, b], axis=0), 0, 1))
        return phi.reshape(lead + phi.shape[1:])

    def _unmerge(self, phi):
        """(..., 2C, M) feature -> (C, B, M) branch views and the lead shape."""
        phi = np.asarray(phi, dtype=np.float64)
        c = phi.shape[-2]
        if c != self.config.merged_channels:
            raise ValueError(
                f"feature has {c} channels, transform expects {self.config.merged_channels}")
        pb = phi.reshape((-1,) + phi.shape[-2:])
        phi_cf = np.ascontiguousarray(np.moveaxis(pb, 1, 0))
        return phi_cf[:c // 2], phi_cf[c // 2:], phi.shape[:-2]

    # -- stage walks --------------------------------------------------------
    # The transpose of an additive coupling is again an additive coupling,
    # with the predictor's VJP in place of the predictor, so each VJP is the
    # other direction's walk: down (split, stages 1..J, merge) is analysis
    # and the synthesis VJP, up (unmerge, stages J..1, interleave) synthesis
    # and the analysis VJP. Parameter gradients accumulate into the conv
    # Parameters, so both VJPs of one step add up in the shared predictors.

    def _walk_down(self, x, couple, predictors):
        x = np.asarray(x, dtype=np.float64)
        t, div = x.shape[-1], self.config.time_divisor
        if t % div != 0 or t == 0:
            raise ValueError(f"input length {t} must be a positive multiple of {div}")
        a, b = split(x.reshape(-1, x.shape[-1]), self.config.base_channels)
        for j, predict in enumerate(predictors, start=1):
            if j >= 2:
                a, b = invertible_downsample(a), invertible_downsample(b)
            a, b = (b, np.zeros_like(a)) if predict is None else couple(a, b, predict)
        return self._merge(a, b, x.shape[:-1])

    def _walk_up(self, phi, couple, predictors):
        a, b, lead = self._unmerge(phi)
        for j, predict in zip(range(len(predictors), 0, -1), predictors[::-1]):
            a, b = (b, a) if predict is None else couple(a, b, predict)
            if j >= 2:
                a, b = invertible_upsample(a), invertible_upsample(b)
        x = split_inverse(a, b)
        return x.reshape(lead + x.shape[1:])

    @staticmethod
    def _predict(block, caches, v):
        y, cache = block.forward(v)
        if caches is not None:
            caches.append(cache)
        return y

    def _predictors(self, caches, discard_top=False):
        """The blocks as coupling predictors; each evaluation's layer caches
        go on ``caches``, or nowhere when it is None (inference)."""
        predictors = [partial(self._predict, block, caches) for block in self.blocks]
        return predictors[:-1] + [None] if discard_top else predictors

    # -- forward / inverse ------------------------------------------------

    def forward_with_cache(self, x, discard_top=False):
        """Feature plus the per-stage predictor caches the VJPs need. With
        ``discard_top`` the upper half, stage J's b' = a + F_J(b), is left at
        zero for a caller that discards it: F_J does not run, stage J's cache is None."""
        caches = []
        phi = self._walk_down(x, coupling_forward, self._predictors(caches, discard_top))
        return phi, caches + [None] if discard_top else caches

    def forward(self, x, discard_top=False):
        return self._walk_down(x, coupling_forward, self._predictors(None, discard_top))

    def inverse_with_cache(self, phi):
        """Waveform plus the per-stage predictor caches, indexed by stage."""
        caches = []
        return self._walk_up(phi, coupling_inverse, self._predictors(caches)), caches[::-1]

    def inverse(self, phi):
        return self._walk_up(phi, coupling_inverse, self._predictors(None))

    # -- vector-Jacobian products ------------------------------------------

    def forward_vjp(self, caches, grad_phi):
        # stage output was (a', b') = (b, a + F(b)); a None cache: b' discarded, zero gradient
        return self._walk_up(grad_phi, coupling_forward, [
            None if cache is None else partial(block.backward, cache)
            for block, cache in zip(self.blocks, caches)])

    def inverse_vjp(self, caches, grad_x):
        # stage output was (a, b) = (b' - F(a'), a'); F's output entered
        # negated, so its parameter gradients are taken at -g
        return self._walk_down(grad_x, coupling_inverse, [
            lambda g, b=block, c=cache: -b.backward(c, -g)
            for block, cache in zip(self.blocks, caches)])
