"""Invertible lifting-scheme filterbank.

A waveform is split into even/odd polyphase branches, run through a stack of
additive coupling stages (each preceded by an invertible reshape that trades
time for channels), and merged into a channels-by-frames feature. Every step
has an exact structural inverse, so the analysis/synthesis pair reconstructs
perfectly no matter what the predictor blocks compute, and the synthesis path
reuses the analysis parameters. Branches and their gradients stay on the
predictors' zero-padded grids from the split to the merge and back, and each
coupling adds or subtracts inside its predictor's last GEMMs.

With the defaults (6 stages, 4 base channels) the feature is
``(256, T / 64)`` and carries exactly 4 * T numbers. Its upper half is the top
stage's predicted branch; a caller that discards it skips that predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .layers import Activation, Conv1d, Module, empty_grid, grid_valid
from .numerics import Rng

__all__ = [
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
class LiftingConfig:
    """Structure of the transform and of its coupling predictors.

    num_stages: number of coupling stages (time decimation is 2**num_stages).
    base_channels: branch channels at stage 1; stage j holds
        base_channels * 2**(j-1).
    kernel_sizes: each predictor's conv kernels, one conv per entry.
    leaky_slope: slope of the leaky ReLU after every conv but the last.
    spectral_norm: spectrally normalise every predictor conv.
    linear_variant: strip biases and activations from every predictor, making
        the whole transform linear (the "no bias" configuration).
    """

    num_stages: int = 6
    base_channels: int = 4
    kernel_sizes: tuple = (3, 3)
    leaky_slope: float = 0.2
    spectral_norm: bool = False
    linear_variant: bool = False

    def __post_init__(self):
        if len(self.kernel_sizes) < 1:
            raise ValueError("block needs at least one convolution")
        if any(k % 2 == 0 or k < 1 for k in self.kernel_sizes):
            raise ValueError("block kernel sizes must be odd and positive")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError("leaky ReLU slope must lie in (0, 1)")
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
# structural (parameter-free) operators, on grids (C, ..., L + 2 pad) with
# zero pad columns (``layers.empty_grid``); plain arrays are the pad = 0 case
# ---------------------------------------------------------------------------

def _phases(x, pad):
    """The even- and odd-index samples of a grid's signal columns, as views:
    the one place the even/odd interleave is written."""
    v = grid_valid(x, pad)
    return v[..., 0::2], v[..., 1::2]


def split(x, n_channels, pad=0):
    """Polyphase split of (..., T) into two (n_channels, ..., T/2) branches.

    Branches use the transform's channels-first (C, ..., L) layout, on grids
    of pad ``pad``. It is the first invertible down-sample, zero-padded:
    channel 0 of branch a holds the even-index samples, channel 0 of branch b
    the odd-index samples; the other channels give the couplings room to work in.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2 or x.shape[-1] % 2 != 0:
        raise ValueError("length not even")
    a = np.zeros((int(n_channels),) + x.shape[:-1] + (x.shape[-1] // 2 + 2 * pad,))
    b = np.zeros_like(a)
    for branch, phase in zip((a, b), _phases(x, 0)):
        grid_valid(branch, pad)[0] = phase
    return a, b


def split_inverse(a, b, pad=0):
    """Up-sample channel 0 of two (C, ..., L) branch grids into a (..., 2L) waveform."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"branch shapes differ: {a.shape} vs {b.shape}")
    x = np.empty(a.shape[1:-1] + (2 * (a.shape[-1] - 2 * pad),))
    for branch, phase in zip((a, b), _phases(x, 0)):
        phase[...] = grid_valid(branch, pad)[0]
    return x


def invertible_downsample(x, pad=0):
    """Lossless reshape (C, ..., L) -> (2C, ..., L/2), grids of pad ``pad``.

    out[2c][..., t] = x[c][..., 2t] and out[2c+1][..., t] = x[c][..., 2t+1];
    no arithmetic.
    """
    x = np.asarray(x, dtype=np.float64)
    length = x.shape[-1] - 2 * pad
    if length % 2 != 0:
        raise ValueError("time length must be even to down-sample")
    y = empty_grid((2 * x.shape[0],) + x.shape[1:-1] + (length // 2,), pad)
    for p, phase in enumerate(_phases(x, pad)):
        grid_valid(y, pad)[p::2] = phase
    return y


def invertible_upsample(x, pad=0):
    """Exact inverse of invertible_downsample: (2C, ..., L) -> (C, ..., 2L)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] % 2 != 0:
        raise ValueError("channel count must be even to up-sample")
    y = empty_grid((x.shape[0] // 2,) + x.shape[1:-1] + (2 * (x.shape[-1] - 2 * pad),), pad)
    for p, phase in enumerate(_phases(y, pad)):
        phase[...] = grid_valid(x, pad)[p::2]
    return y


def coupling_forward(a, b, predict):
    """Additive coupling step, (a, b) -> (b, a + F(b)) written over a, where
    ``predict(v, onto, alpha)`` adds alpha F(v) onto ``onto`` and returns it."""
    return b, predict(b, a, 1.0)


def coupling_inverse(a, b, predict):
    """Inverse coupling step, (a, b) -> (b - F(a), a), written over b."""
    return predict(a, b, -1.0), a


# ---------------------------------------------------------------------------
# predictor blocks and the full transform
# ---------------------------------------------------------------------------

class CouplingBlock(Module):
    """Shape-preserving conv stack used as one stage's lifting predictor.

    Reads a channels-first branch on the zero-padded grid (C, B, L + 2P) that
    the transform keeps it on, P the widest conv's half-width (see
    ``layers.to_grid``); every conv and leaky ReLU runs on that layout, the
    leaky ReLU in place on the whole grid, whose zero pad columns stay zero
    both ways. Given a grid ``onto`` and a sign alpha, the last conv adds
    alpha F(branch) onto it inside its tap GEMMs (a coupling's add or
    subtract), and the backward pass does so with the input gradient. The
    cache is the list of the convs' input grids; the leaky ReLU backward
    reads the sign of the next conv's input grid.
    """

    def __init__(self, channels, config, rng):
        linear = config.linear_variant
        self.convs = [
            Conv1d(channels, channels, k, bias=not linear,
                   spectral_norm=config.spectral_norm, rng=rng)
            for k in config.kernel_sizes
        ]
        self.act = None if linear else Activation("leaky_relu", config.leaky_slope)
        self.pad = max(config.kernel_sizes) // 2

    def forward(self, grid, onto=None, alpha=1.0):
        """F(grid) as a new grid, or onto + alpha F(grid) written over onto;
        and the cache."""
        cache = []
        for conv in self.convs[:-1]:
            cache.append(grid)
            grid = conv.forward_grid(grid, self.pad)
            if self.act is not None:
                self.act.inplace(grid)
        cache.append(grid)
        return self.convs[-1].forward_grid(grid, self.pad, onto, alpha), cache

    def backward(self, cache, grad, onto=None, alpha=1.0):
        """alpha times the input gradient for the output-gradient grid
        ``grad``, as a new grid or added onto ``onto``; the parameter
        gradients accumulate at alpha grad. The last conv applies alpha, so
        the hidden gradients carry it."""
        for conv, grid in zip(self.convs[:0:-1], cache[:0:-1]):
            grad = conv.backward_grid(grid, grad, self.pad, None, alpha)
            alpha = 1.0
            if self.act is not None:    # grid: the activation's output
                self.act.backward(grid, grad, out=grad)
        return self.convs[0].backward_grid(cache[0], grad, self.pad, onto, alpha)

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
            CouplingBlock(self.config.channels(j), self.config, rng)
            for j in range(1, self.config.num_stages + 1)
        ]
        self.pad = self.blocks[0].pad     # every branch grid's pad

    def parts(self):
        return [(f"stage{j}", block) for j, block in enumerate(self.blocks, start=1)]

    @property
    def reach(self):
        """Input samples on either side of an output sample, in either
        direction, that it can depend on: sum(k // 2) * 2**j per stage j,
        plus the polyphase skew time_divisor - 1."""
        cfg = self.config
        half = sum(k // 2 for k in cfg.kernel_sizes)
        return half * (2 ** (cfg.num_stages + 1) - 2) + cfg.time_divisor - 1

    # -- shape helpers ----------------------------------------------------

    def _merge(self, a, b, lead):
        """(C, B, M + 2P) branch grids -> (..., 2C, M) channels-second feature."""
        c = a.shape[0]
        phi = np.empty((a.shape[1], 2 * c, a.shape[2] - 2 * self.pad))
        phi[:, :c], phi[:, c:] = (np.moveaxis(grid_valid(v, self.pad), 0, 1) for v in (a, b))
        return phi.reshape(lead + phi.shape[1:])

    def _unmerge(self, phi):
        """(..., 2C, M) feature -> two new (C, B, M + 2P) branch grids and the lead shape."""
        phi = np.asarray(phi, dtype=np.float64)
        c = phi.shape[-2]
        if c != self.config.merged_channels:
            raise ValueError(
                f"feature has {c} channels, transform expects {self.config.merged_channels}")
        halves = np.moveaxis(phi.reshape((-1,) + phi.shape[-2:]), 1, 0)     # (2C, B, M)
        a, b = (empty_grid(halves[:c // 2].shape, self.pad) for _ in range(2))
        grid_valid(a, self.pad)[...], grid_valid(b, self.pad)[...] = np.split(halves, 2)
        return a, b, phi.shape[:-2]

    # -- stage walks --------------------------------------------------------
    # The transpose of an additive coupling is again an additive coupling,
    # with the predictor's VJP in place of the predictor, so each VJP is the
    # other direction's walk: down (split, stages 1..J, merge) is analysis
    # and the synthesis VJP, up (unmerge, stages J..1, interleave) synthesis
    # and the analysis VJP. Branches and their gradients stay on the
    # predictors' grids from the split or unmerge on, and each coupling
    # writes its sum over a branch grid that nothing else holds: one the
    # split, a resample or the unmerge has just made. Parameter gradients
    # accumulate into the conv Parameters, so both VJPs of one step add up in
    # the shared predictors.

    def _walk_down(self, x, couple, predictors):
        x = np.asarray(x, dtype=np.float64)
        t, div = x.shape[-1], self.config.time_divisor
        if t % div != 0 or t == 0:
            raise ValueError(f"input length {t} must be a positive multiple of {div}")
        a, b = split(x.reshape(-1, t), self.config.base_channels, self.pad)
        for j, predict in enumerate(predictors, start=1):
            if j >= 2:
                a, b = invertible_downsample(a, self.pad), invertible_downsample(b, self.pad)
            a, b = (b, np.zeros_like(a)) if predict is None else couple(a, b, predict)
        return self._merge(a, b, x.shape[:-1])

    def _walk_up(self, phi, couple, predictors):
        a, b, lead = self._unmerge(phi)
        for j, predict in zip(range(len(predictors), 0, -1), predictors[::-1]):
            a, b = (b, a) if predict is None else couple(a, b, predict)
            if j >= 2:
                a, b = invertible_upsample(a, self.pad), invertible_upsample(b, self.pad)
        x = split_inverse(a, b, self.pad)
        return x.reshape(lead + x.shape[1:])

    @staticmethod
    def _predict(block, caches, spent, j, v, onto, alpha):
        if spent:
            spent[j] = None
        y, cache = block.forward(v, onto, alpha)
        if caches is not None:
            caches.append(cache)
        return y

    def _predictors(self, caches, discard_top=False, spent=None):
        """The blocks as coupling predictors; each evaluation's layer caches
        go on ``caches``, or nowhere when it is None (inference). Stage j's
        evaluation first drops entry j - 1 of ``spent``, the same stage's
        caches from an earlier call of the same direction that nothing needs
        any more, so the new ones take over their memory."""
        predictors = [partial(self._predict, block, caches, spent, j)
                      for j, block in enumerate(self.blocks)]
        return predictors[:-1] + [None] if discard_top else predictors

    # -- forward / inverse ------------------------------------------------

    def forward_with_cache(self, x, discard_top=False, spent=None):
        """Feature plus the per-stage predictor caches the VJPs need. With
        ``discard_top`` the upper half, stage J's b' = a + F_J(b), is left at
        zero for a caller that discards it: F_J does not run, stage J's cache is None."""
        caches = []
        phi = self._walk_down(x, coupling_forward, self._predictors(caches, discard_top, spent))
        return phi, caches + [None] if discard_top else caches

    def forward(self, x, discard_top=False):
        return self._walk_down(x, coupling_forward, self._predictors(None, discard_top))

    def inverse_with_cache(self, phi, spent=None):
        """Waveform plus the per-stage predictor caches, indexed by stage."""
        caches = []
        y = self._walk_up(phi, coupling_inverse, self._predictors(caches, spent=spent))
        return y, caches[::-1]

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
        # negated, so the alpha = -1 backward takes its parameter gradients at -g
        return self._walk_down(grad_x, coupling_inverse, [
            partial(block.backward, cache) for block, cache in zip(self.blocks, caches)])
