"""Differentiable building blocks with hand-written backward passes.

Every layer exposes ``forward(x) -> (y, cache)`` and
``backward(cache, grad_out) -> grad_in``. Parameter gradients are
accumulated into ``Parameter.grad``, so a block evaluated several times per
step (the lifting transform reuses its predictors on the forward and the
inverse path) sums all contributions; call ``zero_grad`` between steps.

Data is channels-first with arbitrary leading batch axes: 1-D signals are
``(..., C, L)``, 2-D feature maps ``(..., C, H, W)``. Every convolution pass
runs on one engine, ``tapgemm``: one GEMM per kernel tap over a strided
window of a flat, zero-padded grid, each tap after the first adding into its
output inside BLAS. Conv1d runs on a (C, B, L + 2P) grid that the lifting
predictors chain, and adds +-its output onto a given grid in those GEMMs when
asked (a coupling's add or subtract). A strided 2-D correlation (Conv2d's
forward pass, Deconv2d's backward pass) is regrouped space-to-depth into a
stride-1 one, and its input adjoint (Conv2d's input gradient, Deconv2d's
forward pass) is the matching stride-1 correlation regrouped depth-to-space
(``tapgemm.PhaseGrid``); given an activation, each runs it on every row block
while the block is in cache, and given a 1x1 head, Deconv2d runs it there
too, with no cache. The leaky ReLU, the sigmoid and their gradients are one
kernel each over cache-sized blocks (``_in_blocks``), writing a given output
that may be the input; both networks reach them through ``Activation``.
"""

from __future__ import annotations

import numpy as np

from .numerics import Rng
from .tapgemm import PhaseGrid, gemm, tap_gemms

__all__ = [
    "Parameter",
    "Module",
    "Activation",
    "Conv1d",
    "empty_grid",
    "to_grid",
    "grid_valid",
    "Conv2d",
    "Deconv2d",
    "power_iteration",
    "spectral_sigma",
]

_SIGMA_FLOOR = 1e-12


class Parameter:
    """Trainable array plus its accumulated gradient buffer."""

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0

    @property
    def shape(self):
        return self.data.shape


class Module:
    """Parameter plumbing over one walk, ``parts()``: (name, value) pairs in
    checkpoint order, each value a Parameter, a state array, a sub-Module or
    None (skipped). Every parameter and state name and their order follow it."""

    prefix = ""          # the default name prefix

    def _walk(self, kind, prefix):
        prefix = self.prefix if prefix is None else prefix
        for name, value in self.parts():
            path = f"{prefix}/{name}" if prefix else name
            if isinstance(value, Module):
                yield from value._walk(kind, path)
            elif isinstance(value, kind):
                yield path, value

    def named_parameters(self, prefix=None):
        return self._walk(Parameter, prefix)

    def named_state(self, prefix=None):
        return self._walk(np.ndarray, prefix)

    def zero_grad(self):
        for _, p in self.named_parameters():
            p.zero_grad()

    def update_spectral_state(self, iters=1):
        for _, value in self.parts():
            if isinstance(value, Module):
                value.update_spectral_state(iters)


def _flatten_batch(x, core_ndim):
    """View (..., core dims) as (B, core dims); returns (batched, lead shape)."""
    x = np.asarray(x, dtype=np.float64)
    lead = x.shape[: x.ndim - core_ndim]
    return x.reshape((-1,) + x.shape[x.ndim - core_ndim:]), lead


def _restore_batch(y, lead):
    return y.reshape(lead + y.shape[1:])


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def _leaky_relu(x, slope, out):
    """out = max(x, slope x), the leaky ReLU for 0 < slope < 1; ``out`` may be x."""
    def block(o, xb, s):
        np.multiply(xb, slope, out=s)
        np.maximum(xb, s, out=o)
    return _in_blocks(block, out, x)


def _leaky_relu_grad(g, y, slope, out):
    """Leaky ReLU backward: out = g max(y >= 0, slope); ``out`` may be g.

    The factor is exactly 1 where the output y is non-negative and slope
    elsewhere, without a data-dependent branch; with slope > 0, y has the
    input's sign, so the input is not kept.
    """
    def block(o, gb, yb, s):
        np.greater_equal(yb, 0.0, out=s)
        np.maximum(s, slope, out=s)
        np.multiply(gb, s, out=o)
    return _in_blocks(block, out, g, y)


_ACT_BLOCK = 1 << 13     # elements per activation block (64 KiB)


def _in_blocks(fn, out, *inputs):
    """fn(out_part, *input_parts, scratch) over matching cache-sized blocks of
    ``out`` and the ``inputs`` (out's shape or broadcast to it, any strides;
    one may be ``out`` itself); the only scratch is one block."""
    scratch = np.empty(_ACT_BLOCK)
    flags = [["readwrite"]] + [["readonly"]] * len(inputs)
    with np.nditer((out,) + inputs, ["external_loop", "zerosize_ok"], flags) as runs:
        for run in runs:
            for i in range(0, run[0].size, _ACT_BLOCK):
                parts = [r[i:i + _ACT_BLOCK] for r in run]
                fn(*parts, scratch[:parts[0].size])
    return out


def _sigmoid(x, out):
    """Logistic exp(min(x, 0)) / (1 + exp(-|x|)) into ``out`` (may be x),
    clamped to [1e-12, 1 - 1e-12].

    The same value as 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below,
    without a branch: both exponents are <= 0, so nothing overflows.
    """
    def block(o, xb, num):
        np.minimum(xb, 0.0, out=num)
        np.exp(num, out=num)
        np.abs(xb, out=o)
        np.negative(o, out=o)
        np.exp(o, out=o)
        o += 1.0
        np.divide(num, o, out=o)
        np.clip(o, 1e-12, 1.0 - 1e-12, out=o)
    return _in_blocks(block, out, x)


def _sigmoid_grad(g, y, out):
    """Sigmoid backward from its output y: out = g y (1 - y); ``out`` may be g."""
    def block(o, gb, yb, s):
        np.multiply(gb, yb, out=o)
        np.multiply(o, np.subtract(1.0, yb, out=s), out=o)
    return _in_blocks(block, out, g, y)


class Activation:
    """Elementwise activation: leaky_relu(slope) or sigmoid."""

    KINDS = ("leaky_relu", "sigmoid")

    def __init__(self, kind, slope=0.2):
        if kind not in self.KINDS:
            raise ValueError(f"unknown activation {kind!r}")
        if kind == "leaky_relu" and not 0.0 < slope < 1.0:
            raise ValueError("leaky ReLU slope must lie in (0, 1)")
        self.kind = kind
        self.slope = float(slope)

    def forward(self, x):
        """Output, a new array, and the cache (the output)."""
        y = self.inplace(np.array(x, dtype=np.float64))
        return y, y

    def inplace(self, x):
        """The activation of x, written over it (a lifting grid, a conv epilogue)."""
        return _leaky_relu(x, self.slope, x) if self.kind == "leaky_relu" else _sigmoid(x, x)

    def backward(self, cache, grad_out, out=None):
        """Input gradient from the cached output y, into ``out`` when given
        (it may be grad_out itself); otherwise only the result is allocated."""
        g = np.asarray(grad_out, dtype=np.float64)
        if out is None:
            out = np.empty(np.broadcast_shapes(g.shape, cache.shape))
        if self.kind == "leaky_relu":
            return _leaky_relu_grad(g, cache, self.slope, out)
        return _sigmoid_grad(g, cache, out)


# ---------------------------------------------------------------------------
# spectral normalization
# ---------------------------------------------------------------------------

def power_iteration(w2d, u, iters):
    """Run power iterations on a 2-D matrix, updating ``u`` in place.

    Returns the current estimate of the largest singular value.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    sigma = 0.0
    for _ in range(iters):
        v = w2d.T @ u
        nv = np.linalg.norm(v)
        if nv <= _SIGMA_FLOOR:
            return 0.0
        v /= nv
        wu = w2d @ v
        sigma = np.linalg.norm(wu)
        if sigma <= _SIGMA_FLOOR:
            return 0.0
        u[...] = wu / sigma
    return float(sigma)


def spectral_sigma(w2d, u):
    """Largest-singular-value estimate from the stored vector, no state update."""
    return float(np.linalg.norm(w2d.T @ u))


# ---------------------------------------------------------------------------
# 1-D convolution on a zero-padded grid
# ---------------------------------------------------------------------------
# A batch of (C, B, L) signals lives on a contiguous grid (C, B, L + 2P):
# every batch row carries P zero columns on each side. Flattened to (C, N),
# N = B (L + 2P), a stride-1 "same" correlation of half-width p <= P is one
# GEMM per tap over a shifted window of columns, written straight onto the
# interior columns [P, N - P) of an output grid of the same shape, or added
# onto a given one; BLAS reads the strided windows in place. The windows run
# across batch rows, so afterwards the pad columns are zeroed again, and the
# output is the next layer's padded input as it stands.

def empty_grid(shape, pad):
    """A new grid (C, ..., L + 2 pad) for signals of shape (C, ..., L): zero
    pad columns, signal columns not initialised."""
    grid = np.empty(tuple(shape[:-1]) + (shape[-1] + 2 * pad,))
    _zero_pad_columns(grid, pad)
    return grid


def to_grid(x, pad):
    """Copy (C, ..., L) into a new zero-padded grid (C, ..., L + 2 pad)."""
    grid = empty_grid(x.shape, pad)
    grid_valid(grid, pad)[...] = x
    return grid


def grid_valid(grid, pad):
    """The (C, ..., L) view of a grid's signal columns."""
    return grid[..., pad:grid.shape[-1] - pad]


def _grid_interior(grid, pad):
    """The (C, N - 2 pad) view of the flat grid that the tap GEMMs write."""
    flat = grid.reshape(grid.shape[0], -1)
    return flat[:, pad:flat.shape[1] - pad]


def _zero_pad_columns(grid, pad):
    grid[..., :pad] = 0.0
    grid[..., grid.shape[-1] - pad:] = 0.0


def _correlate_grid(taps, grid, pad, bias=None, onto=None, alpha=1.0):
    """Stride-1 correlation of a padded (C_in, B, Lp) grid with taps (k, C_out, C_in).

    Adds alpha times ``out[:, P:N-P] = sum_t taps[t] @ flat[:, s_t : s_t + n]
    (+ bias)``, s_t = P - k // 2 + t, onto the (C_out, B, Lp) grid ``onto``
    in place and returns it, or returns it in a new grid; the result's pad
    columns are zero.
    """
    k, cout = taps.shape[:2]
    shape = (cout,) + grid.shape[1:]
    if onto is not None and onto.shape != shape:
        raise ValueError(f"cannot add a {shape} correlation onto shape {onto.shape}")
    out = np.empty(shape) if onto is None else onto
    acc = _grid_interior(out, pad)
    first = pad - k // 2
    tap_gemms(taps, grid.reshape(grid.shape[0], -1), range(first, first + k), acc,
              alpha, 0.0 if onto is None else 1.0)
    if bias is not None:
        acc += (alpha * bias)[:, None]
    _zero_pad_columns(out, pad)
    return out


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def _init_weight(rng, shape, fan_in):
    # uniform fan-in scaling for weights and biases; nonzero bias init keeps
    # pre-activations off the leaky-ReLU kink in zero-padded regions
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(shape, -bound, bound)


def _unit_vector(rng, n):
    v = rng.normal((n,))
    return v / np.linalg.norm(v)


class _Conv(Module):
    """Weight, bias and spectral-norm state shared by the convolutions.

    The weight is (C_out, C_in, *kernel); with spectral normalization each
    pass divides it by the largest singular value of its (C_out, rest)
    matrix, estimated from the persistent vector ``sn_u`` (no cache holds
    it). Initialization draws weight, then bias, then ``sn_u`` from ``rng``.
    """

    def __init__(self, in_channels, out_channels, kernel, bias, spectral_norm, rng):
        rng = rng if rng is not None else Rng(0)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        fan_in = self.in_channels * int(np.prod(kernel))
        self.weight = Parameter(_init_weight(
            rng, (self.out_channels, self.in_channels) + tuple(kernel), fan_in))
        self.bias = Parameter(_init_weight(rng, (self.out_channels,), fan_in)) if bias else None
        self.sn_u = _unit_vector(rng, self.out_channels) if spectral_norm else None

    def _effective_weight(self):
        if self.sn_u is None:
            return self.weight.data, 1.0
        w2d = self.weight.data.reshape(self.out_channels, -1)
        sigma = spectral_sigma(w2d, self.sn_u)
        if sigma <= _SIGMA_FLOOR:
            return self.weight.data, 1.0
        return self.weight.data / sigma, sigma

    def _bias_grad(self, g, axis, alpha=1.0):
        if self.bias is not None:
            self.bias.grad += alpha * g.sum(axis=axis)

    def update_spectral_state(self, iters=1):
        if self.sn_u is not None:
            power_iteration(self.weight.data.reshape(self.out_channels, -1),
                            self.sn_u, iters)

    def parts(self):
        return ("weight", self.weight), ("bias", self.bias), ("sn_u", self.sn_u)


class Conv1d(_Conv):
    """1-D convolution, stride 1, odd kernel, zero "same" padding.

    Output length always equals input length, which is what lets the lifting
    predictors keep both coupling branches shape-compatible. The work happens
    on the zero-padded grid (see ``to_grid``): ``forward_grid`` and
    ``backward_grid`` take grids and return a new one or add onto a given
    one; the public ``(..., C, L)`` ``forward`` / ``backward`` pad into one.
    """

    def __init__(self, in_channels, out_channels, kernel_size=3, bias=True,
                 spectral_norm=False, rng=None):
        if kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd for symmetric same padding")
        self.kernel_size = int(kernel_size)
        super().__init__(in_channels, out_channels, (self.kernel_size,), bias,
                         spectral_norm, rng)

    def forward_grid(self, grid, pad, onto=None, alpha=1.0):
        """Output grid for an input grid of pad ``pad`` >= kernel_size // 2, or
        ``onto`` + alpha output written over the grid ``onto``."""
        if grid.shape[0] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {grid.shape[0]}")
        w, _ = self._effective_weight()
        taps = np.ascontiguousarray(np.moveaxis(w, 2, 0))          # (k, C_out, C_in)
        bias = self.bias.data if self.bias is not None else None
        return _correlate_grid(taps, grid, pad, bias, onto, alpha)

    def backward_grid(self, grid, grad, pad, onto=None, alpha=1.0):
        """alpha times the input gradient for the output-gradient grid ``grad``
        (zero pad columns) of ``forward_grid(grid, pad)``, returned or added
        like its output; accumulates alpha times the parameter gradients. The
        weight gradient is one GEMM per tap against the forward pass's
        windows, the input gradient the correlation with the flipped,
        transposed kernel on the same grid."""
        w, sigma = self._effective_weight()
        k = self.kernel_size
        g = _grid_interior(grad, pad)
        flat = grid.reshape(self.in_channels, -1)
        first = pad - k // 2
        gw = np.empty((k, self.out_channels, self.in_channels))
        for t in range(k):
            gemm(g, flat[:, first + t:first + t + g.shape[1]].T, gw[t], alpha, 0.0)
        self.weight.grad += np.moveaxis(gw, 0, 2) / sigma
        self._bias_grad(g, 1, alpha)
        taps = np.ascontiguousarray(w[:, :, ::-1].transpose(2, 1, 0))  # (k, C_in, C_out)
        return _correlate_grid(taps, grad, pad, None, onto, alpha)

    def forward(self, x):
        xb, lead = _flatten_batch(x, 2)
        pad = self.kernel_size // 2
        grid = to_grid(np.moveaxis(xb, 1, 0), pad)
        out = self.forward_grid(grid, pad)
        y = np.ascontiguousarray(np.moveaxis(grid_valid(out, pad), 0, 1))
        return _restore_batch(y, lead), grid

    def backward(self, grid, grad_out):
        g, lead = _flatten_batch(grad_out, 2)
        pad = self.kernel_size // 2
        grad = to_grid(np.moveaxis(g, 1, 0), pad)
        gx = self.backward_grid(grid, grad, pad)
        gx = np.ascontiguousarray(np.moveaxis(grid_valid(gx, pad), 0, 1))
        return _restore_batch(gx, lead)


def _pair(v):
    if np.isscalar(v):
        return int(v), int(v)
    a, b = v
    return int(a), int(b)


class _Conv2dBase(_Conv):
    """Conv2d and Deconv2d's per-axis kernel, stride and padding, input
    check and bias lookup; the defaults are Conv2d's."""

    def __init__(self, in_channels, out_channels, kernel_size=3, stride=1,
                 padding=0, bias=True, spectral_norm=False, rng=None):
        self.kernel, self.stride, self.padding = map(_pair, (kernel_size, stride, padding))
        super().__init__(in_channels, out_channels, self.kernel, bias,
                         spectral_norm, rng)

    def _forward_inputs(self, x):
        """What both forward passes start from: x as (B, C_in, H, W), its lead
        shape, and the bias data or None."""
        xb, lead = _flatten_batch(x, 3)
        if xb.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {xb.shape[1]}")
        return xb, lead, None if self.bias is None else self.bias.data

    @staticmethod
    def _batched(out, shape):
        """``out`` viewed as (B, *shape[-3:]), or None when it is None."""
        yb = None if out is None or out.shape != shape else out.reshape((-1,) + shape[-3:])
        if out is not None and (yb is None or out.size and not np.may_share_memory(yb, out)):
            raise ValueError(f"output buffer of shape {out.shape} is not a "
                             f"{shape} array whose batch axes merge")
        return yb


class Conv2d(_Conv2dBase):
    """2-D convolution with per-axis stride and zero padding."""

    def forward(self, x, act=None, out=None):
        """Output, after the Activation ``act`` when given, and cache; the
        output is written into ``out`` and returned as it when given, as in
        ``Deconv2d.forward``."""
        xb, lead, bias = self._forward_inputs(x)
        if any(n + 2 * p < k for n, p, k in zip(xb.shape[2:], self.padding, self.kernel)):
            raise ValueError("input smaller than kernel")
        weight, _ = self._effective_weight()
        phases = PhaseGrid(xb.shape[2:], self.kernel, self.stride, self.padding)
        yb = self._batched(out, lead + (self.out_channels,) + phases.out_hw)
        flat = phases.regroup(xb)
        y = phases.correlate(flat, weight, bias, act and act.inplace, yb)
        return (_restore_batch(y, lead) if out is None else out), (phases, flat)

    def backward(self, cache, grad_out):
        phases, flat = cache
        g, lead = _flatten_batch(grad_out, 3)
        weight, sigma = self._effective_weight()
        self.weight.grad += phases.weight_adjoint(flat, g, 1.0 / sigma)
        self._bias_grad(g, (0, 2, 3))
        return _restore_batch(phases.input_adjoint(g, weight), lead)


class Deconv2d(_Conv2dBase):
    """Transposed 2-D convolution: Conv2d's input adjoint, channel axes swapped.

    With matching kernel/stride/padding the output size (in - 1) * stride -
    2 * pad + kernel undoes the Conv2d shape map, the encoder/decoder mirror
    symmetry the mask estimator needs.
    """

    def __init__(self, in_channels, out_channels, kernel_size=4, stride=2,
                 padding=1, bias=True, spectral_norm=False, rng=None):
        super().__init__(in_channels, out_channels, kernel_size, stride, padding,
                         bias, spectral_norm, rng)

    def out_shape(self, h, w):
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        return (h - 1) * sh - 2 * ph + kh, (w - 1) * sw - 2 * pw + kw

    def forward(self, x, out=None, act=None, head=None):
        """Output, after the Activation ``act`` when given, and cache; the output
        is written into ``out`` (the output's shape, any layout whose batch axes
        merge) and returned as it when given. With ``head``, a 1x1 Conv2d, the
        output is head(output) with a None cache: each row block goes through
        the head while in cache, and the map before it is never built."""
        xb, lead, bias = self._forward_inputs(x)
        ho, wo = self.out_shape(*xb.shape[2:])
        if ho < 1 or wo < 1:
            raise ValueError("deconv output would be empty")
        weight = self._effective_weight()[0].transpose(1, 0, 2, 3)
        phases = PhaseGrid((ho, wo), self.kernel, self.stride, self.padding)
        fused = None
        if head is not None:
            if not phases.covers or head.kernel + head.stride + head.padding != (1, 1, 1, 1, 0, 0):
                raise ValueError("fusing needs kernel >= stride and a 1x1 head")
            fused = (head._effective_weight()[0][:, :, 0, 0],
                     None if head.bias is None else head.bias.data)
        yb = self._batched(out, lead + ((self if head is None else head).out_channels, ho, wo))
        y = phases.input_adjoint(xb, weight, bias, yb, act and act.inplace, fused)
        return (_restore_batch(y, lead) if out is None else out), (xb if head is None else None)

    def backward(self, xb, grad_out):
        g, lead = _flatten_batch(grad_out, 3)
        phases = PhaseGrid(g.shape[2:], self.kernel, self.stride, self.padding)
        flat = phases.regroup(g)
        weight, sigma = self._effective_weight()
        gx = phases.correlate(flat, weight.transpose(1, 0, 2, 3))
        self.weight.grad += phases.weight_adjoint(flat, xb, 1.0 / sigma).transpose(1, 0, 2, 3)
        self._bias_grad(g, (0, 2, 3))
        return _restore_batch(gx, lead)
