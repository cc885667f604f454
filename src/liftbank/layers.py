"""Differentiable building blocks with hand-written backward passes.

Every layer exposes ``forward(x) -> (y, cache)`` and
``backward(cache, grad_out) -> grad_in``. Parameter gradients are
accumulated into ``Parameter.grad``, so a block evaluated several times per
step (the lifting transform reuses its predictors on the forward and the
inverse path) sums all contributions; call ``zero_grad`` between steps.

Data is channels-first with arbitrary leading batch axes: 1-D signals are
``(..., C, L)``, 2-D feature maps ``(..., C, H, W)``. Conv1d computes on a
zero-padded channels-first grid (C, B, L + 2P), one strided GEMM per tap; the
lifting predictors chain their convolutions on that grid. The 2-D layers
share one strided correlation, ``_correlate`` (with its weight adjoint from
the same patches), and its input adjoint ``_correlate_input_adjoint``:
Conv2d is the correlation and Deconv2d is the input adjoint. Both run
channels-first. The correlation builds each image's patches as
(C * kh * kw, Ho * Wo), so ``W @ P`` is the output image as it stands. The
input adjoint splits its output into stride_h * stride_w sub-pixel phases,
each a stride-1 correlation with a sub-kernel: one GEMM per tap from a
strided window of the flat, zero-padded gradient grid, the same tap loop as
Conv1d's, with no scatter-adds and no transpose.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import Rng

__all__ = [
    "Parameter",
    "Activation",
    "leaky_relu",
    "leaky_relu_grad",
    "Conv1d",
    "to_grid",
    "grid_valid",
    "grid_interior",
    "grid_scratch",
    "Conv2d",
    "Deconv2d",
    "InstanceNorm2d",
    "power_iteration",
    "spectral_sigma",
    "spectral_normalize_weights",
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

def leaky_relu(x, slope, out, scratch):
    """out = max(x, slope x), the leaky ReLU for 0 < slope < 1.

    ``scratch`` (x's shape) receives slope x first; it may be ``out`` itself
    when ``out`` is not x, and with out=x the activation runs in place.
    """
    np.multiply(x, slope, out=scratch)
    return np.maximum(x, scratch, out=out)


def leaky_relu_grad(g, y, slope, scratch):
    """Leaky ReLU backward in place: g *= max(y >= 0, slope).

    The factor is exactly 1 where the output y is non-negative and slope
    elsewhere, without a data-dependent branch; with slope > 0, y has the
    input's sign, so the input is not kept. ``scratch`` has g's shape.
    """
    np.greater_equal(y, 0.0, out=scratch)
    np.maximum(scratch, slope, out=scratch)
    return np.multiply(g, scratch, out=g)


_ACT_BLOCK = 1 << 13     # elements per in-place activation block (64 KiB)


def _leaky_relu_inplace(x, slope):
    """x = max(x, slope x) in place on any strided x, one cache-sized block at
    a time, so the only scratch is one block."""
    scratch = np.empty(_ACT_BLOCK)
    with np.nditer(x, flags=["external_loop"], op_flags=[["readwrite"]]) as runs:
        for run in runs:
            for i in range(0, run.size, _ACT_BLOCK):
                part = run[i:i + _ACT_BLOCK]
                leaky_relu(part, slope, part, scratch[:part.size])
    return x


def _sigmoid(x, out):
    """Logistic exp(min(x, 0)) / (1 + exp(-|x|)) into ``out`` (may be x),
    clamped to [1e-12, 1 - 1e-12].

    The same value as 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below,
    without a branch: both exponents are <= 0, so nothing overflows.
    """
    num = np.minimum(x, 0.0)
    np.exp(num, out=num)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(num, out, out=out)
    return np.clip(out, 1e-12, 1.0 - 1e-12, out=out)


class Activation:
    """Elementwise activation: leaky_relu(slope), sigmoid, or identity."""

    KINDS = ("leaky_relu", "sigmoid", "identity")

    def __init__(self, kind, slope=0.2):
        if kind not in self.KINDS:
            raise ValueError(f"unknown activation {kind!r}")
        if kind == "leaky_relu" and not 0.0 < slope < 1.0:
            raise ValueError("leaky ReLU slope must lie in (0, 1)")
        self.kind = kind
        self.slope = float(slope)

    def forward(self, x, out=None):
        """Output and cache. ``out`` receives the output when given; it may be
        x itself, and the activation then runs in place."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "identity":
            if out is not None and out is not x:
                out[...] = x
            return (x if out is None else out), None
        if out is None:
            out = np.empty_like(x)
        if self.kind == "leaky_relu":
            if out is x:
                return _leaky_relu_inplace(x, self.slope), x
            return leaky_relu(x, self.slope, out, out), out
        return _sigmoid(x, out), out

    def backward(self, cache, grad_out):
        if self.kind == "identity":
            return np.asarray(grad_out, dtype=np.float64)
        if self.kind == "leaky_relu":
            g = np.array(grad_out, dtype=np.float64)
            return leaky_relu_grad(g, cache, self.slope, np.empty_like(g))
        return grad_out * cache * (1.0 - cache)


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


def spectral_normalize_weights(w, u, iters=1):
    """Divide a weight tensor by its power-iteration largest singular value.

    ``w`` is reshaped to (C_out, rest); ``u`` is the persistent unit vector of
    length C_out and is updated in place. A degenerate all-zero weight (sigma
    below 1e-12) is returned unchanged.
    """
    w = np.asarray(w, dtype=np.float64)
    w2d = w.reshape(w.shape[0], -1)
    sigma = power_iteration(w2d, u, iters)
    if sigma <= _SIGMA_FLOOR:
        return w
    return w / sigma


# ---------------------------------------------------------------------------
# 1-D convolution on a zero-padded grid
# ---------------------------------------------------------------------------
# A batch of (C, B, L) signals lives on a contiguous grid (C, B, L + 2P):
# every batch row carries P zero columns on each side. Flattened to (C, N),
# N = B (L + 2P), a stride-1 "same" correlation of half-width p <= P is one
# GEMM per tap over a shifted window of columns, written straight onto the
# interior columns [P, N - P) of an output grid of the same shape; BLAS
# reads the strided windows in place. The windows run across batch rows, so
# afterwards the pad columns are zeroed again, and the output is the next
# layer's padded input as it stands.

def to_grid(x3, pad):
    """Copy (C, B, L) into a new zero-padded grid (C, B, L + 2 pad)."""
    c, batch, length = x3.shape
    grid = np.empty((c, batch, length + 2 * pad))
    grid[:, :, pad:pad + length] = x3
    _zero_pad_columns(grid, pad)
    return grid


def grid_valid(grid, pad):
    """The (C, B, L) view of a grid's signal columns."""
    return grid[:, :, pad:grid.shape[2] - pad]


def grid_interior(grid, pad):
    """The (C, N - 2 pad) view of the flat grid that the tap GEMMs write."""
    flat = grid.reshape(grid.shape[0], -1)
    return flat[:, pad:flat.shape[1] - pad]


def grid_scratch(grid, pad, channels):
    """Tap-accumulation buffer for correlations on ``grid`` with up to
    ``channels`` output channels."""
    return np.empty((channels, grid[0].size - 2 * pad))


def _zero_pad_columns(grid, pad):
    grid[:, :, :pad] = 0.0
    grid[:, :, grid.shape[2] - pad:] = 0.0


def _tap_gemms(taps, flat, offsets, acc, scratch):
    """acc = sum_t taps[t] @ flat[:, o_t : o_t + n] for the column offsets o_t,
    n = acc.shape[1]: one GEMM per tap straight from a strided column window of
    the flat grid; ``scratch`` has acc's shape."""
    n = acc.shape[1]
    for t, off in enumerate(offsets):
        if t == 0:
            np.matmul(taps[0], flat[:, off:off + n], out=acc)
        else:
            np.matmul(taps[t], flat[:, off:off + n], out=scratch)
            acc += scratch
    return acc


def _correlate_grid(taps, grid, pad, scratch, bias=None, out=None):
    """Stride-1 correlation of a padded (C_in, B, Lp) grid with taps (k, C_out, C_in).

    Returns a (C_out, B, Lp) grid with zero pad columns, ``out`` or a new one:
    ``out[:, P:N-P] = sum_t taps[t] @ flat[:, s_t : s_t + n] (+ bias)`` with
    s_t = P - k // 2 + t; ``scratch`` holds at least C_out rows of n columns.
    """
    k, cout = taps.shape[:2]
    if out is None:
        out = np.empty((cout,) + grid.shape[1:])
    acc = grid_interior(out, pad)
    first = pad - k // 2
    _tap_gemms(taps, grid.reshape(grid.shape[0], -1), range(first, first + k), acc,
               scratch[:cout])
    if bias is not None:
        acc += bias[:, None]
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


class _Conv:
    """Weight, bias and spectral-norm state shared by the convolutions.

    The weight is (C_out, C_in, *kernel); with spectral normalization the
    forward pass divides it by the largest singular value of its
    (C_out, rest) matrix, estimated from the persistent vector ``sn_u``.
    Initialization draws weight, then bias, then ``sn_u`` from ``rng``.
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

    def update_spectral_state(self, iters=1):
        if self.sn_u is not None:
            power_iteration(self.weight.data.reshape(self.out_channels, -1),
                            self.sn_u, iters)

    def named_parameters(self, prefix):
        yield f"{prefix}/weight", self.weight
        if self.bias is not None:
            yield f"{prefix}/bias", self.bias

    def named_state(self, prefix):
        if self.sn_u is not None:
            yield f"{prefix}/sn_u", self.sn_u


class Conv1d(_Conv):
    """1-D convolution, stride 1, odd kernel, zero "same" padding.

    Output length always equals input length, which is what lets the lifting
    predictors keep both coupling branches shape-compatible. The work happens
    on the zero-padded grid (see ``to_grid``): ``forward_grid`` and
    ``backward_grid`` take and return grids, and the public ``(..., C, L)``
    ``forward`` / ``backward`` pad into one.
    """

    def __init__(self, in_channels, out_channels, kernel_size=3, bias=True,
                 spectral_norm=False, rng=None):
        if kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd for symmetric same padding")
        self.kernel_size = int(kernel_size)
        super().__init__(in_channels, out_channels, (self.kernel_size,), bias,
                         spectral_norm, rng)

    def forward_grid(self, grid, pad, scratch):
        """Output grid for an input grid of pad ``pad`` >= kernel_size // 2,
        plus the spectral scale the backward pass needs."""
        if grid.shape[0] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {grid.shape[0]}")
        w, sigma = self._effective_weight()
        taps = np.ascontiguousarray(np.moveaxis(w, 2, 0))          # (k, C_out, C_in)
        bias = self.bias.data if self.bias is not None else None
        return _correlate_grid(taps, grid, pad, scratch, bias), sigma

    def backward_grid(self, grid, sigma, grad, pad, scratch, out=None):
        """Input-gradient grid for the output-gradient grid ``grad`` (zero pad
        columns) of ``forward_grid(grid, pad)``, written into ``out`` when
        given; accumulates parameter gradients.

        The weight gradient is one GEMM per tap against the same strided
        windows as the forward pass; the input gradient is the correlation
        with the flipped, transposed kernel on the same grid.
        """
        k = self.kernel_size
        g = grid_interior(grad, pad)
        flat = grid.reshape(self.in_channels, -1)
        first = pad - k // 2
        for t in range(k):
            window = flat[:, first + t:first + t + g.shape[1]]
            self.weight.grad[:, :, t] += (g @ window.T) / sigma
        if self.bias is not None:
            self.bias.grad += g.sum(axis=1)
        w, _ = self._effective_weight()
        taps = np.ascontiguousarray(w[:, :, ::-1].transpose(2, 1, 0))  # (k, C_in, C_out)
        return _correlate_grid(taps, grad, pad, scratch, out=out)

    def forward(self, x):
        xb, lead = _flatten_batch(x, 2)
        pad = self.kernel_size // 2
        grid = to_grid(np.moveaxis(xb, 1, 0), pad)
        scratch = grid_scratch(grid, pad, self.out_channels)
        out, sigma = self.forward_grid(grid, pad, scratch)
        y = np.ascontiguousarray(np.moveaxis(grid_valid(out, pad), 0, 1))
        return _restore_batch(y, lead), (grid, sigma, lead)

    def backward(self, cache, grad_out):
        grid, sigma, lead = cache
        g, _ = _flatten_batch(grad_out, 2)
        pad = self.kernel_size // 2
        grad = to_grid(np.moveaxis(g, 1, 0), pad)
        scratch = grid_scratch(grad, pad, self.in_channels)
        gx = self.backward_grid(grid, sigma, grad, pad, scratch)
        gx = np.ascontiguousarray(np.moveaxis(grid_valid(gx, pad), 0, 1))
        return _restore_batch(gx, lead)


def _pair(v):
    if np.isscalar(v):
        return int(v), int(v)
    a, b = v
    return int(a), int(b)


def _patches(image, kernel, stride):
    """im2col of one padded (C, Hp, Wp) image: (C * kh * kw, Ho * Wo).

    Rows are (channel, tap) pairs in weight order, so ``W @ P`` is the image's
    channels-first output; a 1x1 stride-1 kernel reads the image as it is.
    """
    win = sliding_window_view(image, kernel, axis=(1, 2))[:, ::stride[0], ::stride[1]]
    c, ho, wo, kh, kw = win.shape
    return np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(c * kh * kw, ho * wo)


def _correlate(xp, kernel, stride, w=None, g=None):
    """Strided correlation of padded (B, C_in, Hp, Wp) images and its weight adjoint.

    Builds each image's patches once (im2col one image at a time, so they
    never hold a whole batch) and returns ``(y, gw)``: y (B, C_out, Ho, Wo) is
    the correlation with w (C_out, C_in, kh, kw), gw (C_g, C_in, kh, kw) the
    weight gradient for the output gradient g (B, C_g, Ho, Wo); each is None
    when its operand is.
    """
    ho, wo = ((n - k) // s + 1 for n, k, s in zip(xp.shape[2:], kernel, stride))
    batch, cin = xp.shape[:2]
    y = None if w is None else np.empty((batch, w.shape[0], ho * wo))
    gw = None if g is None else np.zeros((g.shape[1], cin * kernel[0] * kernel[1]))
    for b, image in enumerate(xp):
        patches = _patches(image, kernel, stride)
        if y is not None:
            np.matmul(w.reshape(w.shape[0], -1), patches, out=y[b])
        if gw is not None:
            gw += g[b].reshape(g.shape[1], -1) @ patches.T
    return (None if y is None else y.reshape(batch, -1, ho, wo),
            None if gw is None else gw.reshape((g.shape[1], cin) + tuple(kernel)))


_ACC_BLOCK = 1 << 15   # elements of one phase-block accumulator (256 KiB)


def _phase_axis(k, s, p, n):
    """The sub-pixel phases of a stride-s transposed correlation along one axis.

    Uncropped output index r = u + s i collects kernel taps u = r (mod s)
    only. For each residue r: (first cropped output y0, output count, first
    row m0 of the phase's stride-1 output, [(tap u, grid offset a)]); the
    phase reads the gradient zero-padded by ``lead = ceil(k / s) - 1`` in
    front, phase row m and tap u = r + s q at padded row m + lead - q.
    """
    lead = -(-k // s) - 1
    phases = []
    for r in range(s):
        y0 = (r - p) % s
        taps = [(u, lead - (u - r) // s) for u in range(r, k, s)]
        phases.append((y0, len(range(y0, n, s)), (y0 + p - r) // s, taps))
    return lead, phases


def _correlate_input_adjoint(g, w, stride, padding, out_hw, bias=None, out=None):
    """Input gradient (B, C_in, *out_hw) of ``_correlate`` for output gradient g,
    with the padding cropped off, plus ``bias`` when given; written into
    ``out`` when given, else into a new array.

    The output splits into stride_h * stride_w sub-pixel phases (a stride-s
    transposed convolution is s^2 interleaved stride-1 ones; Shi et al. 2016,
    arXiv 1609.07009). Each phase is a stride-1 correlation of the
    zero-padded, channels-first gradient with the flipped sub-kernel of its
    taps: one GEMM per tap from a strided column window of each image's flat
    (C_out, Hg * Wg) grid (tap offset a Wg + b). Its rows go through in
    blocks: the taps accumulate into one preallocated buffer small enough to
    stay in cache, whose rows are Wg wide (the columns past the phase's are
    discarded), and one strided copy writes the block into the phase's view
    of the output. A phase with no taps (kernel smaller than stride) is zero.
    """
    cout, cin, kh, kw = w.shape
    batch, _, ho, wo = g.shape
    (sh, sw), (ph, pw), (h, wd) = stride, padding, out_hw
    lead_h, rows = _phase_axis(kh, sh, ph, h)
    lead_w, cols = _phase_axis(kw, sw, pw, wd)
    # the grid holds every row and column a phase window reads
    hg = max([ho + 2 * lead_h] + [m0 + nh + lead_h for _, nh, m0, _ in rows])
    wg = max([wo + 2 * lead_w] + [n0 + nw + lead_w for _, nw, n0, _ in cols])
    grid = np.zeros((batch, cout, hg, wg))
    grid[:, :, lead_h:lead_h + ho, lead_w:lead_w + wo] = g
    taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0))          # (kh, kw, C_in, C_out)
    if out is None:
        out = np.empty((batch, cin, h, wd))
    # phase rows go through in blocks whose accumulator stays in cache
    block = max(1, _ACC_BLOCK // (cin * wg))
    acc_buf, scratch_buf = np.empty((cin, block * wg)), np.empty((cin, block * wg))
    for b in range(batch):
        flat = grid[b].reshape(cout, -1)
        for y0, nh, m0, taps_h in rows:
            for r0 in range(0, nh, block):
                r = min(block, nh - r0)
                # the column phases fill the same output rows one after another
                for x0, nw, n0, taps_w in cols:
                    if nw == 0:
                        continue
                    dst = out[b, :, y0 + r0 * sh:y0 + (r0 + r) * sh:sh, x0::sw]
                    if not taps_h or not taps_w:
                        dst[...] = 0.0 if bias is None else bias[:, None, None]
                        continue
                    n = (r - 1) * wg + nw
                    start = (m0 + r0) * wg + n0
                    _tap_gemms([taps[u, v] for u, _ in taps_h for v, _ in taps_w], flat,
                               [start + a * wg + c for _, a in taps_h for _, c in taps_w],
                               acc_buf[:, :n], scratch_buf[:, :n])
                    phase = acc_buf[:, :r * wg].reshape(cin, r, wg)[:, :, :nw]
                    if bias is None:
                        dst[...] = phase
                    else:
                        np.add(phase, bias[:, None, None], out=dst)
    return out


class Conv2d(_Conv):
    """2-D convolution with per-axis stride and zero padding."""

    def __init__(self, in_channels, out_channels, kernel_size=3, stride=1,
                 padding=0, bias=True, spectral_norm=False, rng=None):
        self.kernel = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        super().__init__(in_channels, out_channels, self.kernel, bias,
                         spectral_norm, rng)

    def forward(self, x):
        xb, lead = _flatten_batch(x, 3)
        _, cin, h, w = xb.shape
        if cin != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {cin}")
        kh, kw = self.kernel
        ph, pw = self.padding
        if h + 2 * ph < kh or w + 2 * pw < kw:
            raise ValueError("input smaller than kernel")
        weight, sigma = self._effective_weight()
        xp = np.pad(xb, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else xb
        y, _ = _correlate(xp, self.kernel, self.stride, w=weight)
        if self.bias is not None:
            y += self.bias.data[:, None, None]
        return _restore_batch(y, lead), (xp, sigma, lead, (h, w))

    def backward(self, cache, grad_out):
        xp, sigma, lead, hw = cache
        g, _ = _flatten_batch(grad_out, 3)
        _, gw = _correlate(xp, self.kernel, self.stride, g=g)
        self.weight.grad += gw / sigma
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2, 3))
        weight, _ = self._effective_weight()
        gx = _correlate_input_adjoint(g, weight, self.stride, self.padding, hw)
        return _restore_batch(gx, lead)


class Deconv2d(_Conv):
    """Transposed 2-D convolution: Conv2d's input adjoint, channel axes swapped.

    With matching kernel/stride/padding the output size (in - 1) * stride -
    2 * pad + kernel undoes the Conv2d shape map, the encoder/decoder mirror
    symmetry the mask estimator needs.
    """

    def __init__(self, in_channels, out_channels, kernel_size=4, stride=2,
                 padding=1, bias=True, spectral_norm=False, rng=None):
        self.kernel = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        super().__init__(in_channels, out_channels, self.kernel, bias,
                         spectral_norm, rng)

    def out_shape(self, h, w):
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        return (h - 1) * sh - 2 * ph + kh, (w - 1) * sw - 2 * pw + kw

    def forward(self, x, out=None):
        """Output and cache; the output is written into ``out`` (the output's
        shape, any layout whose batch axes merge) and returned as it when given."""
        xb, lead = _flatten_batch(x, 3)
        _, cin, h, w = xb.shape
        if cin != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {cin}")
        ho, wo = self.out_shape(h, w)
        if ho < 1 or wo < 1:
            raise ValueError("deconv output would be empty")
        shape = lead + (self.out_channels, ho, wo)
        yb = None if out is None or out.shape != shape else out.reshape((-1,) + shape[-3:])
        if out is not None and (yb is None or not np.may_share_memory(yb, out)):
            raise ValueError(f"output buffer of shape {out.shape} is not a "
                             f"{shape} array whose batch axes merge")
        weight, sigma = self._effective_weight()
        y = _correlate_input_adjoint(
            xb, weight.transpose(1, 0, 2, 3), self.stride, self.padding, (ho, wo),
            None if self.bias is None else self.bias.data, yb)
        return (_restore_batch(y, lead) if out is None else out), (xb, sigma, lead)

    def backward(self, cache, grad_out):
        xb, sigma, lead = cache
        ph, pw = self.padding
        g, _ = _flatten_batch(grad_out, 3)
        gp = np.pad(g, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        weight, _ = self._effective_weight()
        gx, gw = _correlate(gp, self.kernel, self.stride,
                            w=weight.transpose(1, 0, 2, 3), g=xb)
        self.weight.grad += gw.transpose(1, 0, 2, 3) / sigma
        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2, 3))
        return _restore_batch(gx, lead)


# ---------------------------------------------------------------------------
# instance normalization
# ---------------------------------------------------------------------------

class InstanceNorm2d:
    """Per-channel standardization over the spatial axes of each sample."""

    def __init__(self, channels, eps=1e-5, affine=True):
        self.channels = int(channels)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(channels)) if affine else None
        self.beta = Parameter(np.zeros(channels)) if affine else None

    def forward(self, x):
        xb, lead = _flatten_batch(x, 3)
        if xb.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {xb.shape[1]}")
        mu = xb.mean(axis=(2, 3), keepdims=True)
        var = xb.var(axis=(2, 3), keepdims=True)
        scale = np.sqrt(var + self.eps)
        xhat = (xb - mu) / scale
        y = xhat
        if self.gamma is not None:
            y = self.gamma.data[:, None, None] * xhat + self.beta.data[:, None, None]
        return _restore_batch(y, lead), (xhat, scale, lead)

    def backward(self, cache, grad_out):
        xhat, scale, lead = cache
        g, _ = _flatten_batch(grad_out, 3)
        if self.gamma is not None:
            self.gamma.grad += (g * xhat).sum(axis=(0, 2, 3))
            self.beta.grad += g.sum(axis=(0, 2, 3))
            g = g * self.gamma.data[:, None, None]
        m1 = g.mean(axis=(2, 3), keepdims=True)
        m2 = (g * xhat).mean(axis=(2, 3), keepdims=True)
        gx = (g - m1 - xhat * m2) / scale
        return _restore_batch(gx, lead)

    def named_parameters(self, prefix):
        if self.gamma is not None:
            yield f"{prefix}/gamma", self.gamma
            yield f"{prefix}/beta", self.beta

    def named_state(self, prefix):
        return iter(())
