"""The tap-GEMM engine under every convolution in ``layers``.

A stride-1 correlation of channels-first data laid flat on a zero-padded grid
is one GEMM per kernel tap over a strided column window (``tap_gemms``). Each
tap after the first, or every tap onto a given output, adds into it inside
BLAS, times a sign alpha = +-1 when asked: ``gemm`` calls the cblas_dgemm of
the OpenBLAS in numpy's wheel through ctypes with beta = 1, reading the
windows in place through their leading dimension, and falls back to numpy's
matmul plus an add, which gives the same sums, where that library is missing
or cannot take the operands. ``PhaseGrid`` runs strided 2-D correlations and
their adjoints on the same engine, in cache-sized row blocks that get their
bias, activation and 1x1 head while in cache.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

__all__ = ["gemm", "tap_gemms", "PhaseGrid"]

# ---------------------------------------------------------------------------
# GEMMs that accumulate in place
# ---------------------------------------------------------------------------

_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112     # CBLAS enum values


def _load_dgemm():
    """The ILP64 cblas_dgemm of the OpenBLAS in numpy's wheel, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            fn = ctypes.CDLL(path).scipy_cblas_dgemm64_
        except (OSError, AttributeError):
            continue
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        fn.argtypes = [ctypes.c_int] * 3 + [i64] * 3 + [f64, ptr, i64, ptr, i64, f64, ptr, i64]
        fn.restype = None
        return fn
    return None


_DGEMM = _load_dgemm()


def _blas_args(a, b, c, reads=None):
    """[trans a, lda, trans b, ldb, ldc] of one cblas_dgemm that writes c from
    a @ b in place, or None when there is no bundled BLAS or it cannot take
    the operands: aligned float64 matrices of matching shapes, each with unit
    stride along one axis, and c row-major, writeable and overlapping neither
    of ``reads``, the arrays that a and b are views of (default a and b)."""
    read_a, read_b = (a, b) if reads is None else reads
    if (_DGEMM is None or not a.dtype == b.dtype == c.dtype == np.float64
            or not a.ndim == b.ndim == c.ndim == 2 or not a.size or not b.size
            or c.shape != (a.shape[0], b.shape[1]) or a.shape[1] != b.shape[0]
            or not (a.flags.aligned and b.flags.aligned and c.flags.aligned)
            or not c.flags.writeable or np.may_share_memory(c, read_a)
            or np.may_share_memory(c, read_b)):
        return None
    args = []
    for m in (a, b, c):
        rows, cols = m.shape
        s0 = m.strides[0] if rows > 1 else 8 * cols     # a length-1 axis has any stride
        s1 = m.strides[1] if cols > 1 else 8
        if s1 == 8 and s0 % 8 == 0 and s0 >= 8 * cols:
            args += [_NO_TRANS, s0 // 8]
        elif s0 == 8 and s1 % 8 == 0 and s1 >= 8 * rows and m is not c:
            args += [_TRANS, s1 // 8]
        else:
            return None
    return args[:4] + args[5:]


def gemm(a, b, c, alpha=1.0, beta=1.0):
    """c = alpha a @ b + beta c in place, for beta 0 or 1: one cblas_dgemm
    call when ``_blas_args`` allows it, else numpy's matmul plus an add."""
    return _gemm(_blas_args(a, b, c), a, b, c, alpha, beta)


def _gemm(args, a, b, c, alpha, beta):
    """``gemm`` with its ``_blas_args`` already worked out."""
    if args is None:
        prod = np.matmul(a, b)
        if alpha != 1.0:
            prod *= alpha
        if beta:
            c += prod
        else:
            c[...] = prod
        return c
    ta, lda, tb, ldb, ldc = args
    _DGEMM(_ROW_MAJOR, ta, tb, c.shape[0], c.shape[1], a.shape[1], alpha,
           a.ctypes.data, lda, b.ctypes.data, ldb, beta, c.ctypes.data, ldc)
    return c


def tap_gemms(taps, flat, offsets, acc, alpha=1.0, beta=0.0):
    """acc = alpha sum_t taps[t] @ flat[:, o_t : o_t + n] + beta acc for the
    column offsets o_t, n = acc.shape[1], beta 0 or 1: one GEMM per tap
    straight from a strided column window of the flat grid, each after the
    first (and with beta = 1 the first too) adding into acc inside BLAS.
    Every tap has the same operand shapes, strides and output, so one
    ``_blas_args`` check serves them all."""
    taps, n, offsets = np.asarray(taps), acc.shape[1], list(offsets)
    if n and (min(offsets) < 0 or max(offsets) + n > flat.shape[1]):
        raise ValueError(f"{n}-column tap windows at {offsets} run past the grid {flat.shape}")
    args = _blas_args(taps[0], flat[:, :n], acc, (taps, flat))
    for t, off in enumerate(offsets):
        _gemm(args, taps[t], flat[:, off:off + n], acc, alpha, 1.0 if t else beta)
    return acc


# ---------------------------------------------------------------------------
# 2-D correlation on flat grids
# ---------------------------------------------------------------------------
# A strided correlation regroups its padded input space-to-depth: pixel
# (s_h m + a, s_w n + b) of channel c moves to channel (a, b, c) at (m, n),
# a < r_h = min(s_h, k_h), b < r_w = min(s_w, k_w). Kernel tap
# (s_h q + a, s_w p + b) then reads (i + q, j + p) for output (i, j): a
# stride-1 correlation with ceil(k_h / s_h) x ceil(k_w / s_w) taps. Its input
# adjoint is the stride-1 correlation of the zero-padded output gradient with
# the flipped, transposed taps, regrouped depth-to-space (the sub-pixel
# convolution of Shi et al. 2016, arXiv 1609.07009). On an image laid flat as
# (C, H_g W_g), tap (q, p) is a GEMM over the column window from q W_g + p,
# and output row i is columns [i W_g, i W_g + W_o) of the product.

_ACC_BLOCK = 1 << 17   # elements of one row-block accumulator (1 MiB)


def _grid_rows(taps, flat, offsets, wg, dsts, bias=None, act=None, head=None):
    """sum_t taps[t] @ window_t on the flat grid ``flat`` of row width wg, in
    row blocks whose accumulator stays in cache, one equal share of its
    channels per (view, m0, n0) of ``dsts``. Each block gets ``bias`` (per
    channel of a share) and act(block) in place; then share i of row m,
    column n goes to view[:, m - m0, n - n0] for the i-th of ``dsts``, or with
    head = (w, b), a 1x1 conv, w @ share + b goes there instead. A block's
    rows are a multiple of 16 columns long, so the head's GEMM sums every
    pixel in BLAS's main kernel (the last n % 8 of n columns sum in its tail)."""
    cout, nc = taps.shape[1], taps.shape[1] // len(dsts)
    nh = max(m0 + view.shape[1] for view, m0, _ in dsts)
    nw = max(n0 + view.shape[2] for view, _, n0 in dsts)
    block = max(1, min(nh, _ACC_BLOCK // (cout * wg)))
    buf = np.zeros(cout * -(-block * wg // 16) * 16)     # finite past any block
    bias = None if bias is None else np.tile(bias, len(dsts))[:, None]
    logits = None if head is None else np.empty((head[0].shape[0], len(buf) // cout))
    for r0 in range(0, nh, block):
        r = min(block, nh - r0)
        acc = buf[:cout * -(-r * wg // 16) * 16].reshape(cout, -1)
        tap_gemms(taps, flat, [off + r0 * wg for off in offsets], acc[:, :(r - 1) * wg + nw])
        if bias is not None:
            acc += bias
        if act is not None:
            act(acc)
        for c0, (view, m0, n0) in zip(range(0, cout, nc), dsts):
            lo, hi = max(r0, m0), min(r0 + r, m0 + view.shape[1])
            if lo < hi:
                src = acc[c0:c0 + nc]
                if head is not None:
                    src = gemm(head[0], src, logits[:, :acc.shape[1]], beta=0.0)
                    if head[1] is not None:
                        src += head[1][:, None]
                rows = src[:, :r * wg].reshape(-1, r, wg)
                view[:, lo - m0:hi - m0] = rows[:, lo - r0:hi - r0, n0:n0 + view.shape[2]]


def _phase_span(a, s, p, n, nq):
    """First grid position m0 of residue a along an axis of n samples with
    stride s and padding p, and the slice of the samples at its positions
    m0 <= m < nq (padded index s m + a)."""
    m0 = max(0, -((a - p) // s))
    i0 = s * m0 + a - p
    return m0, slice(i0, i0 + s * max(0, min(nq - m0, -(-(n - i0) // s))), s)


class PhaseGrid:
    """Space-to-depth geometry of a strided correlation of (C, H, W) images,
    with the correlation, its weight adjoint and its input adjoint (see
    above). ``regroup`` builds the flat (B, r_h r_w C, H_q W_q) grids that
    the first two read; a stride-1 unpadded image is its own grid."""

    def __init__(self, hw, kernel, stride, padding):
        (h, w), (kh, kw), (sh, sw), (ph, pw) = hw, kernel, stride, padding
        self.in_hw, self.kernel, self.stride = (h, w), (kh, kw), (sh, sw)
        self.out_hw = ((h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1)
        self.qh, self.qw = -(-kh // sh), -(-kw // sw)
        self.hq, self.wq = self.out_hw[0] + self.qh - 1, self.out_hw[1] + self.qw - 1
        self.identity = (sh, sw, ph, pw) == (1, 1, 0, 0)
        rows = [_phase_span(a, sh, ph, h, self.hq) for a in range(min(sh, kh))]
        cols = [_phase_span(b, sw, pw, w, self.wq) for b in range(min(sw, kw))]
        self.rh, self.rw = len(rows), len(cols)
        # per residue (a, b): its first grid row and column, and its pixels
        self.residues = [(m0, n0, ys, xs) for m0, ys in rows for n0, xs in cols]
        self.covers = (sum(len(range(h)[ys]) for _, ys in rows) == h
                       and sum(len(range(w)[xs]) for _, xs in cols) == w)

    def offsets(self, wg):
        return [q * wg + p for q in range(self.qh) for p in range(self.qw)]

    def regroup(self, x):
        if self.identity:
            return x.reshape(x.shape[:2] + (x.shape[2] * x.shape[3],))
        grid = np.zeros((x.shape[0], len(self.residues), x.shape[1], self.hq, self.wq))
        for i, (m0, n0, ys, xs) in enumerate(self.residues):
            part = x[:, :, ys, xs]
            grid[:, i, :, m0:m0 + part.shape[2], n0:n0 + part.shape[3]] = part
        return grid.reshape(x.shape[0], grid.shape[1] * x.shape[1], self.hq * self.wq)

    def _kernel(self, cout, cin):
        """A zero (C_out, C, q_h s_h, q_w s_w) kernel and its phase-tap view
        (q_h, q_w, C_out, r_h, r_w, C)."""
        (sh, sw), qh, qw = self.stride, self.qh, self.qw
        full = np.zeros((cout, cin, qh, sh, qw, sw))
        view = full[:, :, :, :self.rh, :, :self.rw].transpose(2, 4, 0, 3, 5, 1)
        return full.reshape(cout, cin, qh * sh, qw * sw), view

    def taps(self, w):
        """(taps, C_out, r_h r_w C) phase taps of a (C_out, C, k_h, k_w) kernel."""
        full, view = self._kernel(*w.shape[:2])
        full[:, :, :w.shape[2], :w.shape[3]] = w
        return view.reshape(self.qh * self.qw, w.shape[0], -1)

    def correlate(self, flat, w, bias=None, act=None, out=None):
        """(B, C_out, H_o, W_o) correlation of the regrouped images ``flat``
        with the kernel w, plus ``bias``, then act(output) in place, written
        into ``out`` when given."""
        taps, offsets = self.taps(w), self.offsets(self.wq)
        y = np.empty((flat.shape[0], w.shape[0]) + self.out_hw) if out is None else out
        for image, dst in zip(flat, y):
            _grid_rows(taps, image, offsets, self.wq, [(dst, 0, 0)], bias, act)
        return y

    def weight_adjoint(self, flat, g, alpha):
        """alpha times the kernel gradient (C_g, C, k_h, k_w) of ``correlate``
        for the output gradient g (B, C_g, H_o, W_o): per tap and image, one
        g @ window.T GEMM accumulated inside BLAS."""
        cg, ho, wo = g.shape[1:]
        taps = np.zeros((self.qh * self.qw, cg, flat.shape[1]))
        gz = np.zeros((cg, ho, self.wq))     # g at the grid's row width
        n = (ho - 1) * self.wq + wo
        for image, gb in zip(flat, g):
            gz[:, :, :wo] = gb
            for t, off in enumerate(self.offsets(self.wq)):
                gemm(gz.reshape(cg, -1)[:, :n], image[:, off:off + n].T, taps[t], alpha)
        full, view = self._kernel(cg, flat.shape[1] // len(self.residues))
        view[...] = taps.reshape(view.shape)
        return full[:, :, :self.kernel[0], :self.kernel[1]]

    def input_adjoint(self, g, w, bias=None, out=None, act=None, head=None):
        """Input gradient (B, C, H, W) of ``correlate`` with the kernel w for the
        output gradient g, plus ``bias``, then act(gradient) in place, written
        into ``out`` when given; pixels that no tap reads get act(bias) alone.
        With ``head`` (all pixels read), it is the head's output instead."""
        (batch, cout, ho, wo), cin = g.shape, w.shape[1]
        grid = np.zeros((batch, cout, ho + 2 * self.qh - 2, wo + 2 * self.qw - 2))
        grid[:, :, self.qh - 1:self.qh - 1 + ho, self.qw - 1:self.qw - 1 + wo] = g
        taps = np.ascontiguousarray(self.taps(w)[::-1].transpose(0, 2, 1))
        if out is None:
            out = np.empty((batch, cin if head is None else len(head[0])) + self.in_hw)
        if not self.covers:
            out[...] = 0.0 if bias is None else bias[:, None, None]
            if act is not None:
                act(out)
        wg = grid.shape[3]
        for image, dst in zip(grid, out):
            dsts = [(dst[:, ys, xs], m0, n0) for m0, n0, ys, xs in self.residues]
            _grid_rows(taps, image.reshape(cout, -1), self.offsets(wg), wg, dsts, bias, act, head)
        return out
