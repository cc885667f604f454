"""The tap-GEMM engine: the accumulating GEMM against numpy's matmul, its
fallback, and every convolution on both paths."""

import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from liftbank import tapgemm
from liftbank.layers import Conv1d, Conv2d, Deconv2d
from liftbank.lifting import LiftingConfig, LiftingTransform
from liftbank.numerics import Rng


def _blas_calls(monkeypatch):
    """Count cblas_dgemm calls while still making them."""
    if tapgemm._DGEMM is None:
        pytest.skip("this numpy does not bundle scipy-openblas64")
    calls = []
    real = tapgemm._DGEMM

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(tapgemm, "_DGEMM", spy)
    return calls


def _conv_pass(layer, x, seed):
    """Output, input gradient and parameter gradients of one forward/backward."""
    for _, p in layer.named_parameters("c"):
        p.zero_grad()
    y, cache = layer.forward(x)
    gx = layer.backward(cache, Rng(seed).normal(y.shape))
    return [y, gx] + [p.grad.copy() for _, p in layer.named_parameters("c")]


class TestAccumulatingGemm:
    def test_bundled_blas_resolves(self):
        """numpy's wheel ships OpenBLAS; without this check a silent fallback to
        matmul plus add would quietly lose the in-place accumulation."""
        libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        if not glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
            pytest.skip("this numpy does not bundle scipy-openblas64")
        assert tapgemm._DGEMM is not None

    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (1.0, 1.0), (0.25, 1.0)])
    def test_matches_matmul_on_strided_operands(self, alpha, beta, monkeypatch):
        rng = Rng(30)
        flat = rng.normal((5, 40))
        a = rng.normal((3, 5))
        g = rng.normal((3, 31))
        c = rng.normal((3, 31))
        ref = alpha * (a @ flat[:, 4:35]) + beta * c
        calls = _blas_calls(monkeypatch)
        tapgemm.gemm(a, flat[:, 4:35], c, alpha, beta)
        np.testing.assert_allclose(c, ref, rtol=1e-14, atol=1e-14)
        gw = np.zeros((3, 5))
        tapgemm.gemm(g, flat[:, 2:33].T, gw, alpha, beta)        # transposed window
        np.testing.assert_allclose(gw, alpha * (g @ flat[:, 2:33].T), rtol=1e-13)
        assert len(calls) == 2

    def test_falls_back_when_blas_cannot_take_operands(self, monkeypatch):
        """Non-unit inner stride, an output overlapping an operand, an unaligned
        operand and non-float64 input each go through matmul, with the same
        result."""
        rng = Rng(31)
        a, b = rng.normal((4, 6)), rng.normal((6, 20))
        calls = _blas_calls(monkeypatch)
        c = np.zeros((4, 20))
        tapgemm.gemm(a, b, c)                                    # reaches BLAS
        np.testing.assert_allclose(c, a @ b, rtol=1e-14)
        c[...] = 0.0
        tapgemm.gemm(a, b[:, ::2], c[:, :10])                    # operand stride 2
        np.testing.assert_array_equal(c[:, :10], a @ b[:, ::2])
        strided = np.zeros((4, 20))
        tapgemm.gemm(a, b[:, ::2], strided[:, ::2])              # output stride 2
        np.testing.assert_array_equal(strided[:, ::2], a @ b[:, ::2])
        buf = rng.normal((6, 6))
        expected = buf[:, :3] + buf @ buf[:, 3:]
        tapgemm.gemm(buf, buf[:, 3:], buf[:, :3])                # overlapping output
        np.testing.assert_allclose(buf[:, :3], expected, rtol=1e-14)
        unaligned = np.zeros(a.nbytes + 1, dtype=np.uint8)[1:].view(np.float64).reshape(4, 6)
        unaligned[...] = a
        c[...] = 0.0
        tapgemm.gemm(unaligned, b, c)                            # unaligned operand
        np.testing.assert_array_equal(c, a @ b)
        a32, b32 = a.astype(np.float32), b.astype(np.float32)
        c32 = np.zeros((4, 20), dtype=np.float32)
        tapgemm.gemm(a32, b32, c32)
        np.testing.assert_allclose(c32, a32 @ b32, rtol=1e-6)
        assert len(calls) == 1      # only the first call reached BLAS

    def test_tap_windows_must_fit_the_grid(self):
        rng = Rng(32)
        taps, flat = rng.normal((2, 3, 4)), rng.normal((4, 10))
        acc = np.empty((3, 8))
        tapgemm.tap_gemms(taps, flat, [0, 2], acc)
        np.testing.assert_allclose(acc, taps[0] @ flat[:, :8] + taps[1] @ flat[:, 2:],
                                   rtol=1e-14)
        with pytest.raises(ValueError):
            tapgemm.tap_gemms(taps, flat, [0, 3], acc)       # runs past the grid

    @pytest.mark.parametrize("blas", [True, False], ids=["blas", "matmul"])
    def test_one_operand_check_per_call_matches_per_tap_gemm(self, blas, monkeypatch):
        """Every tap of one call shares its operand shapes, strides and output,
        so ``tap_gemms`` checks them once, and its sum is bitwise that of one
        ``gemm`` per tap on either route."""
        if not blas:
            monkeypatch.setattr(tapgemm, "_DGEMM", None)
        rng = Rng(37)
        taps, flat = rng.normal((3, 4, 5)), rng.normal((5, 60))
        checks, real = [], tapgemm._blas_args
        monkeypatch.setattr(tapgemm, "_blas_args", lambda *a: checks.append(a) or real(*a))
        for alpha, beta in [(1.0, 0.0), (-1.0, 1.0)]:
            acc = rng.normal((4, 40))
            want = acc.copy()
            for t, off in enumerate([0, 7, 20]):
                tapgemm.gemm(taps[t], flat[:, off:off + 40], want, alpha, 1.0 if t else beta)
            checks.clear()
            tapgemm.tap_gemms(taps, flat, [0, 7, 20], acc, alpha, beta)
            assert len(checks) == 1
            np.testing.assert_array_equal(acc, want)

    def test_output_overlapping_any_tap_window_falls_back(self, monkeypatch):
        """The one check covers every window: an output that overlaps only
        the last tap's window (one grid row, so the others' bounds are clear
        of it) still goes through matmul, tap by tap."""
        calls = _blas_calls(monkeypatch)
        rng = Rng(38)
        taps, flat = rng.normal((3, 1, 1)), rng.normal((1, 60))
        want = flat.copy()
        for t, off in enumerate([0, 20, 40]):
            want[:, 45:55] += taps[t] @ want[:, off:off + 10]
        tapgemm.tap_gemms(taps, flat, [0, 20, 40], flat[:, 45:55], beta=1.0)
        np.testing.assert_allclose(flat, want, rtol=1e-14, atol=1e-14)
        assert calls == []

    def test_fallback_is_bitwise_for_conv1d_and_lifting(self, monkeypatch):
        rng = Rng(33)
        conv = Conv1d(5, 4, 5, rng=rng.fork())
        x = rng.normal((3, 5, 37))
        config = LiftingConfig(num_stages=3, base_channels=4)
        transform = LiftingTransform(config, rng.fork())
        signal = rng.normal((2, 256))
        blas = _conv_pass(conv, x, 1), transform.inverse(transform.forward(signal))
        monkeypatch.setattr(tapgemm, "_DGEMM", None)
        fallback = _conv_pass(conv, x, 1), transform.inverse(transform.forward(signal))
        for got, want in zip(fallback[0], blas[0]):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(fallback[1], blas[1])

    @pytest.mark.parametrize("cls, cin, cout, kernel, stride, padding", [
        (Conv2d, 3, 4, 4, 2, 1), (Conv2d, 2, 3, 3, 1, 1), (Deconv2d, 4, 3, 4, 2, 1),
        (Deconv2d, 3, 2, 3, (2, 1), (1, 0)),
        pytest.param(functools.partial(Conv2d, spectral_norm=True), 3, 4, 4, 2, 1,
                     id="Conv2d-spectral_norm-3-4-4-2-1"),
        pytest.param(functools.partial(Deconv2d, spectral_norm=True), 4, 3, 4, 2, 1,
                     id="Deconv2d-spectral_norm-4-3-4-2-1")])
    def test_fallback_matches_blas_for_2d(self, cls, cin, cout, kernel, stride, padding,
                                          monkeypatch):
        rng = Rng(34)
        layer = cls(cin, cout, kernel, stride, padding, rng=rng.fork())
        x = rng.normal((2, cin, 7, 9))
        blas = _conv_pass(layer, x, 2)
        monkeypatch.setattr(tapgemm, "_DGEMM", None)
        for got, want in zip(_conv_pass(layer, x, 2), blas):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_concurrent_conv1d_equals_serial(self):
        rng = Rng(35)
        conv = Conv1d(8, 8, 3, rng=rng.fork())
        inputs = [rng.normal((4, 8, 2048)) for _ in range(6)]
        serial = [conv.forward(x)[0] for x in inputs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                futures = [pool.submit(conv.forward, x) for x in inputs]
                for fut, want in zip(futures, serial):
                    np.testing.assert_array_equal(fut.result(timeout=60)[0], want)


class _Tally(np.ndarray):
    """An array that adds what is written into it: a pixel written twice
    reads double, one never written reads 0."""

    def __setitem__(self, key, value):
        np.ndarray.__setitem__(self, key, np.asarray(self[key]) + value)


class TestRowBlocks:
    """``_grid_rows`` finishes each row block of the accumulator (bias,
    activation, 1x1 head) while it is in cache, then writes it out."""

    @pytest.mark.parametrize("acc_block", [1, 300, 1 << 17])
    @pytest.mark.parametrize("kernel, stride", [((4, 4), (2, 2)), ((3, 3), (2, 1))])
    @pytest.mark.parametrize("with_head", [False, True])
    def test_block_step_covers_each_output_pixel_once(self, kernel, stride, acc_block,
                                                      with_head, monkeypatch):
        """Blocks of one row, of a few rows with a shorter last one, and of the
        whole image: the block step runs once on every output pixel of every
        residue, and only on finite values, so nothing from the accumulator's
        unwritten or padding columns (which the head's GEMM reads too) reaches
        the output. With a head, the output is the head's, of the stepped block."""
        rng = Rng(36)
        phases = tapgemm.PhaseGrid((13, 11), kernel, stride, (1, 1))
        g = rng.normal((2, 5) + phases.out_hw)
        w, bias = rng.normal((5, 3) + kernel), rng.normal((3,))
        head_w, head_b = rng.normal((2, 3)), rng.normal((2,))
        want = phases.input_adjoint(g, w, bias) + 1.0
        if with_head:
            want = np.einsum("oc,bchw->bohw", head_w, want) + head_b[:, None, None]
        monkeypatch.setattr(tapgemm, "_ACC_BLOCK", acc_block)
        blocks = []

        def step(block):
            assert np.all(np.isfinite(block))
            blocks.append(block.shape)
            block += 1.0
        out = np.zeros(want.shape).view(_Tally)
        phases.input_adjoint(g, w, bias, out, step, (head_w, head_b) if with_head else None)
        per_image = len(blocks) // 2
        assert per_image == 1 if acc_block == 1 << 17 else per_image > 2
        if with_head:
            np.testing.assert_allclose(np.asarray(out), want, rtol=1e-12, atol=1e-12)
        else:
            np.testing.assert_array_equal(np.asarray(out), want)
