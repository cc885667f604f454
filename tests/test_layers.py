"""Layer forward semantics and hand-written backward passes.

Every differentiable layer kind is checked against the central
finite-difference oracle on a batch of random instances at relative
tolerance 1e-4 (denominator max(|a|, |b|, 1e-8)).
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from liftbank import tapgemm
from liftbank.layers import (Activation, Conv1d, Conv2d, Deconv2d, grid_valid, power_iteration,
                             to_grid)
from liftbank.tapgemm import PhaseGrid
from liftbank.numerics import Rng, finite_difference_gradient

GRAD_TOL = 1e-4
N_INSTANCES = 50


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def check_input_gradient(layer, x, seed):
    """Compare layer.backward's input gradient against finite differences."""
    r = Rng(seed).normal(layer.forward(x)[0].shape)

    def objective(v):
        y, _ = layer.forward(v)
        return float(np.sum(y * r))

    numeric = finite_difference_gradient(objective, x)
    y, cache = layer.forward(x)
    analytic = layer.backward(cache, r)
    return rel_err(analytic, numeric)


def check_param_gradients(layer, x, seed):
    """Compare accumulated parameter gradients against finite differences."""
    r = Rng(seed).normal(layer.forward(x)[0].shape)
    for _, p in layer.named_parameters("p"):
        p.zero_grad()
    y, cache = layer.forward(x)
    layer.backward(cache, r)
    worst = 0.0
    for _, p in layer.named_parameters("p"):
        numeric = np.zeros_like(p.data)
        h = 1e-5
        for idx in np.ndindex(*p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + h
            fp = float(np.sum(layer.forward(x)[0] * r))
            p.data[idx] = orig - h
            fm = float(np.sum(layer.forward(x)[0] * r))
            p.data[idx] = orig
            numeric[idx] = (fp - fm) / (2 * h)
        worst = max(worst, rel_err(p.grad, numeric))
    return worst


class TestConv1dForward:
    def test_identity_kernel(self):
        conv = Conv1d(1, 1, 3, rng=Rng(0))
        conv.weight.data[...] = np.array([[[0.0, 1.0, 0.0]]])
        conv.bias.data[...] = 0.0
        y, _ = conv.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(y, [[1.0, 2.0, 3.0]])

    def test_box_kernel_hand_convolution(self):
        conv = Conv1d(1, 1, 3, rng=Rng(0))
        conv.weight.data[...] = 1.0
        conv.bias.data[...] = 0.0
        y, _ = conv.forward(np.array([[1.0, 2.0, 3.0]]))
        # zero padded: [0,1,2,3,0] correlated with ones
        np.testing.assert_allclose(y, [[3.0, 6.0, 5.0]])

    def test_bias_only(self):
        conv = Conv1d(1, 1, 3, rng=Rng(0))
        conv.weight.data[...] = 0.0
        conv.bias.data[...] = 5.0
        y, _ = conv.forward(np.zeros((1, 4)))
        np.testing.assert_allclose(y, [[5.0, 5.0, 5.0, 5.0]])

    def test_channel_mismatch_rejected(self):
        conv = Conv1d(2, 1, 3, rng=Rng(0))
        with pytest.raises(ValueError, match="channels"):
            conv.forward(np.zeros((3, 4)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1d(1, 1, 4, rng=Rng(0))

    def test_length_preserved_all_odd_kernels(self):
        rng = Rng(1)
        for k in (1, 3, 5, 7):
            for length in (1, 2, 5, 16):
                conv = Conv1d(2, 3, k, rng=rng.fork())
                y, _ = conv.forward(rng.normal((2, length)))
                assert y.shape == (3, length)

    def test_batched_matches_loop(self):
        rng = Rng(2)
        conv = Conv1d(2, 3, 3, rng=rng.fork())
        x = rng.normal((4, 2, 10))
        y, _ = conv.forward(x)
        for i in range(4):
            yi, _ = conv.forward(x[i])
            np.testing.assert_allclose(y[i], yi, atol=1e-12)


def loop_conv1d(x, w, b):
    """Reference "same" correlation of one (C_in, L) signal, one output at a time."""
    cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (k // 2, k // 2)))
    y = np.zeros((cout, x.shape[1]))
    for o in range(cout):
        for i in range(x.shape[1]):
            y[o, i] = b[o] + np.sum(w[o] * xp[:, i:i + k])
    return y


class TestConv1dGrid:
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("length", [1, 4, 9])
    def test_forward_matches_loop_reference(self, kernel, length):
        rng = Rng(5)
        conv = Conv1d(2, 3, kernel, rng=rng.fork())
        x = rng.normal((2, 2, length))
        y, _ = conv.forward(x)
        for i in range(x.shape[0]):
            ref = loop_conv1d(x[i], conv.weight.data, conv.bias.data)
            np.testing.assert_allclose(y[i], ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_backward_is_adjoint(self, kernel):
        """<W * x, g> == <x, backward(g)> and, the conv being linear in W,
        <grad W, V> == <V * x, g> for any V (biases off)."""
        rng = Rng(6)
        conv = Conv1d(3, 2, kernel, bias=False, rng=rng.fork())
        x = rng.normal((2, 3, 7))
        g = rng.normal((2, 2, 7))
        conv.weight.zero_grad()
        y, cache = conv.forward(x)
        gx = conv.backward(cache, g)
        assert float(np.sum(y * g)) == pytest.approx(float(np.sum(x * gx)), rel=1e-12)
        v = rng.normal(conv.weight.shape)
        conv_v = Conv1d(3, 2, kernel, bias=False, rng=Rng(0))
        conv_v.weight.data[...] = v
        yv, _ = conv_v.forward(x)
        assert float(np.sum(conv.weight.grad * v)) == pytest.approx(float(np.sum(yv * g)),
                                                                    rel=1e-12)


def _grid_pass(conv, x, g, pad, onto=None, alpha=1.0):
    """forward_grid and backward_grid with the same ``onto`` arrays (copied
    before each call) and alpha, from zero parameter gradients: (output,
    input gradient, weight gradient, bias gradient)."""
    conv.zero_grad()
    y = conv.forward_grid(x, pad, None if onto is None else onto[0].copy(), alpha)
    gx = conv.backward_grid(x, g, pad, None if onto is None else onto[1].copy(), alpha)
    return y, gx, conv.weight.grad.copy(), conv.bias.grad.copy()


class TestConv1dAccumulate:
    """forward_grid / backward_grid with ``onto``: alpha times the plain
    result added onto a given grid inside the tap GEMMs."""

    PAD = 3

    def _setup(self, kernel, batch=2):
        rng = Rng(60 + kernel)
        conv = Conv1d(3, 2, kernel, rng=rng.fork())
        x = to_grid(rng.normal((3, batch, 11)), self.PAD)
        g = to_grid(rng.normal((2, batch, 11)), self.PAD)
        onto = (to_grid(rng.normal((2, batch, 11)), self.PAD),
                to_grid(rng.normal((3, batch, 11)), self.PAD))
        return conv, x, g, onto

    @pytest.mark.parametrize("kernel", [1, 3, 7])
    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_equals_onto_plus_alpha_plain(self, kernel, alpha):
        conv, x, g, onto = self._setup(kernel)
        y, gx = _grid_pass(conv, x, g, self.PAD)[:2]
        y_acc, gx_acc = _grid_pass(conv, x, g, self.PAD, onto, alpha)[:2]
        np.testing.assert_allclose(y_acc, onto[0] + alpha * y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gx_acc, onto[1] + alpha * gx, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel", [1, 3, 7])
    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_pad_columns_stay_zero(self, kernel, alpha):
        conv, x, g, onto = self._setup(kernel)
        p = self.PAD
        for out in _grid_pass(conv, x, g, p, onto, alpha)[:2]:
            assert np.all(out[:, :, :p] == 0.0) and np.all(out[:, :, -p:] == 0.0)

    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_negative_alpha_negates_parameter_gradients_bitwise(self, kernel):
        conv, x, g, onto = self._setup(kernel)
        plus = _grid_pass(conv, x, g, self.PAD, onto, 1.0)[2:]
        minus = _grid_pass(conv, x, g, self.PAD, onto, -1.0)[2:]
        for got, want in zip(minus, plus):
            np.testing.assert_array_equal(got, -want)
        np.testing.assert_array_equal(plus[0], _grid_pass(conv, x, g, self.PAD)[2])

    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_fallback_gives_the_same_sums(self, alpha, monkeypatch):
        conv, x, g, onto = self._setup(5)
        blas = _grid_pass(conv, x, g, self.PAD, onto, alpha)
        monkeypatch.setattr(tapgemm, "_DGEMM", None)
        for got, want in zip(_grid_pass(conv, x, g, self.PAD, onto, alpha), blas):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_empty_batch(self):
        conv, x, g, onto = self._setup(3, batch=0)
        y, gx, gw, gb = _grid_pass(conv, x, g, self.PAD, onto, -1.0)
        assert y.shape == (2, 0, 17) and gx.shape == (3, 0, 17)
        assert not np.any(gw) and not np.any(gb)

    def test_wrong_onto_shape_rejected(self):
        conv, x, g, onto = self._setup(3)
        with pytest.raises(ValueError, match="shape"):
            conv.forward_grid(x, self.PAD, onto[1])
        with pytest.raises(ValueError, match="shape"):
            conv.backward_grid(x, g, self.PAD, grid_valid(onto[1], 1))


class TestLayerBackward:
    def test_identity_kernel_adjoint(self):
        conv = Conv1d(1, 1, 3, rng=Rng(0))
        conv.weight.data[...] = np.array([[[0.0, 1.0, 0.0]]])
        x = Rng(1).normal((1, 6))
        y, cache = conv.forward(x)
        g = Rng(2).normal((1, 6))
        np.testing.assert_allclose(conv.backward(cache, g), g, atol=1e-12)

    def test_zero_grad_out_gives_zeros(self):
        rng = Rng(3)
        conv = Conv1d(2, 2, 3, rng=rng.fork())
        x = rng.normal((2, 5))
        conv.weight.zero_grad()
        conv.bias.zero_grad()
        y, cache = conv.forward(x)
        gin = conv.backward(cache, np.zeros_like(y))
        assert np.all(gin == 0.0)
        assert np.all(conv.weight.grad == 0.0)
        assert np.all(conv.bias.grad == 0.0)

    def test_conv1d_gradients_random_instances(self):
        rng = Rng(10)
        for i in range(N_INSTANCES):
            conv = Conv1d(2, 2, 3, bias=i % 2 == 0, rng=rng.fork())
            x = rng.normal((2, 7))
            assert check_input_gradient(conv, x, seed=1000 + i) <= GRAD_TOL
        conv = Conv1d(2, 3, 5, rng=Rng(77))
        assert check_param_gradients(conv, Rng(78).normal((2, 9)), seed=79) <= GRAD_TOL

    def test_conv2d_gradients_random_instances(self):
        rng = Rng(11)
        for i in range(N_INSTANCES):
            stride = (1, 1) if i % 3 == 0 else (2, 2)
            conv = Conv2d(1, 2, kernel_size=3, stride=stride, padding=1,
                          bias=i % 2 == 0, rng=rng.fork())
            x = rng.normal((1, 6, 6))
            assert check_input_gradient(conv, x, seed=2000 + i) <= GRAD_TOL
        conv = Conv2d(2, 2, kernel_size=4, stride=2, padding=1, rng=Rng(80))
        assert check_param_gradients(conv, Rng(81).normal((2, 6, 6)), seed=82) <= GRAD_TOL

    def test_deconv2d_gradients_random_instances(self):
        rng = Rng(12)
        for i in range(N_INSTANCES):
            deconv = Deconv2d(2, 1, kernel_size=4, stride=2, padding=1,
                              bias=i % 2 == 0, rng=rng.fork())
            x = rng.normal((2, 3, 3))
            assert check_input_gradient(deconv, x, seed=3000 + i) <= GRAD_TOL
        deconv = Deconv2d(2, 2, kernel_size=4, stride=2, padding=1, rng=Rng(83))
        assert check_param_gradients(deconv, Rng(84).normal((2, 3, 3)), seed=85) <= GRAD_TOL

    def test_activation_gradients_random_instances(self):
        rng = Rng(13)
        for i in range(N_INSTANCES):
            kind = ("leaky_relu", "sigmoid")[i % 2]
            act = Activation(kind, 0.2)
            x = rng.normal((3, 8))
            r = rng.normal((3, 8))

            def objective(v):
                y, _ = act.forward(v)
                return float(np.sum(y * r))

            numeric = finite_difference_gradient(objective, x)
            y, cache = act.forward(x)
            analytic = act.backward(cache, r)
            assert rel_err(analytic, numeric) <= GRAD_TOL

    def test_conv2d_deconv2d_shape_mirror(self):
        """Deconv with matching stride/pad/kernel inverts the conv shape map."""
        rng = Rng(15)
        conv = Conv2d(1, 4, kernel_size=4, stride=2, padding=1, rng=rng.fork())
        deconv = Deconv2d(4, 1, kernel_size=4, stride=2, padding=1, rng=rng.fork())
        for h, w in ((8, 8), (16, 12), (32, 8)):
            y, _ = conv.forward(rng.normal((1, h, w)))
            z, _ = deconv.forward(y)
            assert z.shape == (1, h, w)


def loop_conv2d(x, w, b, stride, padding):
    """Reference 2-D correlation of one (C_in, H, W) image, one output at a time."""
    cout, _, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    ho, wo = (xp.shape[1] - kh) // sh + 1, (xp.shape[2] - kw) // sw + 1
    y = np.zeros((cout, ho, wo))
    for o in range(cout):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i * sh:i * sh + kh, j * sw:j * sw + kw]
                y[o, i, j] = b[o] + np.sum(w[o] * patch)
    return y


class TestConv2dKernels:
    @pytest.mark.parametrize("kernel", [3, 4])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    def test_forward_matches_loop_reference(self, stride, padding, kernel):
        rng = Rng(16)
        conv = Conv2d(2, 3, kernel_size=kernel, stride=stride, padding=padding,
                      rng=rng.fork())
        x = rng.normal((2, 2, 7, 9))
        y, _ = conv.forward(x)
        for i in range(x.shape[0]):
            ref = loop_conv2d(x[i], conv.weight.data, conv.bias.data, stride,
                              (padding, padding))
            np.testing.assert_allclose(y[i], ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel, stride, padding, hw", [
        (4, 2, 1, (8, 6)), (3, 1, 1, (5, 7)), (3, 2, 0, (7, 9)),
        ((4, 3), (2, 1), (1, 0), (6, 5))])
    def test_deconv_is_conv_adjoint(self, kernel, stride, padding, hw):
        """<Conv2d_W(x), y> == <x, Deconv2d_W^T(y)> with the biases off."""
        rng = Rng(17)
        conv = Conv2d(2, 3, kernel, stride, padding, bias=False, rng=rng.fork())
        deconv = Deconv2d(3, 2, kernel, stride, padding, bias=False, rng=rng.fork())
        deconv.weight.data[...] = conv.weight.data.transpose(1, 0, 2, 3)
        x = rng.normal((2, 2) + hw)
        cx, _ = conv.forward(x)
        y = rng.normal(cx.shape)
        dy, _ = deconv.forward(y)
        assert dy.shape == x.shape
        assert float(np.sum(cx * y)) == pytest.approx(float(np.sum(x * dy)),
                                                       rel=1e-12, abs=1e-12)


def scatter_input_adjoint(g, w, stride, padding, out_hw):
    """Reference input adjoint of a strided correlation: one scatter-add per tap
    into the padded image, then the padding cropped off."""
    cout, cin, kh, kw = w.shape
    batch, _, ho, wo = g.shape
    (sh, sw), (ph, pw), (h, wd) = stride, padding, out_hw
    full = np.zeros((batch, cin, max(h + 2 * ph, sh * (ho - 1) + kh),
                     max(wd + 2 * pw, sw * (wo - 1) + kw)))
    for u in range(kh):
        for v in range(kw):
            full[:, :, u:u + sh * ho:sh, v:v + sw * wo:sw] += np.einsum(
                "oc,bohw->bchw", w[:, :, u, v], g)
    return full[:, :, ph:ph + h, pw:pw + wd]


# kernel, stride, padding, conv input (H, W): the estimator's k4 s2 p1, kernels
# smaller than the stride (phases with no taps), and odd sizes whose phases
# hold unequal row and column counts
ADJOINT_GEOMETRIES = [
    (4, (2, 2), (1, 1), (8, 10)),
    (4, (2, 2), (1, 1), (7, 9)),
    (3, (2, 2), (1, 1), (7, 8)),
    (3, (2, 1), (1, 0), (7, 9)),
    (3, (1, 1), (1, 1), (5, 6)),
    (1, (1, 1), (0, 0), (5, 6)),
    (1, (2, 2), (0, 0), (7, 6)),
    (4, (2, 3), (1, 2), (9, 11)),
    ((1, 2), (3, 3), (0, 1), (8, 7)),
]


class TestPhaseInputAdjoint:
    @pytest.mark.parametrize("kernel, stride, padding, hw", ADJOINT_GEOMETRIES)
    def test_conv2d_input_gradient_matches_scatter(self, kernel, stride, padding, hw):
        rng = Rng(18)
        conv = Conv2d(3, 2, kernel, stride, padding, rng=rng.fork())
        x = rng.normal((2, 3) + hw)
        y, cache = conv.forward(x)
        g = rng.normal(y.shape)
        gx = conv.backward(cache, g)
        ref = scatter_input_adjoint(g, conv.weight.data, conv.stride, conv.padding, hw)
        assert gx.shape == x.shape and gx.flags.c_contiguous
        np.testing.assert_allclose(gx, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel, stride, padding, hw", ADJOINT_GEOMETRIES)
    def test_deconv2d_forward_matches_scatter(self, kernel, stride, padding, hw):
        rng = Rng(19)
        deconv = Deconv2d(3, 2, kernel, stride, padding, rng=rng.fork())
        x = rng.normal((2, 3) + hw)
        y, _ = deconv.forward(x)
        out_hw = deconv.out_shape(*hw)
        ref = scatter_input_adjoint(x, deconv.weight.data.transpose(1, 0, 2, 3),
                                    deconv.stride, deconv.padding, out_hw)
        ref += deconv.bias.data[:, None, None]
        assert y.shape == (2, 2) + out_hw and y.flags.c_contiguous
        np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)

    def test_phases_without_taps_are_zero(self):
        rng = Rng(20)
        deconv = Deconv2d(3, 2, kernel_size=1, stride=(2, 3), padding=0, bias=False,
                          rng=rng.fork())
        y, _ = deconv.forward(rng.normal((2, 3, 4, 5)))
        assert y.shape == (2, 2, 7, 13)
        hit = np.zeros(y.shape, dtype=bool)
        hit[:, :, ::2, ::3] = True
        assert np.all(y[~hit] == 0.0) and np.all(y[hit] != 0.0)
        conv = Conv2d(3, 2, kernel_size=1, stride=2, padding=0, bias=False,
                      rng=rng.fork())
        y, cache = conv.forward(rng.normal((2, 3, 6, 7)))
        gx = conv.backward(cache, rng.normal(y.shape))
        assert np.all(gx[:, :, 1::2, :] == 0.0) and np.all(gx[:, :, :, 1::2] == 0.0)

    def test_deconv2d_writes_into_out(self):
        """A decoder writes the front channels of its skip-concat buffer."""
        rng = Rng(21)
        deconv = Deconv2d(3, 2, rng=rng.fork())
        x = rng.normal((2, 3, 4, 5))
        cat = np.full((2, 5, 8, 10), 7.0)
        y, _ = deconv.forward(x, out=cat[:, :2])
        assert y is not None and np.shares_memory(y, cat)
        np.testing.assert_array_equal(cat[:, :2], deconv.forward(x)[0])
        np.testing.assert_array_equal(cat[:, 2:], 7.0)
        with pytest.raises(ValueError):
            deconv.forward(x, out=cat[:, :3])

    @pytest.mark.parametrize("lead, hw", [((), (5, 6)), ((2, 3), (7, 10)), ((2,), (64, 40))])
    def test_deconv2d_forward_head_matches_layer_by_layer(self, lead, hw):
        """``forward`` with a head equals Deconv2d.forward -> leaky ReLU -> the
        1x1 head bitwise, and returns no cache. Each output's pixel count is 0
        mod 8; the next test covers 4 mod 8."""
        rng = Rng(23)
        deconv = Deconv2d(6, 16, rng=rng.fork())
        head = Conv2d(16, 1, kernel_size=1, rng=rng.fork())
        act = Activation("leaky_relu", 0.2)
        x = rng.normal(lead + (6,) + hw)
        ref, _ = head.forward(act.forward(deconv.forward(x)[0])[0])
        got, cache = deconv.forward(x, act=act, head=head)
        assert got.shape == ref.shape and got.flags.c_contiguous and cache is None
        np.testing.assert_array_equal(got, ref)

    def test_deconv2d_forward_head_tail_pixels_within_rounding(self):
        """The fused head sums every pixel in BLAS's main GEMM kernel. The
        layer route's head GEMM over a pixel count of 4 mod 8 (22 x 22 here)
        sums its last four pixels in the kernel's tail, in another order: only
        those four may differ, by rounding. In the mask estimator this needs
        depth 1 and a padded height and width that are both 2 mod 4."""
        rng = Rng(24)
        worst = 0.0
        for _ in range(10):
            deconv = Deconv2d(32, 16, rng=rng.fork())
            head = Conv2d(16, 1, kernel_size=1, rng=rng.fork())
            act = Activation("leaky_relu", 0.2)
            x = rng.normal((2, 32, 11, 11))
            ref, _ = head.forward(act.forward(deconv.forward(x)[0])[0])
            got, _ = deconv.forward(x, act=act, head=head)
            flat_ref, flat_got = ref.reshape(2, -1), got.reshape(2, -1)
            np.testing.assert_array_equal(flat_got[:, :-4], flat_ref[:, :-4])
            worst = max(worst, float(np.max(np.abs(flat_got - flat_ref) / np.abs(flat_ref))))
        assert worst <= 1e-14

    def test_deconv2d_forward_head_rejects_what_it_cannot_fuse(self):
        rng = Rng(25)
        x, act = rng.normal((3, 4, 5)), Activation("leaky_relu", 0.2)
        with pytest.raises(ValueError, match="1x1 head"):
            Deconv2d(3, 2, rng=rng.fork()).forward(x, act=act, head=Conv2d(2, 1, 3, padding=1))
        with pytest.raises(ValueError, match="kernel >= stride"):
            Deconv2d(3, 2, kernel_size=1, stride=2, padding=0).forward(
                x, act=act, head=Conv2d(2, 1, 1))

    @pytest.mark.parametrize("cin, cout, kernel, stride, padding", [
        (16, 1, 1, 1, 0), (3, 4, 4, 2, 1), (2, 3, 3, (2, 1), 1)])
    def test_conv2d_forward_head_and_strided(self, cin, cout, kernel, stride, padding):
        """The 1x1 head reads its input with no copy; strided convs im2col."""
        rng = Rng(22)
        conv = Conv2d(cin, cout, kernel, stride, padding, rng=rng.fork())
        x = rng.normal((2, cin, 8, 9))
        y, _ = conv.forward(x)
        assert y.flags.c_contiguous
        for i in range(x.shape[0]):
            ref = loop_conv2d(x[i], conv.weight.data, conv.bias.data, conv.stride,
                              conv.padding)
            np.testing.assert_allclose(y[i], ref, rtol=1e-12, atol=1e-12)


class TestActivations:
    def test_leaky_relu_values(self):
        act = Activation("leaky_relu", 0.2)
        y, _ = act.forward(np.array([1.0, -1.0]))
        np.testing.assert_allclose(y, [1.0, -0.2])

    def test_sigmoid_at_zero(self):
        y, _ = Activation("sigmoid").forward(np.array([0.0]))
        assert y[0] == pytest.approx(0.5)

    def test_sigmoid_open_interval(self):
        y, _ = Activation("sigmoid").forward(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_sigmoid_matches_two_branch_formula(self):
        """The branch-free logistic equals 1 / (1 + e^-x) for x >= 0 and
        e^x / (1 + e^x) below, clamped, with no floating-point warnings."""
        x = np.concatenate([np.linspace(-800.0, 800.0, 16001),
                            [0.0, -0.0, 1e-300, -1e-300, 27.6, -27.6, 36.8, -36.8]])
        ref = np.empty_like(x)
        pos = x >= 0.0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        np.clip(ref, 1e-12, 1.0 - 1e-12, out=ref)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            y, _ = Activation("sigmoid").forward(x)
            z = x.copy()
            z_out = Activation("sigmoid").inplace(z)
        np.testing.assert_allclose(y, ref, rtol=1e-15, atol=0.0)
        assert z_out is z
        np.testing.assert_array_equal(z, y)

    def test_leaky_relu_in_place_on_a_view(self):
        """In place on the front channels of a larger buffer, across several
        blocks, the leaky ReLU matches its out-of-place result and leaves
        the rest of the buffer alone."""
        act = Activation("leaky_relu", 0.2)
        buf = Rng(1).normal((2, 5, 40, 90))
        view = buf[:, :3]
        expected, _ = act.forward(view)
        rest = buf[:, 3:].copy()
        assert act.inplace(view) is view
        np.testing.assert_array_equal(view, expected)
        np.testing.assert_array_equal(buf[:, 3:], rest)

    def test_bad_kind_and_slope(self):
        with pytest.raises(ValueError):
            Activation("relu6")
        with pytest.raises(ValueError):
            Activation("leaky_relu", 1.5)


def spectral_normalize(w, u, iters):
    """The (C_out, C_in) weight ``w`` as a spectral-norm kernel-1 conv uses it
    after ``iters`` power iterations from the unit vector ``u``."""
    conv = Conv1d(w.shape[1], w.shape[0], 1, bias=False, spectral_norm=True)
    conv.weight.data[...] = w[:, :, None]
    conv.sn_u[...] = u
    conv.update_spectral_state(iters)
    return conv._effective_weight()[0][:, :, 0]


class TestSpectralNorm:
    def test_diagonal_matrix_against_svd(self):
        w = np.array([[2.0, 0.0], [0.0, 1.0]])
        u = np.array([0.6, 0.8])
        out = spectral_normalize(w, u, iters=60)
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 0.5]], atol=1e-6)

    def test_identity_unchanged(self):
        w = np.eye(3)
        u = Rng(1).normal((3,))
        u /= np.linalg.norm(u)
        out = spectral_normalize(w, u, iters=30)
        np.testing.assert_allclose(out, np.eye(3), atol=1e-9)

    def test_zero_matrix_guard(self):
        w = np.zeros((3, 3))
        u = np.ones(3) / np.sqrt(3.0)
        out = spectral_normalize(w, u, iters=5)
        np.testing.assert_array_equal(out, w)

    def test_unit_spectral_norm_after_iterations(self):
        """Against the brute-force SVD oracle on random 4x4 matrices."""
        rng = Rng(2)
        for _ in range(50):
            w = rng.normal((4, 4))
            u = rng.normal((4,))
            u /= np.linalg.norm(u)
            out = spectral_normalize(w, u, iters=20)
            top = np.linalg.svd(out, compute_uv=False)[0]
            assert 0.99 <= top <= 1.01

    def test_power_iteration_requires_iters(self):
        with pytest.raises(ValueError):
            power_iteration(np.eye(2), np.array([1.0, 0.0]), 0)

    @pytest.mark.parametrize("make, x_shape", [
        (lambda **kw: Conv1d(2, 2, 3, **kw), (2, 6)),
        (lambda **kw: Conv2d(2, 3, 4, stride=2, padding=1, **kw), (2, 2, 6, 8)),
        (lambda **kw: Deconv2d(2, 3, 4, stride=2, padding=1, **kw), (2, 2, 3, 4)),
    ], ids=["conv1d", "conv2d", "deconv2d"])
    def test_sn_conv_grad_scales_by_sigma(self, make, x_shape):
        """Backward treats the spectral scale as constant for the step: the
        output and both gradients are the plain layer's divided by sigma.
        The backward pass derives sigma with the weight, in one call."""
        rng = Rng(3)
        plain = make(bias=False, rng=Rng(30))
        normed = make(bias=False, spectral_norm=True, rng=Rng(30))
        np.testing.assert_array_equal(normed.weight.data, plain.weight.data)
        x = rng.normal(x_shape)
        yp, cp = plain.forward(x)
        yn, cn = normed.forward(x)
        w2d = normed.weight.data.reshape(normed.out_channels, -1)
        sigma = float(np.linalg.norm(w2d.T @ normed.sn_u))
        assert abs(sigma - 1.0) > 0.1
        np.testing.assert_allclose(yn, yp / sigma, atol=1e-12)
        g = rng.normal(yp.shape)
        gxp = plain.backward(cp, g)
        calls = []
        effective = normed._effective_weight
        normed._effective_weight = lambda: calls.append(1) or effective()
        gxn = normed.backward(cn, g)
        assert len(calls) == 1
        np.testing.assert_allclose(normed.weight.grad, plain.weight.grad / sigma,
                                   atol=1e-12)
        np.testing.assert_allclose(gxn, gxp / sigma, atol=1e-12)

    def test_update_spectral_state_converges(self):
        conv = Conv1d(3, 3, 3, spectral_norm=True, rng=Rng(4))
        for _ in range(40):
            conv.update_spectral_state(1)
        w2d = conv.weight.data.reshape(3, -1)
        sigma_est = float(np.linalg.norm(w2d.T @ conv.sn_u))
        sigma_true = np.linalg.svd(w2d, compute_uv=False)[0]
        assert sigma_est == pytest.approx(sigma_true, rel=1e-6)


def loop_conv2d_weight_grad(x, g, kernel, stride, padding):
    """Reference kernel gradient sum_b sum_ij g[b, o, i, j] xp[b, c, i sh + u, j sw + v]."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    _, _, ho, wo = g.shape
    gw = np.zeros((g.shape[1], x.shape[1], kh, kw))
    for u in range(kh):
        for v in range(kw):
            win = xp[:, :, u:u + sh * (ho - 1) + 1:sh, v:v + sw * (wo - 1) + 1:sw]
            gw[:, :, u, v] = np.einsum("bohw,bchw->oc", g, win)
    return gw


# kernel, stride, padding, input (H, W): the estimator's k4 s2 p1, a stride-1
# 3x3, the 1x1 head, stride (2, 3), kernels smaller than the stride and odd sizes
SPACE_TO_DEPTH_GEOMETRIES = [
    (4, (2, 2), (1, 1), (8, 10)),
    (4, (2, 2), (1, 1), (7, 9)),
    (3, (1, 1), (1, 1), (5, 6)),
    (1, (1, 1), (0, 0), (5, 6)),
    (4, (2, 3), (1, 2), (9, 11)),
    ((3, 2), (2, 3), (1, 0), (8, 13)),
    (1, (2, 2), (0, 0), (7, 6)),
    ((1, 2), (3, 3), (0, 1), (8, 7)),
]


class TestSpaceToDepthConv2d:
    @pytest.mark.parametrize("kernel, stride, padding, hw", SPACE_TO_DEPTH_GEOMETRIES)
    def test_forward_and_backward_match_loops(self, kernel, stride, padding, hw):
        rng = Rng(36)
        conv = Conv2d(3, 4, kernel, stride, padding, rng=rng.fork())
        x = rng.normal((2, 3) + hw)
        y, cache = conv.forward(x)
        for i in range(x.shape[0]):
            ref = loop_conv2d(x[i], conv.weight.data, conv.bias.data, conv.stride,
                              conv.padding)
            np.testing.assert_allclose(y[i], ref, rtol=1e-12, atol=1e-12)
        g = rng.normal(y.shape)
        gx = conv.backward(cache, g)
        np.testing.assert_allclose(
            conv.weight.grad, loop_conv2d_weight_grad(x, g, conv.kernel, conv.stride,
                                                      conv.padding),
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(conv.bias.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12)
        np.testing.assert_allclose(
            gx, scatter_input_adjoint(g, conv.weight.data, conv.stride, conv.padding, hw),
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel, stride, padding, hw", SPACE_TO_DEPTH_GEOMETRIES[:6])
    def test_deconv_backward_matches_loops(self, kernel, stride, padding, hw):
        """Deconv2d's input gradient is the strided correlation of its output
        gradient, and its kernel gradient that correlation's weight adjoint."""
        rng = Rng(37)
        deconv = Deconv2d(3, 2, kernel, stride, padding, rng=rng.fork())
        x = rng.normal((2, 3) + hw)
        y, cache = deconv.forward(x)
        g = rng.normal(y.shape)
        gx = deconv.backward(cache, g)
        w = deconv.weight.data.transpose(1, 0, 2, 3)
        for i in range(x.shape[0]):
            ref = loop_conv2d(g[i], w, np.zeros(3), deconv.stride, deconv.padding)
            np.testing.assert_allclose(gx[i], ref, rtol=1e-12, atol=1e-12)
        ref = loop_conv2d_weight_grad(g, x, deconv.kernel, deconv.stride, deconv.padding)
        np.testing.assert_allclose(deconv.weight.grad, ref.transpose(1, 0, 2, 3),
                                   rtol=1e-12, atol=1e-12)

    def test_stride1_unpadded_grid_is_the_image(self):
        x = Rng(38).normal((2, 16, 8, 9))
        phases = PhaseGrid((8, 9), (1, 1), (1, 1), (0, 0))
        assert np.shares_memory(phases.regroup(x), x) and phases.offsets(9) == [0]


class TestActivationBackward:
    @pytest.mark.parametrize("kind", ["leaky_relu", "sigmoid"])
    def test_bitwise_equal_to_formula(self, kind):
        """Across several blocks and on a strided gradient view."""
        rng = Rng(39)
        act = Activation(kind, 0.2)
        y, cache = act.forward(rng.normal((3, 7, 40, 50)))
        g = rng.normal((3, 9, 40, 50))[:, 1:8]
        if kind == "leaky_relu":
            want = g * np.maximum(cache >= 0.0, 0.2)
        else:
            want = g * cache * (1.0 - cache)
        np.testing.assert_array_equal(act.backward(cache, g), want)

    @pytest.mark.parametrize("kind", ["leaky_relu", "sigmoid"])
    def test_forward_keeps_input_and_backward_writes_out(self, kind):
        """forward returns a new array; backward given ``out`` = the
        gradient writes the same values over it."""
        rng = Rng(41)
        act = Activation(kind, 0.3)
        x = rng.normal((2, 5, 33))
        x0 = x.copy()
        y, cache = act.forward(x)
        assert y is cache and not np.shares_memory(y, x)
        np.testing.assert_array_equal(x, x0)
        g = rng.normal(x.shape)
        want = act.backward(cache, g)
        assert act.backward(cache, g, out=g) is g
        np.testing.assert_array_equal(g, want)

    @pytest.mark.parametrize("kind", ["leaky_relu", "sigmoid"])
    def test_allocates_only_the_result(self, kind):
        rng = Rng(40)
        act = Activation(kind, 0.2)
        _, cache = act.forward(rng.normal((4, 8, 128, 128)))
        g = rng.normal(cache.shape)
        act.backward(cache, g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = act.backward(cache, g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (1 << 20)
