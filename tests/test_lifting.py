"""Structural operators and the invertible transform.

Perfect reconstruction is the central property here: it must hold for any
parameters at all, linear or not, to within 1e-9 in 64-bit.
"""

import tracemalloc

import numpy as np
import pytest

from liftbank.layers import grid_valid, to_grid
from liftbank.lifting import (CouplingBlock, LiftingConfig, LiftingTransform,
                              coupling_forward, coupling_inverse,
                              invertible_downsample, invertible_upsample,
                              split, split_inverse)
from liftbank.numerics import Rng, pad_to_multiple


class TestSplit:
    def test_even_odd_assignment(self):
        a, b = split(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), 4)
        assert a.shape == b.shape == (4, 3)
        np.testing.assert_array_equal(a[0], [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(b[0], [2.0, 4.0, 6.0])
        assert np.all(a[1:] == 0.0)
        assert np.all(b[1:] == 0.0)

    def test_element_count_is_four_times_input(self):
        a, b = split(Rng(0).normal((64,)), 4)
        assert a.size + b.size == 4 * 64

    def test_round_trip_exact(self):
        x = Rng(1).normal((32,))
        a, b = split(x, 4)
        np.testing.assert_array_equal(split_inverse(a, b), x)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="not even"):
            split(np.ones(7), 4)

    def test_inverse_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            split_inverse(np.zeros((4, 3)), np.zeros((4, 2)))

    def test_zero_branches_give_zero_signal(self):
        x = split_inverse(np.zeros((4, 5)), np.zeros((4, 5)))
        assert np.all(x == 0.0)


class TestInvertibleResampling:
    def test_downsample_values(self):
        y = invertible_downsample(np.array([[1.0, 2.0, 3.0, 4.0]]))
        np.testing.assert_array_equal(y, [[1.0, 3.0], [2.0, 4.0]])

    def test_upsample_values(self):
        y = invertible_upsample(np.array([[1.0, 3.0], [2.0, 4.0]]))
        np.testing.assert_array_equal(y, [[1.0, 2.0, 3.0, 4.0]])

    def test_round_trips_bitwise(self):
        x = Rng(2).normal((4, 32))
        np.testing.assert_array_equal(invertible_upsample(invertible_downsample(x)), x)
        y = Rng(3).normal((8, 16))
        np.testing.assert_array_equal(invertible_downsample(invertible_upsample(y)), y)

    def test_shape_map(self):
        y = invertible_downsample(np.zeros((4, 32)))
        assert y.shape == (8, 16)

    def test_odd_sizes_rejected(self):
        with pytest.raises(ValueError):
            invertible_downsample(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            invertible_upsample(np.zeros((3, 4)))


def adds(fn):
    """``fn`` as a fused coupling predictor: predict(v, onto, alpha) adds
    alpha fn(v) onto ``onto`` in place and returns it, as the blocks do."""
    def predict(v, onto, alpha):
        onto += alpha * fn(v)
        return onto
    return predict


class TestCoupling:
    def test_identity_predictor(self):
        a2, b2 = coupling_forward(np.array([[1.0]]), np.array([[2.0]]), adds(lambda v: v))
        np.testing.assert_array_equal(a2, [[2.0]])
        np.testing.assert_array_equal(b2, [[3.0]])
        a, b = coupling_inverse(a2, b2, adds(lambda v: v))
        np.testing.assert_array_equal(a, [[1.0]])
        np.testing.assert_array_equal(b, [[2.0]])

    def test_zero_predictor_is_swap(self):
        a = Rng(4).normal((2, 3))
        b = Rng(5).normal((2, 3))
        a2, b2 = coupling_forward(a.copy(), b.copy(), adds(np.zeros_like))
        np.testing.assert_array_equal(a2, b)
        np.testing.assert_array_equal(b2, a)
        back = coupling_inverse(a2, b2, adds(np.zeros_like))
        np.testing.assert_array_equal(back[0], a)
        np.testing.assert_array_equal(back[1], b)

    def test_random_predictor_round_trip(self):
        rng = Rng(6)
        w = rng.normal((3, 3))

        def predictor(v):
            return np.tanh(w @ v)

        a = rng.normal((3, 5))
        b = rng.normal((3, 5))
        a2, b2 = coupling_forward(a.copy(), b.copy(), adds(predictor))
        back_a, back_b = coupling_inverse(a2, b2, adds(predictor))
        assert float(np.max(np.abs(back_a - a))) <= 1e-12
        assert float(np.max(np.abs(back_b - b))) <= 1e-12

    def test_forward_of_inverse_is_identity(self):
        rng = Rng(7)
        w = rng.normal((2, 2))

        def predictor(v):
            return w @ np.abs(v)

        a = rng.normal((2, 4))
        b = rng.normal((2, 4))
        mid = coupling_inverse(a.copy(), b.copy(), adds(predictor))
        back = coupling_forward(mid[0], mid[1], adds(predictor))
        assert float(np.max(np.abs(back[0] - a))) <= 1e-12
        assert float(np.max(np.abs(back[1] - b))) <= 1e-12

    def test_round_trip_with_pathological_predictor_scale(self):
        """Invertibility is structural; error stays at relative roundoff even
        when the predictor output dwarfs the branches."""
        rng = Rng(8)

        def predictor(v):
            return 1e6 * np.sin(v)

        a = rng.normal((2, 4))
        b = rng.normal((2, 4))
        back = coupling_inverse(*coupling_forward(a.copy(), b.copy(), adds(predictor)),
                                adds(predictor))
        assert float(np.max(np.abs(back[0] - a))) <= 1e-8
        assert float(np.max(np.abs(back[1] - b))) <= 1e-8

    def test_shape_changing_predictor_rejected(self):
        """A block adds its output onto the other branch only when the shapes
        match, forward and backward."""
        block = CouplingBlock(2, LiftingConfig(), Rng(9))
        grid = to_grid(Rng(10).normal((2, 2, 4)), block.pad)
        wrong = np.zeros((2, 2, 3 + 2 * block.pad))
        with pytest.raises(ValueError, match="shape"):
            coupling_forward(wrong, grid, lambda v, onto, alpha: block.forward(v, onto, alpha)[0])
        _, cache = block.forward(grid)
        with pytest.raises(ValueError, match="shape"):
            block.backward(cache, grid, wrong)

    def test_block_coupling_round_trip(self):
        """The fused couplings on a real block: forward writes a + F(b) over
        a, the inverse b - F(a) over b, and each gives back the other's input."""
        block = CouplingBlock(3, LiftingConfig(kernel_sizes=(5, 3, 1)), Rng(11))
        rng = Rng(12)
        a, b = (to_grid(rng.normal((3, 2, 9)), block.pad) for _ in range(2))
        predict = lambda v, onto, alpha: block.forward(v, onto, alpha)[0]   # noqa: E731
        want = a + block.forward(b)[0]
        a2, b2 = coupling_forward(a.copy(), b.copy(), predict)
        assert a2 is not b2
        np.testing.assert_array_equal(a2, b)
        np.testing.assert_allclose(b2, want, rtol=1e-12, atol=1e-12)
        back_a, back_b = coupling_inverse(a2, b2, predict)
        np.testing.assert_allclose(back_a, a, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(back_b, b)
        assert np.all(grid_pads(back_a, block.pad) == 0.0)


class TestConfig:
    def test_channel_law(self):
        cfg = LiftingConfig()
        assert [cfg.channels(j) for j in range(1, 7)] == [4, 8, 16, 32, 64, 128]
        assert cfg.merged_channels == 256
        assert cfg.time_divisor == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            LiftingConfig(num_stages=0)
        with pytest.raises(ValueError):
            LiftingConfig(kernel_sizes=(2,))
        with pytest.raises(ValueError):
            LiftingConfig(kernel_sizes=())
        with pytest.raises(ValueError, match="slope"):
            LiftingConfig(leaky_slope=1.0)


class TestTransform:
    def test_default_shape_law(self):
        tf = LiftingTransform(rng=Rng(0))
        phi = tf.forward(Rng(1).normal((64,)))
        assert phi.shape == (256, 1)
        phi = tf.forward(Rng(2).normal((6400,)))
        assert phi.shape == (256, 100)
        assert phi.size == 4 * 6400

    def test_zero_input_linear_variant(self):
        tf = LiftingTransform(LiftingConfig(linear_variant=True), Rng(3))
        phi = tf.forward(np.zeros(128))
        assert np.all(phi == 0.0)
        np.testing.assert_allclose(tf.inverse(phi), np.zeros(128), atol=1e-15)

    def test_indivisible_length_rejected(self):
        tf = LiftingTransform(rng=Rng(4))
        with pytest.raises(ValueError, match="64"):
            tf.forward(np.zeros(100))

    def test_wrong_feature_channels_rejected(self):
        tf = LiftingTransform(rng=Rng(5))
        with pytest.raises(ValueError, match="channels"):
            tf.inverse(np.zeros((128, 2)))

    def test_perfect_reconstruction_all_stage_counts(self):
        rng = Rng(6)
        for num_stages in range(1, 7):
            for linear in (False, True):
                cfg = LiftingConfig(num_stages=num_stages, linear_variant=linear)
                tf = LiftingTransform(cfg, rng.fork())
                x = rng.normal((256,))
                err = float(np.max(np.abs(tf.inverse(tf.forward(x)) - x)))
                assert err <= 1e-9, (num_stages, linear, err)

    def test_perfect_reconstruction_many_draws(self):
        rng = Rng(7)
        for _ in range(100):
            tf = LiftingTransform(rng=rng.fork())
            x = rng.normal((256,))
            assert float(np.max(np.abs(tf.inverse(tf.forward(x)) - x))) <= 1e-9

    def test_nonlinear_round_trip_is_structural(self):
        """Invertibility survives the nonlinearity in the predictors."""
        cfg = LiftingConfig(leaky_slope=0.3)
        tf = LiftingTransform(cfg, Rng(8))
        x = 5.0 * Rng(9).normal((512,))
        assert float(np.max(np.abs(tf.inverse(tf.forward(x)) - x))) <= 1e-9

    def test_spectral_norm_blocks_round_trip(self):
        cfg = LiftingConfig(num_stages=3, spectral_norm=True)
        tf = LiftingTransform(cfg, Rng(10))
        x = Rng(11).normal((128,))
        assert float(np.max(np.abs(tf.inverse(tf.forward(x)) - x))) <= 1e-9

    def test_linear_variant_is_linear(self):
        tf = LiftingTransform(LiftingConfig(linear_variant=True), Rng(12))
        rng = Rng(13)
        x = rng.normal((256,))
        y = rng.normal((256,))
        lhs = tf.forward(2.5 * x - 1.25 * y)
        rhs = 2.5 * tf.forward(x) - 1.25 * tf.forward(y)
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-9
        phi_x, phi_y = tf.forward(x), tf.forward(y)
        lhs_inv = tf.inverse(0.5 * phi_x + 2.0 * phi_y)
        rhs_inv = 0.5 * tf.inverse(phi_x) + 2.0 * tf.inverse(phi_y)
        assert float(np.max(np.abs(lhs_inv - rhs_inv))) <= 1e-9

    def test_nonlinear_variant_is_not_linear(self):
        tf = LiftingTransform(LiftingConfig(num_stages=3), Rng(14))
        x = Rng(15).normal((64,))
        lhs = tf.forward(2.0 * x)
        rhs = 2.0 * tf.forward(x)
        assert float(np.max(np.abs(lhs - rhs))) > 1e-6

    def test_batched_matches_loop(self):
        tf = LiftingTransform(LiftingConfig(num_stages=3), Rng(16))
        x = Rng(17).normal((5, 128))
        phi = tf.forward(x)
        assert phi.shape == (5, 32, 16)
        for i in range(5):
            np.testing.assert_allclose(phi[i], tf.forward(x[i]), atol=1e-12)
        back = tf.inverse(phi)
        np.testing.assert_allclose(back, x, atol=1e-9)

    def test_forward_vjp_matches_finite_differences(self):
        rng = Rng(18)
        tf = LiftingTransform(LiftingConfig(num_stages=2), rng.fork())
        x = rng.normal((32,))
        r = rng.normal((16, 8))

        def objective(v):
            return float(np.sum(tf.forward(v) * r))

        from liftbank.numerics import finite_difference_gradient
        numeric = finite_difference_gradient(objective, x)
        phi, cache = tf.forward_with_cache(x)
        tf.zero_grad()
        analytic = tf.forward_vjp(cache, r)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert float(np.max(np.abs(analytic - numeric) / denom)) <= 1e-4

    def test_inverse_vjp_matches_finite_differences(self):
        rng = Rng(19)
        tf = LiftingTransform(LiftingConfig(num_stages=2), rng.fork())
        phi = rng.normal((16, 8))
        r = rng.normal((32,))

        def objective(v):
            return float(np.sum(tf.inverse(v) * r))

        from liftbank.numerics import finite_difference_gradient
        numeric = finite_difference_gradient(objective, phi)
        x, cache = tf.inverse_with_cache(phi)
        tf.zero_grad()
        analytic = tf.inverse_vjp(cache, r)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert float(np.max(np.abs(analytic - numeric) / denom)) <= 1e-4

    @pytest.mark.parametrize("num_stages", range(1, 7))
    @pytest.mark.parametrize("predictor", [
        {}, {"linear_variant": True}, {"spectral_norm": True}, {"kernel_sizes": (5, 3, 3)}],
        ids=["nonlinear", "linear", "spectral", "k533"])
    def test_vjps_invert_each_other(self, num_stages, predictor):
        """inverse(forward(x)) = x, so J_fwd^T J_inv^T = I at any parameters:
        the analysis VJP undoes the synthesis VJP at every stage count."""
        rng = Rng(40 + num_stages)
        tf = LiftingTransform(LiftingConfig(num_stages=num_stages, **predictor), rng.fork())
        x = rng.normal((3, 256))
        phi, fwd_cache = tf.forward_with_cache(x)
        _, inv_cache = tf.inverse_with_cache(phi)
        g = rng.normal(x.shape)
        back = tf.forward_vjp(fwd_cache, tf.inverse_vjp(inv_cache, g))
        assert float(np.max(np.abs(back - g))) <= 1e-12

    @pytest.mark.parametrize("predictor", [
        {}, {"kernel_sizes": (5, 3, 1)}, {"num_stages": 3, "kernel_sizes": (3,)}],
        ids=["default", "k531", "3-stage-k3"])
    def test_reach_bounds_both_directions(self, predictor):
        """Moving one sample changes only feature frames, and moving one frame
        only samples, that lie within ``reach`` of each other's samples
        (measured from the frame's farther end); the synthesis attains it."""
        tf = LiftingTransform(LiftingConfig(**predictor), Rng(50))
        div = tf.config.time_divisor

        def farthest(m, samples):
            return max(max(abs(t - m * div), abs(t - (m + 1) * div + 1)) for t in samples)
        x = Rng(51).normal((64 * div,))
        t0 = 32 * div + 5
        e = x.copy()
        e[t0] += 1.0
        phi = tf.forward(x)
        frames = np.nonzero(np.any(tf.forward(e) != phi, axis=0))[0]
        assert max(farthest(m, [t0]) for m in frames) <= tf.reach
        p = phi.copy()
        p[:, 32] += 1.0
        samples = np.nonzero(tf.inverse(p) != tf.inverse(phi))[0]
        assert farthest(32, samples) == tf.reach

    def test_pad_then_transform_round_trip(self):
        tf = LiftingTransform(rng=Rng(20))
        x = Rng(21).normal((100,))
        padded, n = pad_to_multiple(x, tf.config.time_divisor)
        back = tf.inverse(tf.forward(padded))[:n]
        np.testing.assert_allclose(back, x, atol=1e-9)

    def test_named_parameters_stable_order(self):
        tf = LiftingTransform(LiftingConfig(num_stages=2), Rng(22))
        names = [name for name, _ in tf.named_parameters()]
        assert names == [
            "lifting/stage1/conv0/weight", "lifting/stage1/conv0/bias",
            "lifting/stage1/conv1/weight", "lifting/stage1/conv1/bias",
            "lifting/stage2/conv0/weight", "lifting/stage2/conv0/bias",
            "lifting/stage2/conv1/weight", "lifting/stage2/conv1/bias",
        ]

    def test_linear_variant_has_no_biases(self):
        tf = LiftingTransform(LiftingConfig(num_stages=2, linear_variant=True), Rng(23))
        names = [name for name, _ in tf.named_parameters()]
        assert all(name.endswith("/weight") for name in names)


class TestGridWalks:
    """All four walks keep branches and gradients on the predictors' grids
    and add each coupling onto a branch grid in place."""

    @pytest.mark.parametrize("lead", [(), (2, 3), (0,)], ids=["T", "2x3xT", "0xT"])
    def test_lead_shapes_through_all_walks(self, lead):
        rng = Rng(30)
        tf = LiftingTransform(LiftingConfig(num_stages=3, base_channels=2,
                                            kernel_sizes=(5, 3)), rng.fork())
        x = rng.normal(lead + (64,))
        g = rng.normal(lead + (64,))
        r = rng.normal(lead + (16, 8))
        tf.zero_grad()
        phi, fwd_cache = tf.forward_with_cache(x)
        back, inv_cache = tf.inverse_with_cache(phi)
        grad_phi = tf.inverse_vjp(inv_cache, g)
        grad_x = tf.forward_vjp(fwd_cache, r)
        assert phi.shape == grad_phi.shape == lead + (16, 8)
        assert back.shape == grad_x.shape == x.shape
        np.testing.assert_allclose(back, x, rtol=0, atol=1e-9)
        if not x.size:
            assert all(not np.any(p.grad) for _, p in tf.named_parameters())
            return
        for i in np.ndindex(*lead):
            np.testing.assert_allclose(phi[i], tf.forward(x[i]), rtol=0, atol=1e-12)
            np.testing.assert_allclose(back[i], tf.inverse(phi[i]), rtol=0, atol=1e-12)
            row_fwd, row_inv = tf.forward_with_cache(x[i])[1], tf.inverse_with_cache(phi[i])[1]
            np.testing.assert_allclose(grad_phi[i], tf.inverse_vjp(row_inv, g[i]),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(grad_x[i], tf.forward_vjp(row_fwd, r[i]),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("discard_top", [False, True])
    @pytest.mark.parametrize("num_stages", [1, 6])
    def test_step_writes_no_input_or_cached_grid(self, num_stages, discard_top):
        """The in-place coupling adds never land in a caller's array or in a
        grid that a forward or inverse cache holds: a full step leaves every
        one of them bitwise as it was."""
        rng = Rng(31)
        tf = LiftingTransform(LiftingConfig(num_stages=num_stages, base_channels=2,
                                            kernel_sizes=(5, 3, 1)),
                              rng.fork())
        watched, snapshots = [], []

        def watch(*arrays):
            watched.extend(arrays)
            snapshots.extend(a.copy() for a in arrays)

        x = rng.normal((2, 128))
        g = rng.normal(x.shape)
        watch(x, g)
        phi, fwd_cache = tf.forward_with_cache(x, discard_top)
        watch(phi, *[grid for cache in fwd_cache if cache is not None for grid in cache])
        back, inv_cache = tf.inverse_with_cache(phi)
        grad_phi = rng.normal(phi.shape)
        watch(back, grad_phi, *[grid for cache in inv_cache for grid in cache])
        grad_masked = tf.inverse_vjp(inv_cache, g)
        tf.forward_vjp(fwd_cache, grad_phi)
        tf.forward_vjp(fwd_cache, grad_masked)
        assert len(watched) == 5 + 3 * (2 * num_stages - discard_top)
        for i, (now, before) in enumerate(zip(watched, snapshots)):
            np.testing.assert_array_equal(now, before, err_msg=f"array {i}")


# ---------------------------------------------------------------------------
# predictor block on the zero-padded grid
# ---------------------------------------------------------------------------

def loop_conv(x, w, b):
    """Reference "same" correlation of (C_in, B, L), one output at a time."""
    cout, _, k = w.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p)))
    y = np.zeros((cout,) + x.shape[1:])
    for o in range(cout):
        for n in range(x.shape[1]):
            for i in range(x.shape[2]):
                y[o, n, i] = (0.0 if b is None else b[o]) + np.sum(w[o] * xp[:, n, i:i + k])
    return y


def loop_conv_input_grad(g, w):
    """Reference input gradient of ``loop_conv``, one input position at a time."""
    _, cin, k = w.shape
    p = k // 2
    length = g.shape[2]
    gx = np.zeros((cin,) + g.shape[1:])
    for c in range(cin):
        for n in range(g.shape[1]):
            for m in range(length):
                for t in range(k):
                    i = m - t + p          # output position that read input m at tap t
                    if 0 <= i < length:
                        gx[c, n, m] += np.dot(w[:, c, t], g[:, n, i])
    return gx


def effective_weights(block):
    out = []
    for conv in block.convs:
        w = conv.weight.data
        if conv.sn_u is not None:
            w = w / float(np.linalg.norm(w.reshape(w.shape[0], -1).T @ conv.sn_u))
        out.append((w, None if conv.bias is None else conv.bias.data))
    return out


def loop_block(block, x, g):
    """Reference output and input gradient of a predictor block."""
    slope = None if block.act is None else block.act.slope
    params = effective_weights(block)
    pre, y = [], x
    for i, (w, b) in enumerate(params):
        y = loop_conv(y, w, b)
        if slope is not None and i < len(params) - 1:
            pre.append(y)
            y = np.where(y >= 0.0, y, slope * y)
    out = y
    for i in range(len(params) - 1, -1, -1):
        if slope is not None and i < len(params) - 1:
            g = np.where(pre[i] >= 0.0, g, slope * g)
        g = loop_conv_input_grad(g, params[i][0])
    return out, g


def grid_pads(grid, pad):
    return np.concatenate([grid[:, :, :pad], grid[:, :, grid.shape[2] - pad:]], axis=2)


BLOCK_CASES = [
    pytest.param(LiftingConfig(kernel_sizes=(5, 3, 1)), id="k531"),
    pytest.param(LiftingConfig(kernel_sizes=(5, 3, 1), linear_variant=True), id="k531-linear"),
    pytest.param(LiftingConfig(kernel_sizes=(3, 5), spectral_norm=True), id="k35-sn"),
    pytest.param(LiftingConfig(kernel_sizes=(1, 3), leaky_slope=0.3, spectral_norm=True,
                               linear_variant=True), id="k13-sn-linear"),
]


class TestGridBlock:
    @pytest.mark.parametrize("config", BLOCK_CASES)
    @pytest.mark.parametrize("length", [1, 7, 9])
    def test_matches_loop_reference(self, config, length):
        rng = Rng(24)
        block = CouplingBlock(3, config, rng.fork())
        x = rng.normal((3, 2, length))
        g = rng.normal((3, 2, length))
        y, cache = block.forward(to_grid(x, block.pad))
        gx = block.backward(cache, to_grid(g, block.pad))
        y, gx = grid_valid(y, block.pad), grid_valid(gx, block.pad)
        y_ref, gx_ref = loop_block(block, x, g)
        assert y.shape == gx.shape == x.shape
        np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gx, gx_ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("config", [
        LiftingConfig(kernel_sizes=(5, 3, 1)),
        LiftingConfig(kernel_sizes=(5, 3, 1), linear_variant=True),
        LiftingConfig(kernel_sizes=(3, 5), leaky_slope=0.3)],
        ids=["k531", "k531-linear", "k35-slope"])
    def test_parameter_gradients_match_finite_differences(self, config):
        """Without spectral norm: with it, backward holds the spectral scale
        constant for the step (pinned in test_layers), which finite
        differences of the weight do not."""
        rng = Rng(25)
        block = CouplingBlock(2, config, rng.fork())
        x = to_grid(rng.normal((2, 2, 7)), block.pad)
        r = to_grid(rng.normal((2, 2, 7)), block.pad)
        for _, p in block.named_parameters("b"):
            p.zero_grad()
        y, cache = block.forward(x)
        block.backward(cache, r)
        h = 1e-5
        for name, p in block.named_parameters("b"):
            numeric = np.zeros_like(p.data)
            for idx in np.ndindex(*p.data.shape):
                orig = p.data[idx]
                p.data[idx] = orig + h
                fp = float(np.sum(block.forward(x)[0] * r))
                p.data[idx] = orig - h
                fm = float(np.sum(block.forward(x)[0] * r))
                p.data[idx] = orig
                numeric[idx] = (fp - fm) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(p.grad), np.abs(numeric)), 1e-8)
            assert float(np.max(np.abs(p.grad - numeric) / denom)) <= 1e-4, name

    @pytest.mark.parametrize("config", BLOCK_CASES)
    def test_pad_columns_stay_zero(self, config):
        """Every conv and activation leaves the grid's pad columns exactly zero,
        forward and backward, so each output is the next layer's padded input."""
        rng = Rng(26)
        block = CouplingBlock(3, config, rng.fork())
        pad = block.pad
        grid = to_grid(rng.normal((3, 4, 9)), pad)
        grids = [grid]
        for i, conv in enumerate(block.convs):
            out = conv.forward_grid(grids[-1], pad)
            assert np.all(grid_pads(out, pad) == 0.0)
            if block.act is not None and i < len(block.convs) - 1:
                block.act.inplace(out)
                assert np.all(grid_pads(out, pad) == 0.0)
            grids.append(out)
        y, cache = block.forward(grid)
        np.testing.assert_array_equal(y, grids[-1])
        for cached, expected in zip(cache, grids):
            np.testing.assert_array_equal(cached, expected)
        grad = to_grid(rng.normal((3, 4, 9)), pad)
        for i in range(len(block.convs) - 1, -1, -1):
            if block.act is not None and i < len(block.convs) - 1:
                block.act.backward(grids[i + 1], grad, out=grad)
                assert np.all(grid_pads(grad, pad) == 0.0)
            grad = block.convs[i].backward_grid(grids[i], grad, pad)
            assert np.all(grid_pads(grad, pad) == 0.0)

    def test_accumulating_passes_allocate_only_hidden_grids(self):
        """With ``onto``, forward and backward each allocate one grid per
        hidden layer (the last conv writes onto the given grid) plus at most
        1 MiB of scratch."""
        rng = Rng(28)
        c, batch, length = 8, 16, 4096
        block = CouplingBlock(c, LiftingConfig(kernel_sizes=(5, 3, 3)), rng.fork())
        x, g, onto = (to_grid(rng.normal((c, batch, length)), block.pad) for _ in range(3))
        grid_bytes = 8 * c * batch * (length + 2 * block.pad)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, cache = block.forward(x, onto, -1.0)
            forward_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            block.backward(cache, g, onto, -1.0)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward_peak <= (len(block.convs) - 1) * grid_bytes + (1 << 20)
        assert backward_peak <= (len(block.convs) - 1) * grid_bytes + (1 << 20)

    def test_peak_memory_is_the_grids(self):
        """Forward allocates its input grid and one output grid per conv,
        backward the gradient grid and one more; the activations add at most
        one block of scratch."""
        rng = Rng(27)
        c, batch, length = 8, 16, 4096
        block = CouplingBlock(c, LiftingConfig(), rng.fork())
        x = to_grid(rng.normal((c, batch, length)), block.pad)
        g = to_grid(rng.normal((c, batch, length)), block.pad)
        grid_bytes = 8 * c * batch * (length + 2 * block.pad)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, cache = block.forward(x)
            forward_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            block.backward(cache, g)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward_peak <= (1 + len(block.convs)) * grid_bytes + (1 << 20)
        assert backward_peak <= 2 * grid_bytes + (1 << 20)
