"""Masks, the estimator network, and the end-to-end pipelines."""

import dataclasses
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from liftbank.layers import Activation, Conv2d
from liftbank.lifting import CouplingBlock, LiftingConfig, LiftingTransform
from liftbank.masking import (CHUNK_SAMPLES, BinaryMaskSpec, EnhancementPipeline,
                              MaskEstimator, binary_mask_generate)
from liftbank.numerics import Rng, pad_to_multiple
from liftbank.objective import LossConfig, sdr_loss_and_grad
from liftbank.stft import StftConfig


class TestBinaryMask:
    def test_default_partition(self):
        mask = binary_mask_generate(BinaryMaskSpec(4), 2)
        np.testing.assert_array_equal(mask, [[1, 1], [1, 1], [0, 0], [0, 0]])

    def test_explicit_channels(self):
        mask = binary_mask_generate(BinaryMaskSpec(4, (0, 3)), 3)
        np.testing.assert_array_equal(mask[0], 1.0)
        np.testing.assert_array_equal(mask[3], 1.0)
        np.testing.assert_array_equal(mask[1:3], 0.0)

    def test_complement_sums_to_ones(self):
        mask = binary_mask_generate(BinaryMaskSpec(256), 7)
        np.testing.assert_array_equal(mask + (1.0 - mask), 1.0)

    def test_time_constant(self):
        mask = binary_mask_generate(BinaryMaskSpec(8), 20)
        for m in range(20):
            np.testing.assert_array_equal(mask[:, m], mask[:, 0])

    def test_values_are_binary(self):
        mask = binary_mask_generate(BinaryMaskSpec(16), 5)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_odd_channels_need_explicit_partition(self):
        with pytest.raises(ValueError, match="even"):
            BinaryMaskSpec(257)
        spec = BinaryMaskSpec(257, tuple(range(100)))
        assert binary_mask_generate(spec, 2).shape == (257, 2)

    def test_out_of_range_channel_rejected(self):
        with pytest.raises(ValueError):
            BinaryMaskSpec(4, (5,))


class TestApplyMask:
    """Mask application is the elementwise product ``feature * mask``."""

    def test_ones_identity(self):
        feat = Rng(0).normal((4, 5))
        np.testing.assert_array_equal(feat * np.ones((4, 5)), feat)

    def test_zeros(self):
        feat = Rng(1).normal((4, 5))
        assert np.all(feat * np.zeros((4, 5)) == 0.0)

    def test_elementwise(self):
        out = np.array([[2.0, 3.0]]) * np.array([[0.0, 1.0]])
        np.testing.assert_array_equal(out, [[0.0, 3.0]])


class TestMaskEstimator:
    def test_output_in_open_unit_interval(self):
        net = MaskEstimator(depth=3, base_channels=4, rng=Rng(2))
        mask = net.forward(Rng(3).normal((40, 24)))
        assert np.all(mask > 0.0) and np.all(mask < 1.0)

    def test_shape_preserved_awkward_sizes(self):
        net = MaskEstimator(depth=3, base_channels=4, rng=Rng(4))
        for shape in ((256, 100), (257, 41)):
            feat = Rng(5).normal(shape)
            assert net.forward(feat).shape == shape

    def test_initial_mask_is_half(self):
        net = MaskEstimator(depth=2, base_channels=4, rng=Rng(6))
        mask = net.forward(Rng(7).normal((32, 16)))
        np.testing.assert_allclose(mask, 0.5, atol=1e-12)

    def test_norm_kinds_construct_and_run(self):
        for norm in ("none", "spectral"):
            net = MaskEstimator(depth=2, base_channels=4, norm=norm, rng=Rng(8))
            mask = net.forward(Rng(9).normal((16, 12)))
            assert mask.shape == (16, 12)

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            MaskEstimator(norm="batch")

    def test_batched_forward(self):
        net = MaskEstimator(depth=2, base_channels=4, rng=Rng(10))
        feat = Rng(11).normal((3, 20, 14))
        mask = net.forward(feat)
        assert mask.shape == (3, 20, 14)
        for i in range(3):
            np.testing.assert_allclose(mask[i], net.forward(feat[i]), atol=1e-12)

    @pytest.mark.parametrize("norm", ["none", "spectral"])
    def test_batched_backward(self, norm):
        """Input-gradient rows are the per-item input gradients, and the
        parameter gradients are the sum of the per-item ones."""
        self._check_batched_backward(norm, depth=2)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_batched_backward_at_depth(self, depth):
        self._check_batched_backward("none", depth)

    @staticmethod
    def _check_batched_backward(norm, depth):
        net = MaskEstimator(depth=depth, base_channels=4, norm=norm, rng=Rng(16))
        net.head.weight.data[...] = Rng(17).normal(net.head.weight.shape)
        feat = Rng(18).normal((3, 20, 14))
        r = Rng(19).normal((3, 20, 14))
        net.zero_grad()
        _, cache = net.forward_with_cache(feat)
        grad_in = net.backward(cache, r)
        batched = {name: p.grad.copy() for name, p in net.named_parameters()}
        summed = {name: np.zeros_like(g) for name, g in batched.items()}
        for i in range(3):
            net.zero_grad()
            _, cache = net.forward_with_cache(feat[i])
            np.testing.assert_allclose(grad_in[i], net.backward(cache, r[i]), rtol=0,
                                       atol=1e-12)
            for name, p in net.named_parameters():
                summed[name] += p.grad
        for name, g in batched.items():
            np.testing.assert_allclose(g, summed[name], rtol=0, atol=1e-12, err_msg=name)

    def test_gradients_match_finite_differences(self):
        """Input and every parameter gradient, without a norm: spectral norm's
        weight gradient holds sigma constant by design, so a parameter
        finite-difference check does not apply to it."""
        self._check_gradients(depth=2)

    def test_gradients_match_finite_differences_at_depth_1(self):
        """The same check where the top stage is the only decoder stage."""
        self._check_gradients(depth=1)

    @staticmethod
    def _check_gradients(depth):
        net = MaskEstimator(depth=depth, base_channels=3, norm="none", rng=Rng(12))
        net.head.weight.data[...] = Rng(13).normal(net.head.weight.shape)
        feat = Rng(14).normal((9, 7))
        r = Rng(15).normal((9, 7))

        def objective(v):
            return float(np.sum(net.forward(v) * r))

        net.zero_grad()
        mask, cache = net.forward_with_cache(feat)
        analytic_in = net.backward(cache, r)
        h = 1e-5
        numeric = np.zeros_like(feat)
        for idx in np.ndindex(*feat.shape):
            probe = feat.copy()
            probe[idx] += h
            fp = objective(probe)
            probe[idx] -= 2 * h
            fm = objective(probe)
            numeric[idx] = (fp - fm) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic_in), np.abs(numeric)), 1e-8)
        assert float(np.max(np.abs(analytic_in - numeric) / denom)) <= 1e-4

        worst = 0.0
        for _, p in net.named_parameters():
            num = np.zeros_like(p.data)
            for idx in np.ndindex(*p.data.shape):
                orig = p.data[idx]
                p.data[idx] = orig + h
                fp = objective(feat)
                p.data[idx] = orig - h
                fm = objective(feat)
                p.data[idx] = orig
                num[idx] = (fp - fm) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(p.grad), np.abs(num)), 1e-8)
            worst = max(worst, float(np.max(np.abs(p.grad - num) / denom)))
        assert worst <= 1e-4


def _layer_by_layer_mask(net, feature):
    """The mask with every stage through its layers' own forward passes: at
    the top, Deconv2d.forward -> leaky ReLU -> head.forward -> sigmoid."""
    h = net._image(feature)
    skips = []
    for conv in net.enc_convs:
        h = net._stage(conv, h, None)
        skips.append(h)
    skips.pop()
    for conv in net.dec_convs:
        h = net._stage(conv, h, None)
        if skips:
            h = np.concatenate([h, skips.pop()], axis=-3)
    mask, _ = net.sigmoid.forward(net.head.forward(h)[0])
    return mask[..., 0, :feature.shape[-2], :feature.shape[-1]]


class TestFusedTopStage:
    """At inference the top decoder stage streams into the 1x1 head and no
    full-resolution map is built; training caches that map, so it keeps the
    layer route."""

    @pytest.mark.parametrize("norm", ["none", "spectral"])
    @pytest.mark.parametrize("depth, shape", [
        (1, (24, 20)), (1, (2, 2, 17, 33)), (1, (21, 22)), (3, (2, 21, 35)), (3, (64, 70)),
        (2, (33, 18)), (2, (3, 20, 44))])
    def test_matches_layer_by_layer_bitwise(self, norm, depth, shape):
        """Depth 1 makes the top stage the only decoder stage; lead batch axes
        and heights and widths off the total stride crop the padding. (21, 22)
        pads to 22 x 22, 4 mod 8 pixels; the 4-channel head's GEMM sums them
        in the same order in BLAS's main and tail kernels."""
        net = MaskEstimator(depth=depth, base_channels=4, norm=norm, rng=Rng(60))
        net.head.weight.data[...] = Rng(61).normal(net.head.weight.shape)
        net.head.bias.data[...] = 0.25
        feature = Rng(62).normal(shape)
        ref = _layer_by_layer_mask(net, feature)
        mask = net.forward(feature)
        assert mask.shape == shape
        np.testing.assert_array_equal(mask, ref)
        np.testing.assert_array_equal(net.forward_with_cache(feature)[0], ref)

    @pytest.mark.parametrize("norm", ["none", "spectral"])
    def test_training_caches_match_layer_by_layer(self, norm):
        """forward_with_cache caches the same activated top map and head input
        as the layer route, so the backward pass is unchanged."""
        net = _with_head(MaskEstimator(depth=2, base_channels=4, norm=norm, rng=Rng(63)), 64)
        feature = Rng(65).normal((2, 20, 28))
        _, cache = net.forward_with_cache(feature)
        h = net._image(feature)
        skip = net._stage(net.enc_convs[0], h, None)
        h = net._stage(net.enc_convs[1], skip, None)
        h = net._stage(net.dec_convs[0], h, None)
        h = np.concatenate([h, skip], axis=-3)
        top = []
        h = net._stage(net.dec_convs[1], h, top)
        _, (grid, flat) = net.head.forward(h)
        np.testing.assert_array_equal(cache.decoder[-1][0], top[0][0])
        np.testing.assert_array_equal(cache.decoder[-1][1], h)
        np.testing.assert_array_equal(cache.head[1], flat)
        assert cache.head[0].identity and len(cache.decoder[-1]) == 2

    @pytest.mark.parametrize("norm", ["none", "spectral"])
    def test_stages_run_no_head_or_leaky_relu_layer(self, norm, monkeypatch):
        """Each stage adds its bias and runs its leaky ReLU inside the conv's
        row-block pass, and at inference the top stage its 1x1 head too:
        inference makes no ``head.forward`` or leaky-ReLU
        ``Activation.forward`` call, and training one ``head.forward``."""
        net = _with_head(MaskEstimator(depth=3, base_channels=4, norm=norm, rng=Rng(67)), 68)
        calls = []
        conv_forward, act_forward = Conv2d.forward, Activation.forward

        def conv_spy(layer, *args, **kwargs):
            calls.extend(["head"] if layer is net.head else [])
            return conv_forward(layer, *args, **kwargs)

        def act_spy(act, *args, **kwargs):
            calls.extend([act.kind] if act.kind == "leaky_relu" else [])
            return act_forward(act, *args, **kwargs)
        monkeypatch.setattr(Conv2d, "forward", conv_spy)
        monkeypatch.setattr(Activation, "forward", act_spy)
        feature = Rng(69).normal((2, 24, 40))
        net.forward(feature)
        inference = calls[:]
        net.forward_with_cache(feature)
        training = calls[len(inference):]
        assert inference == [] and training == ["head"]

    @pytest.mark.parametrize("norm", ["none", "spectral"])
    def test_empty_batch_gives_empty_mask(self, norm):
        net = MaskEstimator(depth=2, base_channels=4, norm=norm, rng=Rng(66))
        feature = np.zeros((0, 24, 20))
        assert net.forward(feature).shape == (0, 24, 20)
        mask, cache = net.forward_with_cache(feature)
        assert mask.shape == (0, 24, 20)
        assert net.backward(cache, mask).shape == (0, 24, 20)


def lifting_pipeline(mask_source="binary", seed=0, **cfg_kwargs):
    transform = LiftingTransform(LiftingConfig(**cfg_kwargs), Rng(seed))
    estimator = None
    if mask_source == "estimator":
        estimator = MaskEstimator(depth=2, base_channels=4, rng=Rng(seed + 1))
    return EnhancementPipeline(transform=transform, mask_source=mask_source,
                               estimator=estimator)


class TestEnhancementPipeline:
    def test_requires_exactly_one_transform(self):
        with pytest.raises(ValueError):
            EnhancementPipeline()
        with pytest.raises(ValueError):
            EnhancementPipeline(transform=LiftingTransform(rng=Rng(0)),
                                stft_config=StftConfig())

    def test_ones_mask_identity_lifting(self):
        pipe = lifting_pipeline("ones")
        x = Rng(20).normal((1000,))
        s_hat, residual = pipe.enhance(x)
        assert float(np.max(np.abs(s_hat - x))) <= 1e-9
        np.testing.assert_allclose(residual, x - s_hat, atol=1e-15)

    def test_ones_mask_identity_stft(self):
        pipe = EnhancementPipeline(stft_config=StftConfig(), mask_source="ones")
        x = Rng(21).normal((777,))
        s_hat, _ = pipe.enhance(x)
        assert float(np.max(np.abs(s_hat - x))) <= 1e-9

    def test_zero_mask_linear_variant_gives_zero(self):
        transform = LiftingTransform(LiftingConfig(linear_variant=True), Rng(22))
        spec = BinaryMaskSpec(256, ())
        pipe = EnhancementPipeline(transform=transform, mask_source="binary",
                                   binary_spec=spec)
        s_hat, _ = pipe.enhance(Rng(23).normal((640,)))
        assert float(np.max(np.abs(s_hat))) <= 1e-12

    def test_linear_variant_mask_additivity(self):
        transform = LiftingTransform(LiftingConfig(linear_variant=True), Rng(24))
        pipe = EnhancementPipeline(transform=transform, mask_source="binary")
        complement = BinaryMaskSpec(256, tuple(range(128, 256)))
        pipe_c = EnhancementPipeline(transform=transform, mask_source="binary",
                                     binary_spec=complement)
        x = Rng(25).normal((1234,))
        s1, _ = pipe.enhance(x)
        s2, _ = pipe_c.enhance(x)
        assert float(np.max(np.abs(s1 + s2 - x))) <= 1e-9

    def test_nonlinear_variant_not_additive(self):
        pipe = lifting_pipeline("binary", seed=26)
        complement = BinaryMaskSpec(256, tuple(range(128, 256)))
        pipe_c = EnhancementPipeline(transform=pipe.transform, mask_source="binary",
                                     binary_spec=complement)
        x = Rng(27).normal((640,))
        s1, _ = pipe.enhance(x)
        s2, _ = pipe_c.enhance(x)
        assert float(np.max(np.abs(s1 + s2 - x))) > 1e-6

    def test_length_preserved_any_input_length(self):
        pipe = lifting_pipeline("binary", seed=28)
        stft_pipe = EnhancementPipeline(stft_config=StftConfig(), mask_source="ones")
        for t in (1, 37, 64, 1000, 21920):
            x = Rng(t).normal((t,))
            assert pipe.enhance(x)[0].shape == (t,)
            assert stft_pipe.enhance(x)[0].shape == (t,)

    def test_non_finite_input_rejected(self):
        pipe = lifting_pipeline("binary", seed=29)
        x = np.ones(64)
        x[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pipe.enhance(x)

    def test_estimator_masks_open_interval(self):
        pipe = lifting_pipeline("estimator", seed=30, num_stages=3)
        x = Rng(31).normal((256,))
        _, cache = pipe.enhance_training(x)
        mask = cache.mask
        assert np.all(mask > 0.0) and np.all(mask < 1.0)

    def test_binary_on_stft_needs_explicit_spec(self):
        with pytest.raises(ValueError, match="odd"):
            EnhancementPipeline(stft_config=StftConfig(), mask_source="binary")

    @pytest.mark.parametrize("kind", ["lifting", "stft"])
    def test_binary_spec_height_mismatch_rejected(self, kind):
        """A spec must partition the feature's rows: 32 merged channels for a
        3-stage transform, 33 bins for a 64-point DFT."""
        if kind == "lifting":
            args, height = {"transform": LiftingTransform(LiftingConfig(num_stages=3), Rng(0))}, 32
        else:
            args, height = {"stft_config": StftConfig(window_length=64, hop=16, dft_length=64)}, 33
        with pytest.raises(ValueError, match=f"has 8 channels, the feature {height}"):
            EnhancementPipeline(mask_source="binary", binary_spec=BinaryMaskSpec(8), **args)
        spec = BinaryMaskSpec(height, tuple(range(height // 2)))
        pipe = EnhancementPipeline(mask_source="binary", binary_spec=spec, **args)
        assert pipe.enhance(Rng(1).normal((500,)))[0].shape == (500,)

    def test_state_dict_round_trip(self):
        pipe = lifting_pipeline("estimator", seed=32, num_stages=2)
        state = {k: v.copy() for k, v in pipe.state_dict().items()}
        other = lifting_pipeline("estimator", seed=99, num_stages=2)
        assert any(np.any(state[k] != v) for k, v in other.state_dict().items())
        other.load_state_dict(state)
        for k, v in other.state_dict().items():
            np.testing.assert_array_equal(v, state[k])

    def test_state_dict_mismatch_rejected(self):
        pipe = lifting_pipeline("binary", seed=33, num_stages=2)
        state = pipe.state_dict()
        bad = dict(state)
        bad.pop(next(iter(bad)))
        with pytest.raises(ValueError, match="mismatch"):
            pipe.load_state_dict(bad)
        first = next(iter(state))
        bad = dict(state)
        bad[first] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            pipe.load_state_dict(bad)

    @pytest.mark.parametrize("corrupt", ["shape", "nan", "inf"])
    def test_failed_load_changes_nothing(self, corrupt):
        """Every entry is checked before any is copied, so a bad last entry
        leaves all the others as they were."""
        pipe = lifting_pipeline("estimator", seed=35, num_stages=3)
        before = {k: v.copy() for k, v in pipe.state_dict().items()}
        bad = {k: v + 1.0 for k, v in before.items()}
        last = list(bad)[-1]
        if corrupt == "shape":
            bad[last] = np.zeros(bad[last].shape + (1,))
        else:
            bad[last].flat[0] = np.nan if corrupt == "nan" else np.inf
        with pytest.raises(ValueError, match=last):
            pipe.load_state_dict(bad)
        for k, v in pipe.state_dict().items():
            np.testing.assert_array_equal(v, before[k])

    @pytest.mark.parametrize("kind,mask_source", [
        ("lifting", "binary"), ("lifting", "estimator"),
        ("stft", "estimator"), ("stft", "ones")])
    def test_enhance_matches_training_path_bitwise(self, kind, mask_source):
        if kind == "lifting":
            pipe = lifting_pipeline(mask_source, seed=34, num_stages=4)
        else:
            estimator = (MaskEstimator(depth=2, base_channels=4, rng=Rng(35))
                         if mask_source == "estimator" else None)
            pipe = EnhancementPipeline(stft_config=StftConfig(), mask_source=mask_source,
                                       estimator=estimator)
        if pipe.estimator is not None:
            # a non-zero head, so the mask depends on every estimator layer
            head = pipe.estimator.head
            head.weight.data[...] = Rng(36).uniform(head.weight.shape, -1.0, 1.0)
            head.bias.data[...] = 0.25
        x = Rng(37).normal((2, 1000))
        s_hat, _ = pipe.enhance(x)
        s_train, _ = pipe.enhance_training(x)
        np.testing.assert_array_equal(s_hat, s_train)


def _with_head(net, seed):
    """A non-zero head, so the mask depends on every estimator layer."""
    net.head.weight.data[...] = Rng(seed).uniform(net.head.weight.shape, -1.0, 1.0)
    net.head.bias.data[...] = 0.25
    return net


def small_pipeline(kind, norm="none", depth=2):
    """A cheap pipeline of each kind: lifting/binary, lifting/estimator or
    stft/estimator."""
    if kind == "lifting/binary":
        return lifting_pipeline("binary", seed=50, num_stages=3, base_channels=2)
    net = _with_head(MaskEstimator(depth=depth, base_channels=2, norm=norm, rng=Rng(51)), 52)
    if kind == "lifting/estimator":
        tf = LiftingTransform(LiftingConfig(num_stages=3, base_channels=2), Rng(53))
        return EnhancementPipeline(transform=tf, mask_source="estimator", estimator=net)
    return EnhancementPipeline(stft_config=StftConfig(window_length=64, hop=16, dft_length=64),
                               mask_source="estimator", estimator=net)


def _cache_arrays(obj):
    """The arrays an EnhanceCache holds, in a fixed order, None where a
    field or stage holds none; other values (conv geometry) are left out."""
    if obj is None or isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif not isinstance(obj, (list, tuple)):
        return []
    return [a for item in obj for a in _cache_arrays(item)]


class TestSpentCache:
    """``enhance_training(x, spent)`` empties an earlier call's cache as it
    builds its own, and changes nothing else."""

    KINDS = ["lifting/binary", "lifting/estimator", "stft/estimator"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_spent_is_emptied_and_the_result_unchanged(self, kind):
        pipe = small_pipeline(kind)
        rng = Rng(54)
        x, y = rng.normal((2, 1000)), rng.normal((2, 1000))
        s_hat, spent = pipe.enhance_training(x)
        pipe.backward(spent, rng.normal(s_hat.shape))
        want_s, want = pipe.enhance_training(y)
        got_s, got = pipe.enhance_training(y, spent)
        assert all(value is None for value in vars(spent).values())
        np.testing.assert_array_equal(got_s, want_s)
        got, want = _cache_arrays(got), _cache_arrays(want)
        assert len(got) == len(want) > 4
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_backward_refuses_a_spent_cache(self, kind):
        pipe = small_pipeline(kind)
        x = Rng(55).normal((2, 1000))
        s_hat, spent = pipe.enhance_training(x)
        pipe.enhance_training(x, spent)
        with pytest.raises(ValueError, match="spent"):
            pipe.backward(spent, np.ones_like(s_hat))


class TestChunkedEnhance:
    """``enhance`` runs chunks of CHUNK_SAMPLES with receptive-field context;
    its output is the whole-file run's."""

    @pytest.mark.parametrize("kind,norm", [
        ("lifting/binary", "none"), ("lifting/estimator", "none"),
        ("lifting/estimator", "spectral"), ("stft/estimator", "none"),
        ("stft/estimator", "spectral")])
    def test_chunked_equals_whole_file(self, kind, norm):
        self._check_chunked_equals_whole_file(small_pipeline(kind, norm))

    @pytest.mark.parametrize("depth", [1, 3])
    def test_chunked_equals_whole_file_at_depth(self, depth):
        """The context and chunk grid follow the estimator's depth: its total
        stride sets the alignment and its receptive field the context."""
        self._check_chunked_equals_whole_file(small_pipeline("lifting/estimator", depth=depth))

    @staticmethod
    def _check_chunked_equals_whole_file(pipe):
        chunk = -(-CHUNK_SAMPLES // pipe.alignment) * pipe.alignment
        for shape in [(chunk - 1,), (chunk,), (chunk + 1,), (2 * chunk + 777,),
                      (2, 2 * chunk + 777)]:
            x = Rng(shape[-1]).normal(shape)
            s_hat, residual = pipe.enhance(x)
            whole, _ = pipe._run(x, keep=False)
            assert s_hat.shape == x.shape
            assert np.max(np.abs(s_hat - whole)) <= 1e-9
            np.testing.assert_array_equal(residual, x - s_hat)

    def test_threads_sharing_a_pipeline_equal_serial_runs(self):
        """Each thread gets its own resident estimator buffer: enhance calls
        of different lengths running at once on one pipeline, in more threads
        than cores and with a short switch interval, give the serial results."""
        pipe = small_pipeline("lifting/estimator")
        inputs = [Rng(70 + i).normal((20000 + 9000 * i,)) for i in range(6)]
        serial = [pipe.enhance(x)[0] for x in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(2):
                    futures = [pool.submit(pipe.enhance, x) for x in inputs]
                    for fut, want in zip(futures, serial):
                        np.testing.assert_array_equal(fut.result(timeout=120)[0], want)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind", ["lifting/binary", "lifting/estimator",
                                      "stft/estimator"])
    def test_receptive_field_within_context(self, kind):
        """Perturb one input sample at several phases; every output sample
        that moves lies within ``context`` of it, and the furthest lies past
        half of it, so the bound is not vacuous."""
        self._check_receptive_field_within_context(small_pipeline(kind))

    @pytest.mark.parametrize("depth", [1, 3])
    def test_receptive_field_within_context_at_depth(self, depth):
        self._check_receptive_field_within_context(
            small_pipeline("lifting/estimator", depth=depth))

    @staticmethod
    def _check_receptive_field_within_context(pipe):
        ctx = pipe.context
        assert isinstance(ctx, int) and ctx % pipe.alignment == 0
        x = Rng(55).normal((4096,))
        base = pipe.enhance(x)[0]
        reach = 0
        for pos in range(2048, 2048 + 64, 7):
            xp = x.copy()
            xp[pos] += 1.0
            moved = np.nonzero(pipe.enhance(xp)[0] != base)[0]
            reach = max(reach, pos - moved.min(), moved.max() - pos)
        assert ctx / 2 < reach <= ctx

    @pytest.mark.parametrize("kind", ["lifting/binary", "stft/estimator"])
    def test_empty_input_rejected(self, kind):
        with pytest.raises(ValueError, match="empty"):
            small_pipeline(kind).enhance(np.zeros(0))

    def test_non_finite_in_last_chunk_rejected_before_any_chunk_runs(self, monkeypatch):
        pipe = small_pipeline("lifting/estimator")
        calls = []
        monkeypatch.setattr(pipe, "_run", lambda *args, **kw: calls.append(1))
        x = np.zeros(3 * CHUNK_SAMPLES)
        x[-5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pipe.enhance(x)
        assert calls == []


def _full_walk_step(pipe, clean, noise):
    """A training step built from the transform's unskipped walks: s_hat,
    dL/dx and the parameter gradients by name."""
    tf, mix = pipe.transform, clean + noise
    pipe.zero_grad()
    phi, fwd_caches = tf.forward_with_cache(mix)
    mask = binary_mask_generate(pipe.binary_spec, phi.shape[-1])
    s_hat, inv_caches = tf.inverse_with_cache(phi * mask)
    _, grad = sdr_loss_and_grad(s_hat, clean, mix, LossConfig())
    grad_x = tf.forward_vjp(fwd_caches, mask * tf.inverse_vjp(inv_caches, grad))
    return s_hat, grad_x, {name: p.grad.copy() for name, p in pipe.named_parameters()}


def _pipeline_step(pipe, clean, noise):
    mix = clean + noise
    pipe.zero_grad()
    s_hat, cache = pipe.enhance_training(mix)
    _, grad = sdr_loss_and_grad(s_hat, clean, mix, LossConfig())
    grad_x = pipe.backward(cache, grad)
    return s_hat, grad_x, {name: p.grad.copy() for name, p in pipe.named_parameters()}


def _partition(n_channels, kind):
    """The default partition, none, or one with an upper-half channel."""
    return {"default": None, "none": (), "upper": (0, n_channels // 2)}[kind]


class TestDiscardedTopBranch:
    """When the binary mask blocks the lifting feature's upper half, stage J's
    predicted branch, the analysis and its VJP do not evaluate F_J; the
    results are the full walk's."""

    @pytest.mark.parametrize("partition", ["default", "none", "upper"])
    def test_training_step_equals_full_walk(self, partition):
        tf = LiftingTransform(LiftingConfig(num_stages=4, base_channels=2), Rng(80))
        spec = BinaryMaskSpec(32, _partition(32, partition))
        pipe = EnhancementPipeline(transform=tf, mask_source="binary", binary_spec=spec)
        assert pipe.discard_top == (partition != "upper")
        rng = Rng(81)
        clean, noise = 0.5 * rng.normal((3, 512)), 0.3 * rng.normal((3, 512))
        want = _full_walk_step(pipe, clean, noise)
        got = _pipeline_step(pipe, clean, noise)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2].keys() == want[2].keys()
        for name in want[2]:
            np.testing.assert_array_equal(got[2][name], want[2][name], err_msg=name)

    @pytest.mark.parametrize("partition", ["default", "upper"])
    def test_enhance_equals_full_walk(self, partition, monkeypatch):
        """Chunk by chunk, each chunk run through the unskipped analysis."""
        tf = LiftingTransform(LiftingConfig(num_stages=3, base_channels=2), Rng(84))
        spec = BinaryMaskSpec(16, _partition(16, partition))
        pipe = EnhancementPipeline(transform=tf, mask_source="binary", binary_spec=spec)
        chunk = -(-CHUNK_SAMPLES // pipe.alignment) * pipe.alignment
        inputs = [Rng(t).normal((t,)) for t in (chunk - 1, chunk + 1, 2 * chunk + 777)]
        got = [pipe.enhance(x)[0] for x in inputs]

        def full_walk_run(x, keep):
            xp, _ = pad_to_multiple(x, tf.config.time_divisor)
            phi = tf.forward(xp)
            mask = binary_mask_generate(pipe.binary_spec, phi.shape[-1])
            return tf.inverse(phi * mask)[..., :x.shape[-1]], mask
        monkeypatch.setattr(pipe, "_run", full_walk_run)
        for x, y in zip(inputs, got):
            np.testing.assert_array_equal(y, pipe.enhance(x)[0])

    @pytest.mark.parametrize("partition, per_step", [("default", 11), ("upper", 12)])
    def test_predictor_call_counts(self, partition, per_step, monkeypatch):
        """A 6-stage step runs 6 predictors in the synthesis and its VJP, and
        5 in the analysis and its VJP when stage J's branch is blocked (6
        otherwise); ``enhance`` runs the step's forwards once per chunk."""
        calls = []

        def spy(method):
            original = getattr(CouplingBlock, method)

            def counted(block, *args):
                calls.append(method)
                return original(block, *args)
            return counted
        monkeypatch.setattr(CouplingBlock, "forward", spy("forward"))
        monkeypatch.setattr(CouplingBlock, "backward", spy("backward"))
        tf = LiftingTransform(LiftingConfig(num_stages=6, base_channels=1), Rng(82))
        spec = BinaryMaskSpec(64, _partition(64, partition))
        pipe = EnhancementPipeline(transform=tf, mask_source="binary", binary_spec=spec)
        rng = Rng(83)
        _pipeline_step(pipe, rng.normal((2, 640)), rng.normal((2, 640)))
        assert (calls.count("forward"), calls.count("backward")) == (per_step, per_step)
        calls.clear()
        pipe.enhance(rng.normal((CHUNK_SAMPLES + 1,)))      # two chunks
        assert calls == ["forward"] * 2 * per_step


def _traced_peak(fn, *args):
    """Peak bytes allocated while fn runs, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _cold_peak(pipe, fn, *args):
    """``_traced_peak`` of a call that allocates the estimator's resident
    buffer afresh, as a pipeline's first call does, so that first and later
    calls compare: a later call finds it and would not count it."""
    if pipe.estimator is not None:
        vars(pipe.estimator._held).clear()
    return _traced_peak(fn, *args)


class TestInferenceMemory:
    def test_enhance_builds_no_training_caches(self):
        """Inference on the lifting/estimator pipeline keeps no layer caches:
        its peak stays well below the training path's on a 2 s input."""
        pipe = EnhancementPipeline(transform=LiftingTransform(LiftingConfig(), Rng(38)),
                                   mask_source="estimator",
                                   estimator=MaskEstimator(rng=Rng(39)))
        x = Rng(40).normal((32000,))
        peak_enhance = _cold_peak(pipe, pipe.enhance, x)
        peak_training = _traced_peak(pipe.enhance_training, x)
        assert peak_enhance < 0.75 * peak_training

    def test_enhance_peak_bounded_by_feature_bytes(self):
        """Inference builds no full-resolution map of the top decoder stage
        (base_channels x the padded feature, 16 x 256 x 504 doubles here): each
        cache-sized block of it goes straight through the leaky ReLU and the
        1x1 head. On a 2 s input the lifting/estimator enhance peaks below 25
        times its lifting feature's bytes, at about 20 times; building that
        map and running the head on it peaks at about 35 times."""
        pipe = EnhancementPipeline(transform=LiftingTransform(LiftingConfig(), Rng(38)),
                                   mask_source="estimator",
                                   estimator=MaskEstimator(rng=Rng(39)))
        x = Rng(40).normal((32000,))
        feature = pipe.transform.forward(x)
        assert feature.shape == (256, 500)
        assert _cold_peak(pipe, pipe.enhance, x) < 25 * feature.nbytes

    def test_enhance_peak_bounded_in_input_length(self):
        """Chunked enhancement: a 60 s lifting/estimator input peaks at most
        1.25 times a 10 s one (whole-file runs peak about 6 times higher)."""
        pipe = EnhancementPipeline(transform=LiftingTransform(LiftingConfig(), Rng(38)),
                                   mask_source="estimator",
                                   estimator=MaskEstimator(rng=Rng(39)))
        peak_10 = _cold_peak(pipe, pipe.enhance, Rng(41).normal((160000,)))
        peak_60 = _cold_peak(pipe, pipe.enhance, Rng(42).normal((960000,)))
        assert peak_60 <= 1.25 * peak_10


    @pytest.mark.parametrize("kind", ["lifting/estimator", "stft/estimator"])
    def test_enhance_holds_no_finished_chunk(self, kind):
        """While a chunk runs, enhance holds nothing of the chunk before it:
        on a 3-chunk input it peaks at most at its output plus one run over
        the widest chunk, with 5% to spare (on lifting/estimator, also holding
        the finished chunk's 0.5 MiB output goes past that)."""
        pipe = small_pipeline(kind)
        step = -(-CHUNK_SAMPLES // pipe.alignment) * pipe.alignment
        x = Rng(56).normal((3 * step,))
        widest = x[step - pipe.context:2 * step + pipe.context]
        run_peak = _cold_peak(pipe, pipe._run, widest, False)
        assert _cold_peak(pipe, pipe.enhance, x) <= x.nbytes + 1.05 * run_peak

    @pytest.mark.parametrize("kind", ["lifting/estimator", "lifting/binary",
                                      "stft/estimator"])
    def test_enhance_with_mask_matches_training_mask(self, kind):
        pipe = small_pipeline(kind)
        step = -(-CHUNK_SAMPLES // pipe.alignment) * pipe.alignment
        for shape in [(1000,), (step + 1,), (2, 2 * step + 777)]:
            x = Rng(shape[-1]).normal(shape)
            s_hat, mask = pipe.enhance_with_mask(x)
            np.testing.assert_array_equal(s_hat, pipe.enhance(x)[0])
            _, cache = pipe.enhance_training(x)
            assert mask.shape == cache.mask.shape
            assert np.max(np.abs(mask - cache.mask)) <= 1e-9

    def test_enhance_with_mask_peak_bounded_in_input_length(self):
        """Past the mask it returns, which holds as many numbers as the
        feature, the peak at 6 chunks' length is at most 1.25 times the peak
        at one chunk's. The one-chunk call is the pipeline's first, so it
        allocates the estimator's resident buffer; the 6-chunk call reuses it."""
        tf = LiftingTransform(LiftingConfig(num_stages=3, base_channels=2), Rng(53))
        net = _with_head(MaskEstimator(depth=2, base_channels=4, rng=Rng(51)), 52)
        pipe = EnhancementPipeline(transform=tf, mask_source="estimator", estimator=net)
        step = -(-CHUNK_SAMPLES // pipe.alignment) * pipe.alignment
        peak_1 = _cold_peak(pipe, pipe.enhance_with_mask, Rng(57).normal((step,)))
        x = Rng(58).normal((6 * step,))
        mask_bytes = pipe.enhance_with_mask(x)[1].nbytes
        assert _traced_peak(pipe.enhance_with_mask, x) - mask_bytes <= 1.25 * peak_1

    def test_enhance_with_mask_holds_the_mask_once(self):
        """At a length where the mask outgrows one chunk's working set, the
        export peaks at most at its mask, its estimate and one run over the
        widest chunk (5% to spare): each chunk's frames go into one mask
        array, so the mask is never held twice."""
        tf = LiftingTransform(LiftingConfig(num_stages=3, base_channels=2), Rng(53))
        net = _with_head(MaskEstimator(depth=2, base_channels=4, rng=Rng(51)), 52)
        pipe = EnhancementPipeline(transform=tf, mask_source="estimator", estimator=net)
        step = -(-CHUNK_SAMPLES // pipe.alignment) * pipe.alignment
        x = Rng(59).normal((16 * step,))
        run_peak = _cold_peak(pipe, pipe._run, x[step - pipe.context:2 * step + pipe.context],
                              False)
        s_hat, mask = pipe.enhance_with_mask(x)
        assert mask.nbytes > 1.5 * run_peak
        peak = _cold_peak(pipe, pipe.enhance_with_mask, x)
        assert peak <= mask.nbytes + s_hat.nbytes + 1.05 * run_peak

    def test_second_enhance_leaves_no_new_large_block(self):
        """Inference keeps its largest buffer, the top skip-concat buffer,
        across chunks and calls: a first enhance leaves it behind, a block of
        1 MiB or more, and a second one of the same length leaves no new block
        of that size (it reuses the one it finds)."""
        pipe = EnhancementPipeline(transform=LiftingTransform(LiftingConfig(), Rng(38)),
                                   mask_source="estimator",
                                   estimator=MaskEstimator(rng=Rng(39)))
        x = Rng(43).normal((CHUNK_SAMPLES + 5000,))

        def left_behind():
            tracemalloc.start()
            try:
                s_hat, residual = pipe.enhance(x)
                del s_hat, residual
                return [t.size for t in tracemalloc.take_snapshot().traces if t.size >= 2 ** 20]
            finally:
                tracemalloc.stop()
        assert len(left_behind()) == 1
        assert left_behind() == []


class TestPipelineTrainingGradients:
    def test_stft_estimator_path_matches_finite_differences(self):
        """Training gradient through stft -> mask -> istft -> loss.

        Tiny components (~1e-7) are dominated by central-difference roundoff
        (~1e-10 absolute), so this composite check passes a component when it
        agrees either to 1e-4 relative or to 1e-9 absolute; the acceptance
        suite's pipeline check runs with the stock 1e-8 floor.
        """
        cfg = StftConfig(window_length=32, hop=8, dft_length=32)
        net = MaskEstimator(depth=2, base_channels=2, rng=Rng(40))
        net.head.weight.data[...] = 0.3 * Rng(41).normal(net.head.weight.shape)
        net.head.bias.data[...] = 0.1 * Rng(42).normal(net.head.bias.shape)
        pipe = EnhancementPipeline(stft_config=cfg, mask_source="estimator",
                                   estimator=net)
        rng = Rng(43)
        clean = 0.5 * rng.normal((80,))
        noise = 0.3 * rng.normal((80,))
        mix = clean + noise
        loss_cfg = LossConfig()

        def objective():
            s_hat, _ = pipe.enhance_training(mix)
            return sdr_loss_and_grad(s_hat, clean, mix, loss_cfg)[0]

        pipe.zero_grad()
        s_hat, cache = pipe.enhance_training(mix)
        _, grad = sdr_loss_and_grad(s_hat, clean, mix, loss_cfg)
        pipe.backward(cache, grad)
        h = 1e-5
        worst = 0.0
        for _, p in pipe.named_parameters("mask"):
            num = np.zeros_like(p.data)
            for idx in np.ndindex(*p.data.shape):
                orig = p.data[idx]
                p.data[idx] = orig + h
                fp = objective()
                p.data[idx] = orig - h
                fm = objective()
                p.data[idx] = orig
                num[idx] = (fp - fm) / (2 * h)
            abs_err = np.abs(p.grad - num)
            rel = abs_err / np.maximum(np.maximum(np.abs(p.grad), np.abs(num)), 1e-8)
            worst = max(worst, float(np.max(np.where(abs_err <= 1e-9, 0.0, rel))))
        assert worst <= 1e-4

    def test_lifting_estimator_path_matches_finite_differences(self):
        transform = LiftingTransform(LiftingConfig(num_stages=2), Rng(50))
        net = MaskEstimator(depth=1, base_channels=2, rng=Rng(51))
        net.head.weight.data[...] = 0.3 * Rng(52).normal(net.head.weight.shape)
        pipe = EnhancementPipeline(transform=transform, mask_source="estimator",
                                   estimator=net)
        rng = Rng(53)
        clean = 0.5 * rng.normal((32,))
        noise = 0.3 * rng.normal((32,))
        mix = clean + noise
        loss_cfg = LossConfig()

        def objective():
            s_hat, _ = pipe.enhance_training(mix)
            return sdr_loss_and_grad(s_hat, clean, mix, loss_cfg)[0]

        pipe.zero_grad()
        s_hat, cache = pipe.enhance_training(mix)
        _, grad = sdr_loss_and_grad(s_hat, clean, mix, loss_cfg)
        pipe.backward(cache, grad)
        h = 1e-5
        worst = 0.0
        for _, p in pipe.named_parameters("both"):
            num = np.zeros_like(p.data)
            for idx in np.ndindex(*p.data.shape):
                orig = p.data[idx]
                p.data[idx] = orig + h
                fp = objective()
                p.data[idx] = orig - h
                fm = objective()
                p.data[idx] = orig
                num[idx] = (fp - fm) / (2 * h)
            abs_err = np.abs(p.grad - num)
            rel = abs_err / np.maximum(np.maximum(np.abs(p.grad), np.abs(num)), 1e-8)
            worst = max(worst, float(np.max(np.where(abs_err <= 1e-9, 0.0, rel))))
        assert worst <= 1e-4
