"""Adam updates and the deterministic training loop."""

import tracemalloc
import weakref

import numpy as np
import pytest

from liftbank import optim
from liftbank.audio_data import synth_dataset
from liftbank.layers import Parameter
from liftbank.lifting import LiftingConfig, LiftingTransform
from liftbank.masking import EnhancementPipeline, MaskEstimator
from liftbank.numerics import Rng
from liftbank.optim import Adam, TrainConfig, TrainingDiverged, train
from liftbank.stft import StftConfig


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Parameter(np.array([1.0, -2.0]))
        opt = Adam([("p", p)], lr=1e-4)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert opt.t == 1

    def test_first_step_magnitude(self):
        # bias-corrected m-hat = 1, v-hat = 1, so the update is -lr/(1 + eps)
        p = Parameter(np.array([0.0]))
        p.grad[...] = 1.0
        opt = Adam([("p", p)], lr=1e-4)
        opt.step()
        assert float(p.data[0]) == pytest.approx(-1e-4, rel=1e-6)

    def test_update_invariant_to_gradient_scale(self):
        # m-hat / sqrt(v-hat) cancels the scale up to the eps guard, whose
        # influence is about eps/|g|, so compare at 1e-6 relative
        updates = []
        for scale in (1.0, 1000.0):
            p = Parameter(np.array([0.5]))
            p.grad[...] = scale
            opt = Adam([("p", p)], lr=1e-3)
            opt.step()
            updates.append(float(p.data[0] - 0.5))
        assert updates[0] == pytest.approx(updates[1], rel=1e-6)

    def test_zero_lr_is_identity(self):
        rng = Rng(0)
        p = Parameter(rng.normal((4,)))
        before = p.data.copy()
        opt = Adam([("p", p)], lr=0.0)
        for _ in range(5):
            p.grad[...] = rng.normal((4,))
            opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_non_finite_gradient_names_parameter(self):
        p = Parameter(np.array([1.0]))
        p.grad[...] = np.nan
        opt = Adam([("lifting/stage1/conv0/weight", p)])
        with pytest.raises(ValueError, match="lifting/stage1/conv0/weight"):
            opt.step()

    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([])


def tiny_pipeline(seed=0, linear=False):
    cfg = LiftingConfig(num_stages=2, linear_variant=linear)
    return EnhancementPipeline(transform=LiftingTransform(cfg, Rng(seed)),
                               mask_source="binary")


def tiny_dataset(count=8, seed=1):
    return synth_dataset(seed, count, 0.016, 0.0, 10.0)  # 256-sample clips


class TestTrain:
    def test_overfit_decreases_loss(self):
        pipe = tiny_pipeline()
        cfg = TrainConfig(epochs=25, batch_size=4, lr=1e-3, seed=3,
                          val_fraction=0.0, crop_len=256)
        history = train(pipe, tiny_dataset(4), cfg)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_two_runs_identical(self):
        cfg = TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=9, crop_len=256)
        h1 = train(tiny_pipeline(seed=5), tiny_dataset(), cfg)
        h2 = train(tiny_pipeline(seed=5), tiny_dataset(), cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss

    def test_zero_lr_constant_history(self):
        cfg = TrainConfig(epochs=4, batch_size=4, lr=0.0, seed=2,
                          val_fraction=0.0, crop_len=256)
        history = train(tiny_pipeline(), tiny_dataset(), cfg)
        assert len(set(history.train_loss)) == 1

    def test_max_steps_caps_training(self):
        cfg = TrainConfig(epochs=50, batch_size=4, lr=1e-3, seed=2,
                          crop_len=256, max_steps=3)
        history = train(tiny_pipeline(), tiny_dataset(), cfg)
        assert history.steps == 3

    def test_records_best_state(self):
        cfg = TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=4, crop_len=256)
        history = train(tiny_pipeline(), tiny_dataset(), cfg)
        assert history.best_epoch >= 0
        assert history.best_state
        assert len(history.val_loss) == 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(tiny_pipeline(), [], TrainConfig())

    def test_group_without_parameters_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            train(tiny_pipeline(), tiny_dataset(),
                  TrainConfig(trainable="mask", crop_len=256))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_raises(self):
        cfg = TrainConfig(epochs=3, batch_size=4, lr=1e30, seed=2,
                          val_fraction=0.0, crop_len=256)
        with pytest.raises(TrainingDiverged):
            train(tiny_pipeline(), tiny_dataset(), cfg)

    def test_mask_only_training_on_stft_path(self):
        estimator = MaskEstimator(depth=2, base_channels=2, rng=Rng(8))
        pipe = EnhancementPipeline(stft_config=StftConfig(window_length=64, hop=16,
                                                          dft_length=64),
                                   mask_source="estimator", estimator=estimator)
        cfg = TrainConfig(epochs=8, batch_size=4, lr=1e-3, seed=11,
                          trainable="mask", val_fraction=0.0, crop_len=256)
        history = train(pipe, tiny_dataset(4, seed=12), cfg)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=1.0)
        with pytest.raises(ValueError):
            TrainConfig(trainable="everything")

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.01])
    def test_negative_or_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(lr=lr)


def memory_pipeline(kind):
    """Small pipelines of each kind whose training caches outweigh the rest
    of a step's memory."""
    if kind == "lifting/binary":
        return EnhancementPipeline(transform=LiftingTransform(LiftingConfig(num_stages=4), Rng(60)),
                                   mask_source="binary")
    net = MaskEstimator(depth=2, base_channels=2, rng=Rng(61))
    if kind == "lifting/estimator":
        return EnhancementPipeline(transform=LiftingTransform(LiftingConfig(num_stages=4), Rng(62)),
                                   mask_source="estimator", estimator=net)
    return EnhancementPipeline(stft_config=StftConfig(window_length=256, hop=64, dft_length=256),
                               mask_source="estimator", estimator=net)


class TestTrainingMemory:
    @pytest.mark.parametrize("kind", ["lifting/binary", "lifting/estimator", "stft/estimator"])
    def test_peak_does_not_grow_with_steps(self, kind):
        """A step holds one step's caches: the traced peak of 3 steps is at
        most 1.02 times that of 1 step. While each step's forward ran beside
        the previous step's cache, 3 steps peaked at 1.43, 1.23 and 1.14
        times 1 step here."""
        dataset = synth_dataset(63, 12, 0.25, 0.0, 10.0)
        trainable = "transform" if kind == "lifting/binary" else "both"
        peaks = []
        for steps in (1, 3):
            pipe = memory_pipeline(kind)
            cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=64, trainable=trainable,
                              val_fraction=0.0, crop_len=2048, max_steps=steps)
            tracemalloc.start()
            try:
                assert train(pipe, dataset, cfg).steps == steps
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.02 * peaks[0]

    def test_no_cache_outlives_its_epoch(self, monkeypatch):
        """Validation, and whatever follows ``train`` (the CLI's checkpoint
        writes), runs with no training cache alive."""
        pipe, made, alive = tiny_pipeline(), [], []
        enhance_training, evaluate = pipe.enhance_training, optim._evaluate

        def recording(x, spent=None):
            s_hat, cache = enhance_training(x, spent)
            made.append(weakref.ref(cache))
            return s_hat, cache

        def counting(*args):
            alive.append(sum(ref() is not None for ref in made))
            return evaluate(*args)
        pipe.enhance_training = recording
        monkeypatch.setattr(optim, "_evaluate", counting)
        cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=4, crop_len=256)
        history = train(pipe, tiny_dataset(), cfg)
        assert len(made) == history.steps > 2
        assert alive == [0, 0]
        assert all(ref() is None for ref in made)
