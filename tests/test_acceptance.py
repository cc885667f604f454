"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured value
next to each pinned tolerance.
"""

import numpy as np
import pytest

import liftbank as lb
from liftbank.cli import main as cli_main
from liftbank.lifting import LiftingConfig, LiftingTransform
from liftbank.masking import BinaryMaskSpec, EnhancementPipeline
from liftbank.numerics import Rng, finite_difference_gradient
from liftbank.objective import LossConfig, sdr_loss_and_grad, si_sdr, si_sdr_improvement
from liftbank.optim import TrainConfig, train
from liftbank.stft import StftConfig, istft, stft_forward
from liftbank.verify import (GRAD_TOLERANCE, PR_TOLERANCE, STFT_PR_TOLERANCE,
                             gradient_suite, relative_error)


def report(num, name, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


class TestAcceptance:
    def test_criterion_1_perfect_reconstruction(self):
        """100 parameter draws per variant/stage-count/length combination."""
        rng = Rng(42)
        worst = 0.0
        runs = 0
        for linear in (False, True):
            for num_stages in (2, 6):
                cfg = LiftingConfig(num_stages=num_stages, linear_variant=linear)
                for t in (128, 16384):
                    for _ in range(100):
                        tf = LiftingTransform(cfg, rng.fork())
                        x = rng.normal((t,))
                        err = float(np.max(np.abs(tf.inverse(tf.forward(x)) - x)))
                        worst = max(worst, err)
                        runs += 1
        report(1, "perfect reconstruction", worst <= PR_TOLERANCE,
               f"max abs round-trip error {worst:.3e} over {runs} runs "
               f"(tolerance {PR_TOLERANCE:g})")

    def test_criterion_2_shape_law(self):
        tf = LiftingTransform(rng=Rng(0))
        phi = tf.forward(Rng(1).normal((6400,)))
        ok = phi.shape == (256, 100) and phi.size == 4 * 6400
        report(2, "feature shape law", ok,
               f"T=6400 -> {phi.shape}, {phi.size} elements (want (256, 100), 25600)")

    def test_criterion_3_stft_perfect_reconstruction(self):
        cfg = StftConfig()
        rng = Rng(2)
        worst = 0.0
        for t in (129, 512, 2048, 16000):
            x = rng.normal((t,))
            y = istft(stft_forward(x, cfg), cfg, t)
            worst = max(worst, float(np.max(np.abs(y - x))))
        report(3, "stft perfect reconstruction", worst <= STFT_PR_TOLERANCE,
               f"max abs round-trip error {worst:.3e} "
               f"(tolerance {STFT_PR_TOLERANCE:g})")

    def test_criterion_4_gradient_correctness(self):
        """Each layer kind individually, then the full training pipeline."""
        rng = Rng(3)
        worst_layer = 0.0

        def fd_check(layer, x, seed):
            r = Rng(seed).normal(layer.forward(x)[0].shape)

            def objective(v):
                return float(np.sum(layer.forward(v)[0] * r))

            numeric = finite_difference_gradient(objective, x)
            _, cache = layer.forward(x)
            analytic = layer.backward(cache, r)
            return relative_error(analytic, numeric)

        for i in range(10):
            worst_layer = max(
                worst_layer,
                fd_check(lb.Conv1d(2, 2, 3, rng=rng.fork()),
                         rng.normal((2, 7)), 100 + i),
                fd_check(lb.Conv2d(1, 2, 3, stride=(2, 2), padding=1, rng=rng.fork()),
                         rng.normal((1, 6, 6)), 200 + i),
                fd_check(lb.Deconv2d(2, 1, 4, stride=2, padding=1, rng=rng.fork()),
                         rng.normal((2, 3, 3)), 300 + i),
                fd_check(lb.Activation("leaky_relu", 0.2), rng.normal((2, 9)), 400 + i),
                fd_check(lb.Activation("sigmoid"), rng.normal((2, 9)), 500 + i),
            )
        pipeline_err = gradient_suite(seed=0)
        worst = max(worst_layer, pipeline_err)
        report(4, "gradient correctness", worst <= GRAD_TOLERANCE,
               f"max relative error: layers {worst_layer:.3e}, "
               f"full pipeline {pipeline_err:.3e} (tolerance {GRAD_TOLERANCE:g})")

    def test_criterion_5_si_sdr_algebra(self):
        hand = si_sdr(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        rng = Rng(4)
        worst = 0.0
        for _ in range(1000):
            s = rng.normal((32,))
            y = rng.normal((32,))
            c = float(rng.uniform((), 0.05, 8.0)[()])
            if int(rng.raw(1)[0]) % 2:
                c = -c
            worst = max(worst, abs(si_sdr(s, c * y) - si_sdr(s, y)))
        ok = hand == 0.0 and worst <= 1e-9
        report(5, "si-sdr algebra", ok,
               f"hand case {hand} dB (want exactly 0), scale-invariance error "
               f"{worst:.3e} dB over 1000 pairs (tolerance 1e-9)")

    def test_criterion_6_linear_variant_mask_additivity(self):
        transform = LiftingTransform(LiftingConfig(linear_variant=True), Rng(5))
        pipe = EnhancementPipeline(transform=transform, mask_source="binary")
        complement = BinaryMaskSpec(256, tuple(range(128, 256)))
        pipe_c = EnhancementPipeline(transform=transform, mask_source="binary",
                                     binary_spec=complement)
        worst = 0.0
        rng = Rng(6)
        for t in (640, 1000, 16000):
            x = rng.normal((t,))
            s1, _ = pipe.enhance(x)
            s2, _ = pipe_c.enhance(x)
            worst = max(worst, float(np.max(np.abs(s1 + s2 - x))))
        report(6, "linear-variant mask additivity", worst <= 1e-9,
               f"max |enhance(m) + enhance(1-m) - x| = {worst:.3e} (tolerance 1e-9)")

    @pytest.mark.slow
    def test_criterion_7_desk_scale_training(self):
        """Loss must strictly decrease and held-out SI-SDR improvement exceed
        0 dB; the measured improvement is reported, not compared to any
        published figure."""
        train_set = lb.synth_dataset(101, 200, 1.0, 0.0, 10.0)
        held_out = lb.synth_dataset(202, 40, 1.0, 0.0, 10.0)
        transform = LiftingTransform(LiftingConfig(), Rng(7))
        pipe = EnhancementPipeline(transform=transform, mask_source="binary")
        loss_cfg = LossConfig()

        def mean_loss(triples):
            vals = []
            for tr in triples:
                s_hat, _ = pipe.enhance_training(tr.mixture)
                vals.append(sdr_loss_and_grad(s_hat, tr.clean, tr.mixture, tr.noise, loss_cfg)[0])
            return float(np.mean(vals))

        init_loss = mean_loss(train_set)
        cfg = TrainConfig(epochs=60, batch_size=16, lr=1e-4, seed=7,
                          trainable="transform", val_fraction=0.0,
                          crop_len=4096, max_steps=600, loss=loss_cfg)
        history = train(pipe, train_set, cfg)
        final_loss = mean_loss(train_set)
        improvements = []
        for tr in held_out:
            s_hat, _ = pipe.enhance(tr.mixture)
            improvements.append(si_sdr_improvement(tr.clean, s_hat, tr.mixture))
        mean_imp = float(np.mean(improvements))
        ok = final_loss < init_loss and mean_imp > 0.0
        report(7, "desk-scale training", ok,
               f"{history.steps} steps; train loss {init_loss:.4f} -> "
               f"{final_loss:.4f}; held-out SI-SDR improvement {mean_imp:.2f} dB "
               f"(measured value reported, required > 0)")

    @pytest.mark.slow
    def test_criterion_8_training_determinism(self, tmp_path):
        """Two identical seeded runs, byte-compared artifacts (200-step form)."""
        config_text = (
            "seed = 7\n"
            "pipeline.transform = lifting\n"
            "pipeline.mask = binary\n"
            "train.epochs = 40\n"
            "train.batch_size = 16\n"
            "train.lr = 1e-4\n"
            "train.max_steps = 200\n"
            "train.crop = 4096\n"
            "train.val_fraction = 0\n"
            "data.kind = synthetic\n"
            "data.count = 200\n"
            "data.duration = 1.0\n"
            "data.snr_min = 0\n"
            "data.snr_max = 10\n")
        outputs = []
        for tag in ("a", "b"):
            cfg_path = tmp_path / f"{tag}.cfg"
            cfg_path.write_text(config_text + f"out.dir = {tmp_path / tag}\n")
            assert cli_main(["train", str(cfg_path)]) == 0
            outputs.append((
                (tmp_path / tag / "checkpoint_last.ckpt").read_bytes(),
                (tmp_path / tag / "checkpoint_best.ckpt").read_bytes(),
                (tmp_path / tag / "training_log.csv").read_bytes(),
            ))
        same = outputs[0] == outputs[1]
        report(8, "training determinism", same,
               f"checkpoints and loss logs byte-identical across two seeded "
               f"200-step runs: {same}")

    def test_criterion_9_identity_pipeline_metric_sanity(self):
        pipe = EnhancementPipeline(transform=LiftingTransform(rng=Rng(8)),
                                   mask_source="ones")
        rng = Rng(9)
        worst = 0.0
        for _ in range(10):
            triple = lb.synth_mixture(rng, 0.2, 5.0)
            s_hat, _ = pipe.enhance(triple.mixture)
            worst = max(worst, abs(si_sdr_improvement(triple.clean, s_hat,
                                                      triple.mixture)))
        report(9, "identity-pipeline metric sanity", worst <= 1e-6,
               f"max |improvement| with all-ones mask {worst:.3e} dB "
               f"(tolerance 1e-6)")
