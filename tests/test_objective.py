"""SDR, the clipped training loss, and SI-SDR algebra."""

import numpy as np
import pytest

from liftbank.numerics import Rng
from liftbank.objective import (LossConfig, MetricReport, sdr_loss_and_grad,
                                si_sdr, si_sdr_improvement)


class TestSdrLoss:
    def test_perfect_estimate_saturates_at_minus_beta(self):
        rng = Rng(1)
        s = rng.normal((128,))
        n = 0.5 * rng.normal((128,))
        x = s + n
        # eps guards cap each SDR term near 100 dB, so the clipped value sits
        # at 20 * tanh(5), about 1.8e-3 shy of the exact -beta limit
        loss = sdr_loss_and_grad(s, s, x, n, LossConfig(beta_clip=20.0))[0]
        assert loss == pytest.approx(-20.0, abs=0.01)

    def test_both_terms_zero_db(self):
        # s = 0, n = x: term one is sdr(s_hat, 0) = 0 dB identically; with
        # |x - s_hat| = |s_hat| the residual term is 0 dB as well
        s_hat = np.array([1.0, 0.0])
        x = np.array([1.0, 1.0])
        s = np.zeros(2)
        n = x.copy()
        assert sdr_loss_and_grad(s_hat, s, x, n)[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("beta", [20.0, 3.0])
    def test_matches_docstring_formula(self, beta):
        rng = Rng(8)
        s = rng.normal((5, 300))
        n = 0.6 * rng.normal((5, 300))
        x = s + n
        s_hat = s + 0.4 * rng.normal((5, 300))
        eps = 1e-8

        def clipped_sdr(u, v):
            ratio = (np.sum(u * u, axis=-1) + eps) / (np.sum((u - v) ** 2, axis=-1) + eps)
            return beta * np.tanh(10.0 * np.log10(ratio) / beta)

        want = -np.mean(0.5 * (clipped_sdr(s_hat, s) + clipped_sdr(x - s_hat, n)))
        got = sdr_loss_and_grad(s_hat, s, x, n, LossConfig(beta_clip=beta, eps=eps))[0]
        assert got == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("field, value", [
        ("beta_clip", float("nan")), ("beta_clip", float("inf")), ("beta_clip", 0.0),
        ("eps", float("nan")), ("eps", float("inf")), ("eps", -1e-8)])
    def test_config_rejects_non_positive_or_non_finite(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            LossConfig(**{field: value})

    def test_gradient_matches_finite_differences(self):
        rng = Rng(2)
        s = rng.normal((64,))
        n = 0.7 * rng.normal((64,))
        x = s + n
        s_hat = s + 0.3 * rng.normal((64,))
        cfg = LossConfig()
        loss, grad = sdr_loss_and_grad(s_hat, s, x, n, cfg)
        h = 1e-5
        numeric = np.zeros_like(s_hat)
        for i in range(s_hat.size):
            delta = np.zeros_like(s_hat)
            delta[i] = h
            fp = sdr_loss_and_grad(s_hat + delta, s, x, n, cfg)[0]
            fm = sdr_loss_and_grad(s_hat - delta, s, x, n, cfg)[0]
            numeric[i] = (fp - fm) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-8)
        assert float(np.max(np.abs(grad - numeric) / denom)) <= 1e-4

    def test_batched_mean_and_grad_scaling(self):
        rng = Rng(3)
        s = rng.normal((4, 32))
        n = 0.5 * rng.normal((4, 32))
        x = s + n
        s_hat = s + 0.2 * rng.normal((4, 32))
        loss, grad = sdr_loss_and_grad(s_hat, s, x, n)
        singles = [sdr_loss_and_grad(s_hat[i], s[i], x[i], n[i])[0] for i in range(4)]
        assert loss == pytest.approx(float(np.mean(singles)), rel=1e-12)
        _, g0 = sdr_loss_and_grad(s_hat[0], s[0], x[0], n[0])
        np.testing.assert_allclose(grad[0], g0 / 4.0, atol=1e-15)

    def test_per_sample_losses(self):
        """With ``per_sample`` the loss is each row's own loss, bitwise, and
        the gradient is still the mean's."""
        rng = Rng(4)
        s = rng.normal((2, 3, 32))
        n = 0.5 * rng.normal((2, 3, 32))
        s_hat = s + 0.2 * rng.normal((2, 3, 32))
        losses, grad = sdr_loss_and_grad(s_hat, s, s + n, n, None, True)
        loss, grad_mean = sdr_loss_and_grad(s_hat, s, s + n, n)
        assert losses.shape == (2, 3)
        assert loss == float(losses.mean())
        np.testing.assert_array_equal(grad, grad_mean)
        for i in np.ndindex(2, 3):
            assert losses[i] == sdr_loss_and_grad(s_hat[i], s[i], s[i] + n[i], n[i])[0]

    def test_all_zero_estimate_rejected(self):
        with pytest.raises(ValueError, match="undefined SDR"):
            sdr_loss_and_grad(np.zeros(8), np.ones(8), np.ones(8), np.zeros(8))


class TestSiSdr:
    def test_hand_case_exactly_zero_db(self):
        assert si_sdr(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == 0.0

    def test_scaled_estimate_is_capped_maximum(self):
        s = Rng(4).normal((32,))
        assert si_sdr(s, 3.0 * s) == 100.0
        assert si_sdr(s, -0.5 * s) == 100.0

    def test_scale_invariance_many_pairs(self):
        rng = Rng(5)
        for _ in range(200):
            s = rng.normal((16,))
            y = rng.normal((16,))
            c = float(rng.uniform((), 0.1, 5.0)[()])
            if int(rng.raw(1)[0]) % 2:
                c = -c
            assert si_sdr(s, c * y) == pytest.approx(si_sdr(s, y), abs=1e-9)

    def test_orthogonal_estimate_floors(self):
        assert si_sdr(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == -100.0

    def test_all_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="undefined SI-SDR"):
            si_sdr(np.zeros(4), np.ones(4))

    def test_improvement_identity_is_zero(self):
        rng = Rng(6)
        s = rng.normal((64,))
        x = s + 0.3 * rng.normal((64,))
        assert si_sdr_improvement(s, x, x) == pytest.approx(0.0, abs=1e-12)

    def test_improvement_oracle_is_cap_minus_input(self):
        rng = Rng(7)
        s = rng.normal((64,))
        x = s + 0.3 * rng.normal((64,))
        assert si_sdr_improvement(s, s, x) == pytest.approx(100.0 - si_sdr(s, x))


class TestMetricReport:
    def test_csv_row(self):
        report = MetricReport("clip1", 1.0, 2.5, 1.5)
        assert report.csv_row() == "clip1,1.000000,2.500000,1.500000"
        assert MetricReport.CSV_HEADER.startswith("utterance_id")
