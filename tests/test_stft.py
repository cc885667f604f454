"""STFT analysis/synthesis and the canonical dual window."""

import numpy as np
import pytest

from liftbank.numerics import Rng
from liftbank.stft import (StftConfig, canonical_dual_window, frame_count,
                           hann_window, istft, istft_vjp, log_magnitude_feature,
                           stft_forward)


class TestHannWindow:
    def test_endpoint_and_midpoint(self):
        w = hann_window(512)
        assert w[0] == 0.0
        assert w[256] == pytest.approx(1.0)

    def test_squared_overlap_is_constant(self):
        """Periodic shifts of the squared window tile to a flat sum."""
        n, hop = 512, 128
        w2 = hann_window(n) ** 2
        sums = w2.reshape(n // hop, hop).sum(axis=0)
        np.testing.assert_allclose(sums, sums[0], atol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            hann_window(1)


class TestCanonicalDualWindow:
    def test_rectangular_no_overlap(self):
        w = np.ones(8)
        d = canonical_dual_window(w, 8)
        np.testing.assert_allclose(d, w)

    def test_scaling_homogeneity(self):
        w = hann_window(64)
        d = canonical_dual_window(w, 16)
        d_scaled = canonical_dual_window(3.0 * w, 16)
        np.testing.assert_allclose(d_scaled, d / 3.0, atol=1e-12)

    def test_dual_identity_on_periodic_shifts(self):
        """Overlap-add of w*d over hops is 1 at every sample."""
        w = hann_window(512)
        d = canonical_dual_window(w, 128)
        wd = (w * d).reshape(4, 128).sum(axis=0)
        np.testing.assert_allclose(wd, 1.0, atol=1e-12)

    def test_degenerate_pair_rejected(self):
        w = np.zeros(16)
        w[3] = 1.0
        with pytest.raises(ValueError, match="not invertible"):
            canonical_dual_window(w, 4)

    def test_bad_hop_rejected(self):
        with pytest.raises(ValueError):
            canonical_dual_window(hann_window(64), 24)


class TestStftForward:
    def test_frame_count(self):
        spec = stft_forward(Rng(0).normal((512,)), StftConfig())
        assert spec.shape == (257, 5)
        assert frame_count(512, 128) == 5

    def test_dc_signal_concentrates_in_bin_zero(self):
        spec = stft_forward(np.ones(2048), StftConfig())
        mag = np.hypot(spec.real, spec.imag)
        interior = mag[:, 5:-5]
        assert np.all(interior[0] > 100.0)
        assert float(np.max(interior[10:])) < 1e-9

    def test_zero_signal(self):
        spec = stft_forward(np.zeros(1000), StftConfig())
        assert np.all(spec.real == 0.0) and np.all(spec.imag == 0.0)

    def test_parseval_per_frame(self):
        """One-sided bins carry frame energy up to the DFT length factor."""
        cfg = StftConfig()
        x = Rng(1).normal((4096,))
        wl, hop, nfft = cfg.window_length, cfg.hop, cfg.dft_length
        pad = wl // 2
        xp = np.pad(x, (pad, wl - pad))
        m = 7
        frame = xp[m * hop:m * hop + wl] * cfg.window
        spec = stft_forward(x, cfg)
        power = spec.real[:, m] ** 2 + spec.imag[:, m] ** 2
        weights = np.full(nfft // 2 + 1, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        lhs = float(np.sum(weights * power))
        rhs = nfft * float(np.sum(frame * frame))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_batched_matches_loop(self):
        cfg = StftConfig(window_length=64, hop=16, dft_length=64)
        x = Rng(2).normal((3, 300))
        spec = stft_forward(x, cfg)
        for i in range(3):
            si = stft_forward(x[i], cfg)
            np.testing.assert_allclose(spec.real[i], si.real, atol=1e-12)
            np.testing.assert_allclose(spec.imag[i], si.imag, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StftConfig(window_length=500, hop=128)
        with pytest.raises(ValueError):
            StftConfig(dft_length=256)


class TestIstft:
    def test_round_trip_standard_lengths(self):
        cfg = StftConfig()
        rng = Rng(3)
        for t in (129, 512, 2048, 16000):
            x = rng.normal((t,))
            y = istft(stft_forward(x, cfg), cfg, t)
            assert float(np.max(np.abs(y - x))) <= 1e-10, t

    def test_round_trip_tiny_signal(self):
        cfg = StftConfig()
        x = Rng(4).normal((1,))
        y = istft(stft_forward(x, cfg), cfg, 1)
        assert float(np.max(np.abs(y - x))) <= 1e-10

    def test_zero_spectrogram(self):
        cfg = StftConfig()
        spec = np.zeros((257, 5), dtype=complex)
        assert np.all(istft(spec, cfg, 512) == 0.0)

    def test_linearity(self):
        cfg = StftConfig()
        rng = Rng(5)
        a = stft_forward(rng.normal((1000,)), cfg)
        b = stft_forward(rng.normal((1000,)), cfg)
        summed = (a.real + b.real) + 1j * (a.imag + b.imag)
        lhs = istft(summed, cfg, 1000)
        rhs = istft(a, cfg, 1000) + istft(b, cfg, 1000)
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-12

    def test_zero_padded_dft_round_trip(self):
        cfg = StftConfig(window_length=256, hop=64, dft_length=512)
        x = Rng(6).normal((3000,))
        y = istft(stft_forward(x, cfg), cfg, 3000)
        assert float(np.max(np.abs(y - x))) <= 1e-10

    @pytest.mark.parametrize("wl, hop, nfft, lead", [
        (32, 8, 32, ()), (32, 32, 32, ()), (48, 16, 64, ()), (32, 8, 32, (2,))],
        ids=["32-8-32", "32-32-32", "48-16-64", "32-8-32-batched"])
    def test_adjoint_identity(self, wl, hop, nfft, lead):
        """<istft(S), r> == <S, istft_vjp(r)> for one-sided spectra."""
        # without overlap, a Hann window's zero sample is covered by no frame
        window = np.ones(wl) if hop == wl else None
        cfg = StftConfig(window_length=wl, hop=hop, dft_length=nfft, window=window)
        rng = Rng(7)
        t = 90
        m = frame_count(t, cfg.hop)
        shape = lead + (cfg.n_bins, m)
        spec = rng.normal(shape) + 1j * rng.normal(shape)
        spec.imag[..., 0, :] = 0.0
        spec.imag[..., -1, :] = 0.0
        r = rng.normal(lead + (t,))
        lhs = float(np.sum(istft(spec, cfg, t) * r))
        g = istft_vjp(r, cfg, m)
        rhs = float(np.sum(spec.real * g.real) + np.sum(spec.imag * g.imag))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestLogMagnitudeFeature:
    def test_unit_magnitude_gives_zero(self):
        spec = np.ones((4, 3)) + 1j * np.zeros((4, 3))
        np.testing.assert_allclose(log_magnitude_feature(spec), 0.0, atol=1e-15)

    def test_zero_floors_at_log_eps(self):
        spec = np.zeros((2, 2)) + 1j * np.zeros((2, 2))
        np.testing.assert_allclose(log_magnitude_feature(spec, eps=1e-8),
                                   np.log(1e-8))

    def test_magnitude_e_gives_one(self):
        spec = np.full((2, 2), np.e) + 1j * np.zeros((2, 2))
        np.testing.assert_allclose(log_magnitude_feature(spec), 1.0, atol=1e-12)

    def test_magnitude_is_hypot_bitwise(self):
        """The magnitude is hypot(re, im), which np.abs of the complex array
        need not match in the last bit."""
        rng = Rng(8)
        re, im = rng.normal((257, 40)), rng.normal((257, 40))
        want = np.log(np.maximum(np.hypot(re, im), 1e-8))
        np.testing.assert_array_equal(log_magnitude_feature(re + 1j * im), want)
        cfg = StftConfig()
        spec = stft_forward(rng.normal((3000,)), cfg)
        want = np.log(np.maximum(np.hypot(spec.real.copy(), spec.imag.copy()), 1e-8))
        np.testing.assert_array_equal(log_magnitude_feature(spec), want)

    def test_bad_eps(self):
        spec = np.ones((1, 1)) + 1j * np.zeros((1, 1))
        with pytest.raises(ValueError):
            log_magnitude_feature(spec, eps=0.0)
