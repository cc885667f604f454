"""Perfectly reconstructing STFT baseline.

Analysis windows a centered, zero-padded signal and takes a one-sided real
DFT per frame. Synthesis applies the canonical dual window

    d[t] = w[t] / sum_k w[t - k * hop]^2

and overlap-adds. The dual sum makes windowed overlap-add the exact inverse
wherever frames fully overlap; near the signal ends a few shifted copies of
the window fall outside the analyzed frame set, so synthesis additionally
divides by the realized overlap of w * d (identically 1 in the interior),
which restores exactness for every sample of the original signal.
A spectrogram is the complex (..., F, M) array of one-sided bins by frames
that the analysis DFT returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "StftConfig",
    "hann_window",
    "canonical_dual_window",
    "frame_count",
    "stft_forward",
    "istft",
    "istft_vjp",
    "log_magnitude_feature",
]

_TINY = 1e-300


def hann_window(n):
    """Periodic Hann window w[t] = 0.5 * (1 - cos(2 pi t / n))."""
    if n < 2:
        raise ValueError("window length must be at least 2")
    t = np.arange(n, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * t / n))


@dataclass
class StftConfig:
    window_length: int = 512
    hop: int = 128
    dft_length: int = 512
    window: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.hop < 1 or self.window_length < 2:
            raise ValueError("need hop >= 1 and window_length >= 2")
        if self.window_length % self.hop != 0:
            raise ValueError("window_length must be divisible by hop")
        if self.dft_length < self.window_length:
            raise ValueError("dft_length must be at least window_length")
        if self.window is None:
            self.window = hann_window(self.window_length)
        self.window = np.asarray(self.window, dtype=np.float64)
        if self.window.shape != (self.window_length,):
            raise ValueError("window length does not match window_length")

    @property
    def n_bins(self):
        return self.dft_length // 2 + 1


def canonical_dual_window(w, hop):
    """Canonical dual of an analysis window under periodic hop shifts.

    d[t] = w[t] / sum_k w[t - k*hop]^2 ; requires hop to divide len(w) and a
    strictly positive overlap sum.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    hop = int(hop)
    if hop < 1 or n % hop != 0:
        raise ValueError("hop must divide the window length")
    wsq = (w * w).reshape(n // hop, hop)
    denom_base = wsq.sum(axis=0)                 # length hop, one value per phase
    if np.any(denom_base <= 0.0):
        raise ValueError("window/hop pair not invertible")
    return w / np.tile(denom_base, n // hop)


def frame_count(t, hop):
    return t // hop + 1


def _analysis(x, n_frames, window, cfg):
    """One-sided DFT (..., F, M) of the windowed frames of x; frame m starts at m * hop."""
    frames = sliding_window_view(x, cfg.window_length, axis=-1)
    frames = frames[..., :(n_frames - 1) * cfg.hop + 1:cfg.hop, :] * window   # (..., M, wl)
    return np.moveaxis(np.fft.rfft(frames, n=cfg.dft_length, axis=-1), -1, -2)


def _overlap_add(frames, cfg, length):
    """Adjoint of the framing into ``length`` samples, one step per window phase;
    phases run backwards so every sample sums its frames in time order."""
    m, hop = frames.shape[-2], cfg.hop
    phases = cfg.window_length // hop
    y = np.zeros(frames.shape[:-2] + (length,))
    blocks = y[..., :(m + phases - 1) * hop].reshape(y.shape[:-1] + (m + phases - 1, hop))
    for p in reversed(range(phases)):
        blocks[..., p:p + m, :] += frames[..., p * hop:(p + 1) * hop]
    return y


def stft_forward(x, cfg):
    """Analysis: center-pad, window, one-sided real DFT per frame.

    Accepts (..., T) and returns the complex (..., F, M) spectrogram; frame m
    covers original samples [m*hop - window_length/2, m*hop + window_length/2)
    and there are floor(T / hop) + 1 frames.
    """
    x = np.asarray(x, dtype=np.float64)
    t = x.shape[-1]
    if t < 1:
        raise ValueError("empty signal")
    wl = cfg.window_length
    pad = wl // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, wl - pad)])
    return _analysis(xp, frame_count(t, cfg.hop), cfg.window, cfg)


def _synthesis_window(cfg, n_frames, out_length):
    """Dual window, and the realized overlap-add of w * d over the synthesis
    buffer (1 in the interior and past the last frame)."""
    wl, hop = cfg.window_length, cfg.hop
    dual = canonical_dual_window(cfg.window, hop)
    span = (n_frames - 1) * hop + wl
    cov = _overlap_add(np.broadcast_to(cfg.window * dual, (n_frames, wl)), cfg,
                       max(span, wl // 2 + out_length))
    cov[span:] = 1.0
    return dual, np.maximum(cov, _TINY)


def istft(spec, cfg, out_length):
    """Synthesis: inverse DFT per frame, dual window, overlap-add, trim."""
    wl = cfg.window_length
    dual, cov = _synthesis_window(cfg, spec.shape[-1], out_length)
    frames = np.fft.irfft(np.moveaxis(spec, -2, -1), n=cfg.dft_length, axis=-1)[..., :wl]
    frames *= dual
    y = _overlap_add(frames, cfg, cov.size) / cov
    pad = wl // 2
    return y[..., pad:pad + out_length]


def istft_vjp(grad_y, cfg, n_frames):
    """Adjoint of ``istft`` as a real-linear map; returns a complex (..., F, M)
    gradient whose real and imaginary parts pair with the spectrogram's.

    Needed to push training gradients from the waveform back onto a masked
    spectrogram.
    """
    wl, nfft = cfg.window_length, cfg.dft_length
    grad_y = np.asarray(grad_y, dtype=np.float64)
    dual, cov = _synthesis_window(cfg, n_frames, grad_y.shape[-1])
    gy = np.zeros(grad_y.shape[:-1] + (cov.size,))
    pad = wl // 2
    gy[..., pad:pad + grad_y.shape[-1]] = grad_y
    # adjoint of the one-sided inverse real DFT: analysis with the dual window
    scale = np.full(nfft // 2 + 1, 2.0 / nfft)
    scale[0] = 1.0 / nfft
    if nfft % 2 == 0:
        scale[-1] = 1.0 / nfft
    return _analysis(gy / cov, n_frames, dual, cfg) * scale[:, None]


def log_magnitude_feature(spec, eps=1e-8):
    """Log-magnitude feature log(max(hypot(re, im), eps)); np.abs of the
    complex array can differ from hypot in the last bit."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return np.log(np.maximum(np.hypot(spec.real, spec.imag), eps))
