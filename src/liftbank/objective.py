"""Signal-to-distortion objectives: clipped SDR training loss and SI-SDR.

The training loss is the negated mean of

    0.5 * ( clip_b[SDR(s_hat, s)] + clip_b[SDR(x - s_hat, n)] )

with SDR(u, v) = 10 log10(|u|^2 / |u - v|^2) and clip_b[v] = b * tanh(v / b),
so "minimize" is uniform across the codebase and the optimum saturates at
-beta. Both terms are eps-guarded so ratios stay finite.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossConfig",
    "MetricReport",
    "sdr_loss_and_grad",
    "si_sdr",
    "si_sdr_improvement",
]

_LOG10 = math.log(10.0)
_SI_SDR_CAP_DB = 100.0


@dataclass(frozen=True)
class LossConfig:
    beta_clip: float = 20.0
    eps: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.beta_clip < math.inf:
            raise ValueError("clipping parameter must be positive and finite")
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")


@dataclass
class MetricReport:
    utterance_id: str
    si_sdr_in: float
    si_sdr_out: float
    improvement: float

    CSV_HEADER = "utterance_id,si_sdr_in,si_sdr_out,improvement"

    def csv_row(self):
        """One CSV row without its line end; the id is quoted where it needs it."""
        row = io.StringIO()
        csv.writer(row, lineterminator="").writerow(
            [self.utterance_id] + [f"{v:.6f}" for v in
                                   (self.si_sdr_in, self.si_sdr_out, self.improvement)])
        return row.getvalue()


def _clipped_term(u, v, beta, eps):
    """tanh(SDR(u, v) / beta) per sample over the last axis, and the gradient
    of the clipped term beta * tanh(SDR(u, v) / beta) with respect to u.

    The loss is -0.5 times the mean of the terms of (s_hat, s) and (x - s_hat,
    n), so the second one's gradient enters d(loss)/d(s_hat) negated and
    d(loss)/d(x) as it is.
    """
    num = np.sum(u * u, axis=-1) + eps
    den = np.sum((u - v) ** 2, axis=-1) + eps
    th = np.tanh((10.0 / _LOG10) * (np.log(num) - np.log(den)) / beta)
    grad = (1.0 - th * th)[..., None] * (
        (20.0 / _LOG10) * (u / num[..., None] - (u - v) / den[..., None]))
    return th, grad


def sdr_loss_and_grad(s_hat, s, x, n, cfg=None, per_sample=False):
    """Negated clipped two-term SDR score plus its gradient with respect to the estimate.

    Signals are (..., T); the loss is the mean over leading axes of the
    per-sample loss, or with ``per_sample`` the (...) array of them, and the
    gradient is the mean's. Training passes n = x - s, so x = s + n by construction.
    """
    cfg = cfg if cfg is not None else LossConfig()
    s_hat = np.asarray(s_hat, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if not (s_hat.shape == s.shape == x.shape == n.shape):
        raise ValueError("signal shapes must agree")
    # exact-zero comparisons: non-finite estimates must fall through to the
    # loss value so the trainer can flag divergence instead
    if np.any(np.abs(s_hat).sum(axis=-1) == 0.0):
        raise ValueError("undefined SDR: estimate is all-zero")
    if np.any(np.abs(x - s_hat).sum(axis=-1) == 0.0):
        raise ValueError("undefined SDR: residual is all-zero")
    beta, eps = cfg.beta_clip, cfg.eps

    # divergence shows up as non-finite values here; the caller checks the
    # loss, so the intermediate overflow warnings are just noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # residual term first: no full-size gradient is held beside its residual
        th2, g2 = _clipped_term(x - s_hat, n, beta, eps)
        th1, g1 = _clipped_term(s_hat, s, beta, eps)
        losses = -0.5 * (beta * th1 + beta * th2)
        # the residual x - s_hat falls as s_hat rises
        grad = -0.5 * (g1 - g2) / losses.size
    return (losses if per_sample else float(losses.mean())), grad


def si_sdr(s, s_hat):
    """Scale-invariant SDR in dB, clamped to +/-100 dB at the degeneracies.

    The estimate is projected onto the reference (gamma = <s, s_hat> / |s|^2)
    before the ratio, which makes the value invariant to any nonzero scaling
    of the estimate.
    """
    s = np.asarray(s, dtype=np.float64).ravel()
    s_hat = np.asarray(s_hat, dtype=np.float64).ravel()
    if s.shape != s_hat.shape:
        raise ValueError("signal shapes must agree")
    energy = float(s @ s)
    if energy == 0.0:
        raise ValueError("undefined SI-SDR: reference is all-zero")
    gamma = float(s @ s_hat) / energy
    num = gamma * gamma * energy
    den = float(np.sum((gamma * s - s_hat) ** 2))
    if num == 0.0:
        return -_SI_SDR_CAP_DB
    if den == 0.0 or 10.0 * math.log10(num / den) > _SI_SDR_CAP_DB:
        return _SI_SDR_CAP_DB
    return max(10.0 * math.log10(num / den), -_SI_SDR_CAP_DB)


def si_sdr_improvement(s, s_hat, x):
    """SI-SDR gain of the estimate over the unprocessed mixture."""
    return si_sdr(s, s_hat) - si_sdr(s, x)
