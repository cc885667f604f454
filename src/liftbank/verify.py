"""Property suites behind the ``check`` command and the acceptance tests.

Each suite returns its worst-case error so callers can print it and compare
against the pinned tolerance. The ``corrupt`` flags are negative controls:
they deliberately break one ingredient so a healthy suite must fail.
"""

from __future__ import annotations

import numpy as np

from .lifting import LiftingConfig, LiftingTransform
from .masking import EnhancementPipeline
from .numerics import Rng, finite_difference_gradient
from .objective import LossConfig, sdr_loss_and_grad
from .stft import StftConfig, istft, stft_forward

__all__ = [
    "PR_TOLERANCE",
    "GRAD_TOLERANCE",
    "STFT_PR_TOLERANCE",
    "relative_error",
    "reconstruction_suite",
    "gradient_suite",
    "stft_reconstruction_suite",
]

PR_TOLERANCE = 1e-9
GRAD_TOLERANCE = 1e-4
STFT_PR_TOLERANCE = 1e-10
FD_STEP = 1e-5                          # gradient_suite's central-difference step
STFT_LENGTHS = (129, 512, 2048, 16000)  # signal lengths stft_reconstruction_suite runs


def relative_error(a, b, floor=1e-8):
    """Elementwise |a - b| / max(|a|, |b|, floor), reduced to the maximum."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def reconstruction_suite(config=None, trials=100, seed=0, corrupt=False):
    """Max |inverse(forward(x)) - x| over fresh random transforms and inputs."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    config = config if config is not None else LiftingConfig()
    length = config.time_divisor * max(4, 2048 // config.time_divisor)
    rng = Rng(seed)
    worst = 0.0
    for _ in range(trials):
        transform = LiftingTransform(config, rng.fork())
        x = rng.normal((length,))
        phi = transform.forward(x)
        if corrupt:
            transform.blocks[0].convs[0].weight.data += 0.05
        err = float(np.max(np.abs(transform.inverse(phi) - x)))
        worst = max(worst, err)
    return worst


def gradient_suite(seed=0, corrupt=False):
    """Finite-difference check of the full training gradient.

    Tiny configuration (two lifting stages, 32 samples, fixed binary mask,
    clipped-SDR loss); compares the hand-written backward pass against
    central differences for every parameter and for the pipeline's input.
    The loss's own mixture stays fixed, so the input check is the gradient
    ``pipeline.backward`` returns: the path through the pipeline only.
    """
    rng = Rng(seed)
    config = LiftingConfig(num_stages=2)
    transform = LiftingTransform(config, rng.fork())
    pipeline = EnhancementPipeline(transform=transform, mask_source="binary")
    loss_cfg = LossConfig()
    clean = 0.5 * rng.normal((32,))
    mixture = clean + 0.3 * rng.normal((32,))

    def loss_of_input(x):
        s_hat, _ = pipeline.enhance_training(x)
        return sdr_loss_and_grad(s_hat, clean, mixture, loss_cfg)[0]

    pipeline.zero_grad()
    s_hat, cache = pipeline.enhance_training(mixture)
    _, grad_out = sdr_loss_and_grad(s_hat, clean, mixture, loss_cfg)
    grad_input = pipeline.backward(cache, grad_out).copy()     # the next call reuses its array

    worst = 0.0
    for _, p in pipeline.named_parameters("both"):
        analytic = p.grad.copy()
        if corrupt:
            analytic = 2.0 * analytic + 0.01
        orig = p.data.copy()

        def loss_of_param(v, p=p):
            p.data[...] = v
            return loss_of_input(mixture)

        numeric = finite_difference_gradient(loss_of_param, orig, FD_STEP)
        p.data[...] = orig
        worst = max(worst, relative_error(analytic, numeric))

    numeric = finite_difference_gradient(loss_of_input, mixture, FD_STEP)
    return max(worst, relative_error(grad_input, numeric))


def stft_reconstruction_suite(cfg=None, seed=0, corrupt=False):
    """Max |istft(stft(x)) - x| over the STFT_LENGTHS signal lengths."""
    cfg = cfg if cfg is not None else StftConfig()
    rng = Rng(seed)
    worst = 0.0
    for t in STFT_LENGTHS:
        x = rng.normal((t,))
        spec = stft_forward(x, cfg)
        if corrupt:
            spec.real *= 1.001
        y = istft(spec, cfg, t)
        worst = max(worst, float(np.max(np.abs(y - x))))
    return worst
