"""Adam optimizer and the deterministic end-to-end training loop.

Gradients reach the transform parameters from both the analysis and the
synthesis path of each step (the two share their predictors), which the
layer-level accumulation handles automatically. Everything is seeded and
reduced in a fixed order, so identical configurations reproduce identical
parameter trajectories bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio_data import batch_iter
from .masking import PARAMETER_GROUPS
from .objective import LossConfig, sdr_loss_and_grad, si_sdr_improvement
from .numerics import Rng

__all__ = ["Adam", "TrainConfig", "TrainHistory", "TrainingDiverged", "prepare", "train"]


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or a gradient stops being finite."""


class Adam:
    """Standard Adam with bias correction over named Parameter objects."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        if not self.params:
            raise ValueError("no parameters to optimize")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for _, p in self.params]
        self._v = [np.zeros_like(p.data) for _, p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for (name, p), m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise ValueError(f"non-finite gradient for parameter {name}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 16
    lr: float = 1e-4
    seed: int = 0
    trainable: str = "transform"      # one of masking.PARAMETER_GROUPS
    val_fraction: float = 0.1
    crop_len: int = 16384
    max_steps: int = 0                # 0 = no cap
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not 0.0 <= self.lr < np.inf:
            raise ValueError(f"learning rate must be >= 0 and finite, got {self.lr}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("validation fraction must lie in [0, 1)")
        if self.trainable not in PARAMETER_GROUPS:
            raise ValueError(f"unknown trainable group {self.trainable!r}")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0 (0 = no cap), got {self.max_steps}")
        if self.crop_len < 1:
            raise ValueError(f"crop length must be >= 1, got {self.crop_len}")


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_improvement: list = field(default_factory=list)
    steps: int = 0
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    best_state: dict = field(default_factory=dict)


def _split_train_val(dataset, fraction, seed):
    order = Rng(seed).permutation(len(dataset))
    n_val = int(round(fraction * len(dataset)))
    if fraction > 0.0 and n_val == 0 and len(dataset) > 1:
        n_val = 1
    val_idx = order[len(dataset) - n_val:]
    train_idx = order[:len(dataset) - n_val]
    train = [dataset[int(i)] for i in train_idx]
    val = [dataset[int(i)] for i in val_idx]
    return train, val


def _evaluate(pipeline, triples, loss_cfg):
    """Mean loss and mean SI-SDR improvement over full-length utterances."""
    losses = []
    improvements = []
    for triple in triples:
        s_hat, _ = pipeline.enhance(triple.mixture)
        loss, _ = sdr_loss_and_grad(s_hat, triple.clean, triple.mixture, loss_cfg)
        losses.append(loss)
        improvements.append(si_sdr_improvement(triple.clean, s_hat, triple.mixture))
    if not losses:
        return float("nan"), float("nan")
    return float(np.mean(losses)), float(np.mean(improvements))


def prepare(pipeline, dataset, cfg):
    """``train``'s parameters to optimize and its (train, validation) split, or
    a ValueError naming why training cannot start; changes nothing."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    params = list(pipeline.named_parameters(cfg.trainable))
    if not params:
        raise ValueError(f"pipeline has no parameters in group {cfg.trainable!r}")
    train_set, val_set = _split_train_val(dataset, cfg.val_fraction, cfg.seed)
    if not train_set:
        raise ValueError(f"train split is empty (val_fraction {cfg.val_fraction:g})")
    return params, train_set, val_set


def train(pipeline, dataset, cfg):
    """Run the optimization loop; returns the per-epoch history.

    Per step: batched enhance, clipped-SDR loss, hand-written backward
    through every path that reaches a trainable group, one Adam update,
    one spectral-norm power iteration. The best-validation parameter
    snapshot is kept alongside the final parameters.

    A step holds one step's caches, not two: it hands the previous step's
    EnhanceCache, spent once its backward has run, to ``enhance_training``,
    which empties it as the new cache fills. An epoch's last cache goes
    before validation.
    """
    params, train_set, val_set = prepare(pipeline, dataset, cfg)
    optimizer = Adam(params, lr=cfg.lr)

    history = TrainHistory()
    stop = False
    for epoch in range(cfg.epochs):
        losses = []
        cache = None
        for clean, mixture in batch_iter(train_set, cfg.batch_size, seed=cfg.seed + epoch,
                                         crop_len=cfg.crop_len):
            pipeline.zero_grad()
            s_hat, cache = pipeline.enhance_training(mixture, cache)
            loss, grad = sdr_loss_and_grad(s_hat, clean, mixture, cfg.loss, True)
            del s_hat       # neither it nor the gradient is held past its last use
            if not np.all(np.isfinite(loss)):
                raise TrainingDiverged(f"non-finite loss at step {history.steps}")
            pipeline.backward(cache, grad)
            del grad
            try:
                optimizer.step()
            except ValueError as exc:       # a non-finite gradient
                raise TrainingDiverged(f"{exc} at step {history.steps}") from exc
            pipeline.update_spectral_state(1)
            losses += loss.tolist()
            history.steps += 1
            if cfg.max_steps and history.steps >= cfg.max_steps:
                stop = True
                break
        del cache
        val_loss, val_imp = _evaluate(pipeline, val_set, cfg.loss)
        # the exactly rounded mean over samples: the same for every shuffle
        history.train_loss.append(math.fsum(losses) / len(losses))
        history.val_loss.append(val_loss)
        history.val_improvement.append(val_imp)
        if val_set and val_loss < history.best_val_loss:
            history.best_val_loss = val_loss
            history.best_epoch = epoch
            history.best_state = {k: v.copy() for k, v in pipeline.state_dict().items()}
        if stop:
            break
    return history
