"""liftbank: trainable, perfectly reconstructing time-frequency transform.

An invertible lifting-scheme filterbank (additive couplings over polyphase
branches with invertible down-sampling) whose synthesis path shares the
analysis parameters, plus the surrounding speech-enhancement pipeline:
mask application in the learned domain, a perfectly reconstructing STFT
baseline with canonical dual synthesis, clipped-SDR training, and SI-SDR
evaluation. All gradients are hand-written and checked against a central
finite-difference oracle.
"""

from .numerics import Rng, finite_difference_gradient, pad_to_multiple
from .layers import Activation, Conv1d, Conv2d, Deconv2d, Parameter
from .checkpoint import load_checkpoint, save_checkpoint
from .lifting import (LiftingConfig, LiftingTransform,
                      coupling_forward, coupling_inverse,
                      invertible_downsample, invertible_upsample,
                      split, split_inverse)
from .stft import (StftConfig, canonical_dual_window, hann_window, istft,
                   log_magnitude_feature, stft_forward)
from .masking import (BinaryMaskSpec, EnhancementPipeline, MaskEstimator,
                      binary_mask_generate)
from .objective import (LossConfig, MetricReport, sdr_loss_and_grad, si_sdr,
                        si_sdr_improvement)
from .optim import Adam, TrainConfig, TrainHistory, TrainingDiverged, train
from .audio_data import (MixtureTriple, WavClip, batch_iter, read_manifest,
                         synth_dataset, synth_mixture, wav_read, wav_write)

__version__ = "0.1.0"
