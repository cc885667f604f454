"""Mask generation and the end-to-end enhancement pipelines.

Two mask sources: a fixed, time-constant binary channel partition (the
transform must learn to route target and interference energy into disjoint
channels; blocking the lifting feature's upper half, as the default does,
spares the analysis the top predictor), and a small encoder/decoder network
with skip connections, spectral-normalised or not, whose sigmoid head emits
values in (0, 1). Both plug into either transform path: the lifting
filterbank (mask applied to its feature) or the STFT baseline (mask applied
to the complex spectrogram, estimated from the log magnitude).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .layers import Activation, Conv2d, Deconv2d, Module
from .numerics import Rng, pad_to_multiple
from .stft import frame_count, istft, istft_vjp, log_magnitude_feature, stft_forward

__all__ = [
    "BinaryMaskSpec",
    "binary_mask_generate",
    "MaskEstimator",
    "EstimatorCache",
    "EnhancementPipeline",
    "EnhanceCache",
]

NORM_KINDS = ("none", "spectral")

# ``EnhancementPipeline.enhance`` runs an input in chunks of this many samples
# (rounded up to the pipeline's alignment), so its memory does not grow with
# the input's length
CHUNK_SAMPLES = 2 ** 16


def _round_up(n, m):
    return -(-n // m) * m


@dataclass(frozen=True)
class BinaryMaskSpec:
    """Fixed channel partition; rows in speech_channels pass, the rest block."""

    n_channels: int
    speech_channels: tuple = None

    def __post_init__(self):
        if self.n_channels < 2:
            raise ValueError("need at least two channels to partition")
        if self.speech_channels is None:
            if self.n_channels % 2 != 0:
                raise ValueError("default partition needs an even channel count")
            object.__setattr__(self, "speech_channels",
                               tuple(range(self.n_channels // 2)))
        else:
            chans = tuple(int(c) for c in self.speech_channels)
            if any(c < 0 or c >= self.n_channels for c in chans):
                raise ValueError("speech channel index out of range")
            object.__setattr__(self, "speech_channels", chans)


def binary_mask_generate(spec, n_frames):
    """(C, M) hard mask, constant along the time axis."""
    if n_frames < 1:
        raise ValueError("need at least one frame")
    mask = np.zeros((spec.n_channels, int(n_frames)))
    mask[list(spec.speech_channels), :] = 1.0
    return mask


# ---------------------------------------------------------------------------
# mask estimator
# ---------------------------------------------------------------------------

@dataclass
class EstimatorCache:
    """Layer caches of one MaskEstimator.forward_with_cache call."""

    encoder: list        # per encoder stage: (conv, activation) caches
    decoder: list        # per decoder stage, in run order
    head: tuple
    sigmoid: np.ndarray


class MaskEstimator(Module):
    """Strided-conv encoder / mirrored deconv decoder with skip concatenation.

    Input is a 2-D feature (channels-or-bins by frames) treated as a
    one-channel image; output is a same-shape mask in (0, 1). Spatial sizes
    that are not divisible by the total stride are zero-padded on the way in
    and cropped on the way out.
    """

    prefix = "mask"

    def __init__(self, depth=3, base_channels=16, norm="none", rng=None):
        if norm not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {norm!r}")
        if depth < 1:
            raise ValueError("need at least one encoder stage")
        if base_channels < 1:
            raise ValueError(f"mask estimator needs base_channels >= 1, got {base_channels}")
        rng = rng if rng is not None else Rng(0)
        self.depth = int(depth)
        self.act = Activation("leaky_relu", 0.2)
        sn = norm == "spectral"
        chans = [base_channels * (2 ** i) for i in range(depth)]
        self.enc_convs = []
        prev = 1
        for c in chans:
            self.enc_convs.append(Conv2d(prev, c, kernel_size=4, stride=2, padding=1,
                                         spectral_norm=sn, rng=rng))
            prev = c
        self.dec_convs = []
        for i in range(depth - 1, -1, -1):
            in_c = chans[depth - 1] if i == depth - 1 else 2 * chans[i]
            out_c = chans[i - 1] if i >= 1 else base_channels
            self.dec_convs.append(Deconv2d(in_c, out_c, kernel_size=4, stride=2, padding=1,
                                           spectral_norm=sn, rng=rng))
        # zero-init head: the estimator starts out as a flat 0.5 mask
        self.head = Conv2d(base_channels, 1, kernel_size=1, rng=rng)
        self.head.weight.data[...] = 0.0
        self.head.bias.data[...] = 0.0
        self.sigmoid = Activation("sigmoid")
        self._held = threading.local()

    @property
    def total_stride(self):
        return 2 ** self.depth

    @property
    def frame_receptive_field(self):
        """Frames on either side of an output frame that its mask value can
        depend on.

        Encoder level i (4 taps, stride 2, padding 1, read at a 2**i frame
        grid) and its transposed mirror in the decoder together widen the
        dependence by 3 * 2**i frames, 3 * (total_stride - 1) over all levels.
        """
        return 3 * (self.total_stride - 1)

    def _image(self, a):
        """(..., H, W) as a one-channel (..., 1, H', W') image, zero-padded at
        the end of both axes to multiples of the total stride."""
        s = self.total_stride
        h, w = a.shape[-2:]
        return np.pad(a[..., None, :, :], [(0, 0)] * (a.ndim - 1) + [(0, -h % s), (0, -w % s)])

    def _resident(self, shape):
        """An array of ``shape`` over this thread's resident buffer, grown to
        fit with an eighth to spare (a file's middle chunks are a little wider
        than its first), so chunks and calls reuse it instead of faulting it in."""
        n, buf = math.prod(shape), getattr(self._held, "buf", None)
        if buf is None or buf.size < n:
            self._held.buf = None       # free the smaller one first
            self._held.buf = buf = np.empty(n + n // 8)
        return buf[:n].reshape(shape)

    def _stage(self, conv, h, caches, out=None):
        """conv -> leaky ReLU, the conv running the activation on each row
        block as it finishes it; appends the two layer caches to ``caches``,
        or drops them when it is None. A stage given ``out``, its part of a
        skip-concat buffer, writes its output there.
        """
        h, c1 = conv.forward(h, act=self.act, out=out)
        if caches is not None:
            caches.append((c1, h))     # the activation's cache is its output
        return h

    def _stage_backward(self, conv, caches, g):
        c1, c2 = caches
        return conv.backward(c1, self.act.backward(c2, g))

    def _run(self, feature, keep):
        """Mask and, with ``keep``, its EstimatorCache. Inference streams the
        top decoder stage into the head; training caches its map."""
        feature = np.asarray(feature, dtype=np.float64)
        h0, w0 = feature.shape[-2], feature.shape[-1]
        enc_caches = [] if keep else None
        dec_caches = [] if keep else None
        h = self._image(feature)
        # level j's skip-concat buffer: encoder stage j writes its back channels
        # (the skip), the decoder stage above it its front channels. The top
        # one, the largest and live at the peak, is resident unless caches
        # hold it.
        shapes = [h.shape[:-3] + (2 * conv.out_channels,) + tuple(n >> (j + 1) for n in h.shape[-2:])
                  for j, conv in enumerate(self.enc_convs[:-1])]
        cats = [np.empty(c) if keep or j else self._resident(c) for j, c in enumerate(shapes)]
        for conv, cat in zip(self.enc_convs, cats + [None]):
            skip = None if cat is None else cat[..., conv.out_channels:, :, :]
            h = self._stage(conv, h, enc_caches, skip)
        for conv in self.dec_convs[:-1]:
            cat = cats.pop()
            self._stage(conv, h, dec_caches, out=cat[..., :conv.out_channels, :, :])
            h = cat

        top = self.dec_convs[-1]
        if keep:
            h, head_cache = self.head.forward(self._stage(top, h, dec_caches))
        else:
            h, head_cache = top.forward(h, act=self.act, head=self.head)
        mask_img = self.sigmoid.inplace(h)      # also the sigmoid's cache
        mask = mask_img[..., 0, :h0, :w0]
        if not keep:
            return mask, None
        return mask, EstimatorCache(enc_caches, dec_caches, head_cache, mask_img)

    def forward_with_cache(self, feature):
        """Mask plus the EstimatorCache that ``backward`` needs."""
        return self._run(feature, keep=True)

    def forward(self, feature):
        """Same-shape mask in (0, 1); keeps no training caches, but each
        thread keeps its largest buffer for the next call (``_resident``)."""
        mask, _ = self._run(feature, keep=False)
        return mask

    def backward(self, cache, grad_mask):
        grad_mask = np.asarray(grad_mask, dtype=np.float64)
        h0, w0 = grad_mask.shape[-2:]
        g = self.sigmoid.backward(cache.sigmoid, self._image(grad_mask))
        g = self.head.backward(cache.head, g)

        skip_grads = []     # a stack, popped deepest first as ``skips`` in _run
        decoder = zip(self.dec_convs, cache.decoder)
        for k, (conv, c) in enumerate(reversed(list(decoder))):
            if k:     # every decoder stage but the last wrote before a skip
                nc = conv.out_channels
                skip_grads.append(g[..., nc:, :, :])
                g = g[..., :nc, :, :]
            g = self._stage_backward(conv, c, g)
        encoder = zip(self.enc_convs, cache.encoder)
        for k, (conv, c) in enumerate(reversed(list(encoder))):
            if k:     # every encoder stage but the deepest fed a skip
                g = g + skip_grads.pop()
            g = self._stage_backward(conv, c, g)
        return g[..., 0, :h0, :w0]

    def parts(self):
        for tag, convs in (("enc", self.enc_convs), ("dec", self.dec_convs)):
            for i, conv in enumerate(convs):
                yield f"{tag}{i}", conv
        yield "head", self.head


# ---------------------------------------------------------------------------
# end-to-end pipelines
# ---------------------------------------------------------------------------

MASK_SOURCES = ("binary", "estimator", "ones")
PARAMETER_GROUPS = ("transform", "mask", "both")


@dataclass
class EnhanceCache:
    """What EnhancementPipeline.backward needs from one enhance_training call;
    a later call given it as ``spent`` empties it (every field None)."""

    mask: np.ndarray          # the applied mask, feature-shaped
    feature: np.ndarray       # lifting phi (upper half zero if discard_top) or STFT spectrogram
    estimator: EstimatorCache = None   # set when the mask is estimated
    forward: list = None      # lifting: per-stage analysis caches
    inverse: list = None      # lifting: per-stage synthesis caches


class EnhancementPipeline(Module):
    """Transform -> mask -> inverse transform, with a training backward pass.

    Exactly one of ``transform`` (lifting) or ``stft_config`` must be given.
    ``mask_source`` is "binary", "estimator", or "ones" (debug identity).
    """

    def __init__(self, transform=None, stft_config=None, mask_source="binary",
                 binary_spec=None, estimator=None):
        if (transform is None) == (stft_config is None):
            raise ValueError("provide exactly one of transform / stft_config")
        if mask_source not in MASK_SOURCES:
            raise ValueError(f"unknown mask source {mask_source!r}")
        self.transform = transform
        self.stft_config = stft_config
        self.mask_source = mask_source
        self.estimator = estimator
        self.binary_spec = binary_spec
        if mask_source == "estimator" and estimator is None:
            raise ValueError("estimator mask source needs a MaskEstimator")
        height = transform.config.merged_channels if transform is not None else stft_config.n_bins
        if mask_source == "binary" and binary_spec is None:
            if transform is None:
                raise ValueError("binary mask on the stft path needs an explicit "
                                 "BinaryMaskSpec (bin count is odd)")
            self.binary_spec = BinaryMaskSpec(height)
        spec = self.binary_spec if mask_source == "binary" else None
        if spec is not None and spec.n_channels != height:
            raise ValueError(f"BinaryMaskSpec has {spec.n_channels} channels, the feature {height}")
        # a mask blocking the lifting feature's upper half lets the analysis skip F_J
        self.discard_top = (transform is not None and spec is not None
                            and all(c < height // 2 for c in spec.speech_channels))

    # -- inference ----------------------------------------------------------

    def _frame_hop(self):
        return (self.transform.config.time_divisor if self.transform is not None
                else self.stft_config.hop)

    @property
    def alignment(self):
        """Sample grid of chunk starts: the frame hop, times the estimator's
        total stride when the mask is estimated. A chunk starting on it sees
        the whole input's polyphase, frame and stride-2 grids."""
        hop = self._frame_hop()
        return hop * self.estimator.total_stride if self.mask_source == "estimator" else hop

    @property
    def context(self):
        """Input samples on either side of an output sample that it can depend
        on, rounded up to ``alignment``.

        Each transform direction reaches ``LiftingTransform.reach`` or, for
        the STFT, window_length // 2. An estimated mask adds the estimator's
        frame receptive field times the frame hop.
        """
        hop = self._frame_hop()
        total = 2 * (self.transform.reach if self.transform is not None
                     else self.stft_config.window_length // 2)
        if self.mask_source == "estimator":
            total += self.estimator.frame_receptive_field * hop
        return _round_up(total, self.alignment)

    def enhance(self, x):
        """Estimate the target and the residual; both match x in length. The
        result equals one run over the whole input up to rounding, with memory
        bounded in the input's length (see ``_chunked``)."""
        x = np.asarray(x, dtype=np.float64)
        s_hat, _ = self._chunked(x, False)
        return s_hat, x - s_hat

    def enhance_with_mask(self, x):
        """``enhance``'s estimate plus the applied mask, feature-shaped."""
        return self._chunked(np.asarray(x, dtype=np.float64), True)

    def _chunked(self, x, with_mask):
        """Estimate, and the mask when asked, from chunks of CHUNK_SAMPLES run
        one after another, each with ``context`` input samples on both sides;
        each chunk's mask, cropped to its own frames, goes into one
        feature-shaped array. Checks the whole input first."""
        t = x.shape[-1]
        if t == 0:
            raise ValueError("empty input signal")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite input signal")
        ctx, step = self.context, _round_up(CHUNK_SAMPLES, self.alignment)
        hop = self._frame_hop()
        s_hat, out = np.empty_like(x), None
        for start in range(0, t, step):
            stop = min(start + step, t)
            lo, hi = max(start - ctx, 0), min(stop + ctx, t)
            y, mask = self._run(x[..., lo:hi], keep=False)
            s_hat[..., start:stop] = y[..., start - lo:stop - lo]
            if with_mask:
                mask = mask[..., (start - lo) // hop:(stop - lo) // hop if stop < t else None]
                if out is None:
                    frames = frame_count(t, hop) if self.transform is None else -(-t // hop)
                    out = np.empty(mask.shape[:-1] + (frames,))
                out[..., start // hop:start // hop + mask.shape[-1]] = mask
            del y, mask     # neither is held while the next chunk runs
        return s_hat, out

    def enhance_training(self, x, spent=None):
        """Estimated target plus the EnhanceCache that ``backward`` needs.

        ``spent``, the EnhanceCache of an earlier call whose ``backward`` has
        run, is emptied piece by piece, each piece just before the same-shaped
        piece of the new cache is built: a training loop holds one step's
        caches, not two, and the new cache reuses the freed memory."""
        return self._run(x, keep=True, spent=spent)

    def _run(self, x, keep, spent=None):
        """Estimate over all of x, plus its EnhanceCache (keep) or its mask: the
        transform's analysis, the mask, ``feature * mask``, synthesis, crop."""
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite input signal")
        tf, net, t0 = self.transform, self.estimator, x.shape[-1]
        fwd_cache = inv_cache = est_cache = None
        spent = EnhanceCache(None, None) if spent is None else spent
        if tf is not None:
            x, _ = pad_to_multiple(x, tf.config.time_divisor)
            feature, fwd_cache = (tf.forward_with_cache(x, self.discard_top, spent.forward)
                                  if keep else (tf.forward(x, self.discard_top), None))
        else:
            feature = stft_forward(x, self.stft_config)
        spent.mask = spent.feature = spent.forward = spent.estimator = None
        if self.mask_source == "estimator":
            img = feature if tf is not None else log_magnitude_feature(feature)
            mask, est_cache = net.forward_with_cache(img) if keep else (net.forward(img), None)
        elif self.mask_source == "ones":
            mask = np.ones(feature.shape[-2:])
        else:
            mask = binary_mask_generate(self.binary_spec, feature.shape[-1])
        masked = feature * mask
        if tf is not None:
            y, inv_cache = (tf.inverse_with_cache(masked, spent.inverse) if keep
                            else (tf.inverse(masked), None))
        else:
            y = istft(masked, self.stft_config, t0)
        spent.inverse = None
        if not keep:
            return y[..., :t0], mask
        return y[..., :t0], EnhanceCache(mask, feature, est_cache, fwd_cache, inv_cache)

    # -- training backward ----------------------------------------------------

    def backward(self, cache, grad_s_hat):
        """Accumulate parameter gradients for d(loss)/d(s_hat) and return
        d(loss)/d(x); the STFT path has no input VJP and returns None."""
        if cache.feature is None:
            raise ValueError("this EnhanceCache was spent by a later enhance_training call")
        if self.transform is not None:
            grad_y, length = pad_to_multiple(grad_s_hat, self.transform.config.time_divisor)
            grad_masked = self.transform.inverse_vjp(cache.inverse, grad_y)
            grad_mask = None if cache.estimator is None else cache.feature * grad_masked
            grad_phi = np.multiply(grad_masked, cache.mask, out=grad_masked)    # one copy held
            if grad_mask is not None:
                grad_phi += self.estimator.backward(cache.estimator, grad_mask)
            grad_x = self.transform.forward_vjp(cache.forward, grad_phi)
            return grad_x[..., :length]
        spec = cache.feature
        gspec = istft_vjp(grad_s_hat, self.stft_config, spec.shape[-1])
        if cache.estimator is not None:
            grad_mask = gspec.real * spec.real + gspec.imag * spec.imag
            self.estimator.backward(cache.estimator, grad_mask)
        return None

    # -- parameter plumbing ----------------------------------------------------

    def named_parameters(self, group="both"):
        if group not in PARAMETER_GROUPS:
            raise ValueError(f"unknown parameter group {group!r}")
        for (name, part), own in zip(self.parts(), ("transform", "mask")):
            if group in (own, "both") and part is not None:
                yield from part.named_parameters(name)

    def parts(self):
        return ("lifting", self.transform), ("mask", self.estimator)

    def state_dict(self):
        out = {name: p.data for name, p in self.named_parameters()}
        out.update({name: arr for name, arr in self.named_state()})
        return out

    def load_state_dict(self, mapping):
        """Check every entry, then copy them all: a failed load changes nothing."""
        own = self.state_dict()
        if set(own) != set(mapping):
            missing = sorted(set(own) - set(mapping))
            extra = sorted(set(mapping) - set(own))
            raise ValueError(f"checkpoint mismatch: missing={missing} extra={extra}")
        incoming = {name: np.asarray(mapping[name], dtype=np.float64) for name in own}
        for name, arr in own.items():
            if incoming[name].shape != arr.shape:
                raise ValueError(f"checkpoint shape mismatch for {name}: "
                                 f"{incoming[name].shape} vs {arr.shape}")
            if not np.all(np.isfinite(incoming[name])):
                raise ValueError(f"checkpoint entry {name} is not finite")
        for name, arr in own.items():
            arr[...] = incoming[name]
