"""WAV ingestion/emission, synthetic mixture generation, dataset batching.

Real corpora load through 16-bit mono PCM WAV files and a plain-text
manifest of "clean<TAB>noisy" path pairs. Desk-scale experiments instead use
a synthetic proxy: a harmonic tone complex with a slowly varying pitch and
amplitude envelope stands in for speech (energy concentrated below about
3 kHz), and high-tilted filtered noise stands in for interference, so a
learned filterbank has something it can actually separate.
"""

from __future__ import annotations

import wave
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .numerics import Rng

__all__ = [
    "WavClip",
    "wav_read",
    "wav_write",
    "MixtureTriple",
    "synth_mixture",
    "synth_dataset",
    "check_sample_rate",
    "read_manifest",
    "read_pair",
    "load_manifest_triples",
    "batch_iter",
]

_PCM_SCALE = 32767.0
_TONE_BLOCK = 4096  # samples per block of the harmonic sum: 64 KiB complex


@dataclass
class WavClip:
    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("clips are mono 1-D signals")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("clip contains non-finite samples")


def wav_read(path):
    """Read 16-bit mono PCM; other formats, truncated data and headers that
    WavClip rejects raise a ValueError naming the file."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise ValueError("mono required")
            if fh.getsampwidth() != 2:
                raise ValueError("16-bit PCM required")
            rate, n_frames = fh.getframerate(), fh.getnframes()
            raw = fh.readframes(n_frames)
            if len(raw) < 2 * n_frames:
                raise wave.Error(f"data chunk holds {len(raw)} of its {2 * n_frames} bytes")
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _PCM_SCALE
        return WavClip(samples, rate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except (wave.Error, EOFError, RuntimeError) as exc:
        # wave raises a bare RuntimeError when a chunk runs past the RIFF chunk holding it
        reason = str(exc) or "a chunk runs past the end of the file"
        raise ValueError(f"{path}: not a readable WAV file ({reason})") from exc


def wav_write(clip, path):
    """Write 16-bit mono PCM through ``atomic_write``, so a failed write leaves
    any earlier file at ``path`` untouched; samples outside [-1, 1] are
    clamped."""
    clamped = np.clip(clip.samples, -1.0, 1.0)
    quantized = np.round(clamped * _PCM_SCALE).astype("<i2")
    with atomic_write(path, "wb") as raw, wave.open(raw, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(clip.sample_rate))
        fh.writeframes(quantized.tobytes())


@dataclass
class MixtureTriple:
    """Training example: a clean signal and its mixture; the interference is mixture - clean."""

    clean: np.ndarray
    mixture: np.ndarray

    def __post_init__(self):
        self.clean = np.asarray(self.clean, dtype=np.float64)
        self.mixture = np.asarray(self.mixture, dtype=np.float64)
        if self.clean.shape != self.mixture.shape:
            raise ValueError("clean and mixture must share a length")


def _harmonic_tone(rng, n, sample_rate):
    """Speech proxy: pitched harmonic complex with pitch drift and envelope.

    The harmonics Σ_h sin(hφ + θ_h) / h are Im Σ_h c_h z^h with the phasor
    z = e^{iφ} and c_h = e^{iθ_h} / h, summed by Horner's rule: one complex
    exponential per sample, then one in-place multiply and add per harmonic.
    Direct sines of hφ (up to about 6e5 rad at 10 s) differ from it by about
    1e-12 of the peak, their own rounding of hφ. The sum runs in blocks of
    _TONE_BLOCK samples, which keeps its complex temporaries in cache and
    under malloc's 128 KiB mmap threshold: freeing a larger mmapped chunk
    raises that threshold, and later training steps then fragment the heap.
    """
    t = np.arange(n) / sample_rate
    f0 = rng.uniform((), 90.0, 300.0)[()]
    drift_rate = rng.uniform((), 0.5, 3.0)[()]
    drift_phase = rng.uniform((), 0.0, 2.0 * np.pi)[()]
    inst_freq = f0 * (1.0 + 0.04 * np.sin(2.0 * np.pi * drift_rate * t + drift_phase))
    phase = 2.0 * np.pi * np.cumsum(inst_freq) / sample_rate
    n_harm = int(min(3000.0, 0.45 * sample_rate) / f0)
    coefs = np.exp(1j * rng.uniform((n_harm,), 0.0, 2.0 * np.pi)) / np.arange(1, n_harm + 1)
    tone = np.empty(n)
    for lo in range(0, n, _TONE_BLOCK):
        rotor = np.multiply(phase[lo:lo + _TONE_BLOCK], 1j)
        np.exp(rotor, out=rotor)
        acc = np.full(rotor.shape, coefs[-1])
        for coef in coefs[-2::-1]:
            acc *= rotor
            acc += coef
        acc *= rotor
        tone[lo:lo + _TONE_BLOCK] = acc.imag
    del inst_freq, phase  # the envelope's temporaries take their place
    env_rate = rng.uniform((), 1.0, 4.0)[()]
    env_phase = rng.uniform((), 0.0, 2.0 * np.pi)[()]
    envelope = 0.25 + 0.75 * (0.5 - 0.5 * np.cos(2.0 * np.pi * env_rate * t + env_phase)) ** 2
    tone *= envelope
    rms = np.sqrt(np.mean(tone * tone))
    return 0.1 * tone / max(rms, 1e-12)


def _tilted_noise(rng, n):
    """Interference proxy: first-difference of white noise (high-shelf tilt)."""
    white = rng.normal((n + 1,))
    return np.diff(white)


def synth_mixture(rng, duration_s, snr_db, sample_rate=16000):
    """Deterministic synthetic triple at an exact target SNR.

    The noise is rescaled so 10*log10(|clean|^2 / |noise|^2) equals snr_db
    before it is added to the clean signal. A ValueError rejects a sample
    rate below 667 Hz, where the tone's fundamental (up to 300 Hz) passes
    its band limit of 0.45 × rate, and an SNR whose power ratio or noise
    scale is not a finite positive float (outside about -3050 to +3080 dB;
    the lower end rises with the clip's energy).
    """
    if sample_rate < 1:
        raise ValueError(f"sample rate must be >= 1 Hz, got {sample_rate}")
    if 0.45 * sample_rate < 300.0:
        raise ValueError(f"data.sample_rate = {sample_rate} Hz is below 667 Hz: the synthetic "
                         f"speech's 90-300 Hz fundamental must lie under 0.45 × rate")
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise ValueError(f"a {duration_s:g} s clip at {sample_rate} Hz has no samples")
    clean = _harmonic_tone(rng, n, sample_rate)
    noise = _tilted_noise(rng, n)
    with np.errstate(all="ignore"):
        ratio = 10.0 ** (np.float64(snr_db) / 10.0)
        scale = np.sqrt(np.sum(clean * clean) / ratio / np.sum(noise * noise))
    if not (0.0 < ratio < np.inf and 0.0 < scale < np.inf):
        raise ValueError(f"SNR {snr_db:g} dB is out of range: its power ratio {ratio:g} "
                         f"or noise scale {scale:g} is not a finite positive number")
    noise *= scale
    return MixtureTriple(clean, clean + noise)


def synth_dataset(seed, count, duration_s, snr_lo, snr_hi, sample_rate=16000):
    """Eagerly generate ``count`` triples, reproducible from the seed alone."""
    if count < 1:
        raise ValueError("need at least one clip")
    if snr_lo > snr_hi:
        raise ValueError(f"SNR range is empty: snr_min {snr_lo:g} dB > snr_max {snr_hi:g} dB")
    rng = Rng(seed)
    out = []
    for _ in range(count):
        snr = rng.uniform((), snr_lo, snr_hi)[()] if snr_hi > snr_lo else float(snr_lo)
        out.append(synth_mixture(rng, duration_s, snr, sample_rate))
    return out


def check_sample_rate(what, rates, sample_rate):
    """Raise a ValueError naming ``what`` unless every rate is ``sample_rate``."""
    if set(rates) != {sample_rate}:
        raise ValueError(f"{what}: sample rate {' / '.join(map(str, sorted(set(rates))))} Hz "
                         f"differs from the config's data.sample_rate = {sample_rate} Hz")


def read_manifest(path):
    """Parse "clean<TAB>noisy" lines ('#' starts a comment) into (clean, noisy, id);
    an id is the noisy stem, or if pairs share it, stem + "_<position>" until unique."""
    pairs = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'clean<TAB>noisy'")
        pairs.append((parts[0], parts[1]))
    ids = [Path(noisy).stem for _, noisy in pairs]
    counts, taken = Counter(ids), set(ids)
    for i, stem in enumerate(ids):
        while counts[stem] > 1 and ids[i] in taken:
            ids[i] += f"_{i}"
        taken.add(ids[i])
    return [pair + (pair_id,) for pair, pair_id in zip(pairs, ids)]


def read_pair(clean_path, noisy_path, sample_rate):
    """A pair's (clean, noisy) samples, or a ValueError naming why it is unusable:
    unreadable, not at ``sample_rate``, unequal lengths, empty or silent clean."""
    pair = f"{clean_path} / {noisy_path}"
    try:
        clean, noisy = wav_read(clean_path), wav_read(noisy_path)
    except (ValueError, OSError) as exc:
        raise ValueError(f"unreadable pair {pair}: {exc}") from exc
    check_sample_rate(f"pair {pair}", (clean.sample_rate, noisy.sample_rate), sample_rate)
    if clean.samples.shape != noisy.samples.shape:
        raise ValueError(f"length-mismatched pair {pair}")
    if clean.samples.size == 0:
        raise ValueError(f"empty pair {pair}")
    if not np.any(clean.samples):
        raise ValueError(f"pair {pair}: silent clean reference, SI-SDR undefined")
    return clean.samples, noisy.samples


def load_manifest_triples(path, sample_rate=16000):
    """Usable pairs (see ``read_pair``) as triples with the noisy file as mixture, and skip reasons."""
    triples, skipped = [], []
    for clean_path, noisy_path, _ in read_manifest(path):
        try:
            clean, noisy = read_pair(clean_path, noisy_path, sample_rate)
        except ValueError as exc:
            skipped.append(str(exc))
            continue
        triples.append(MixtureTriple(clean, noisy))
    return triples, skipped


def batch_iter(dataset, batch_size, seed, crop_len=16384):
    """Seeded shuffle into batches of fixed-length crops.

    Every utterance appears exactly once per pass; utterances longer than
    crop_len get a seeded random crop, shorter ones are zero-padded at the
    end. Yields (clean, mixture) arrays of shape (B, crop_len).
    """
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = Rng(seed)
    order = rng.permutation(len(dataset))
    for lo in range(0, len(dataset), batch_size):
        chunk = order[lo:lo + batch_size]
        batch = np.zeros((2, len(chunk), crop_len))
        for row, idx in enumerate(chunk):
            triple = dataset[int(idx)]
            length = triple.clean.shape[-1]
            start = 0
            if length > crop_len:
                start = int(rng.raw(1)[0] % np.uint64(length - crop_len + 1))
            n = min(length, crop_len)
            batch[0, row, :n] = triple.clean[start:start + n]
            batch[1, row, :n] = triple.mixture[start:start + n]
        yield batch[0], batch[1]
