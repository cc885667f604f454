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
    """Read 16-bit mono PCM; other formats and truncated data are rejected."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise ValueError(f"{path}: mono required")
            if fh.getsampwidth() != 2:
                raise ValueError(f"{path}: 16-bit PCM required")
            rate, n_frames = fh.getframerate(), fh.getnframes()
            raw = fh.readframes(n_frames)
            if len(raw) < 2 * n_frames:
                raise wave.Error(f"data chunk holds {len(raw)} of its {2 * n_frames} bytes")
    except (wave.Error, EOFError, RuntimeError) as exc:
        # wave raises a bare RuntimeError when a chunk runs past the RIFF chunk holding it
        reason = str(exc) or "a chunk runs past the end of the file"
        raise ValueError(f"{path}: not a readable WAV file ({reason})") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _PCM_SCALE
    return WavClip(samples, rate)


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
    """Training example: a clean signal and its mixture; ``noise`` is derived from them."""

    clean: np.ndarray
    mixture: np.ndarray
    snr_db: float
    name: str = ""

    def __post_init__(self):
        self.clean = np.asarray(self.clean, dtype=np.float64)
        self.mixture = np.asarray(self.mixture, dtype=np.float64)
        if self.clean.shape != self.mixture.shape:
            raise ValueError("clean and mixture must share a length")

    @property
    def noise(self):
        return self.mixture - self.clean


def _harmonic_tone(rng, n, sample_rate):
    """Speech proxy: pitched harmonic complex with pitch drift and envelope."""
    t = np.arange(n) / sample_rate
    f0 = rng.uniform((), 90.0, 300.0)[()]
    drift_rate = rng.uniform((), 0.5, 3.0)[()]
    drift_phase = rng.uniform((), 0.0, 2.0 * np.pi)[()]
    inst_freq = f0 * (1.0 + 0.04 * np.sin(2.0 * np.pi * drift_rate * t + drift_phase))
    phase = 2.0 * np.pi * np.cumsum(inst_freq) / sample_rate
    limit = min(3000.0, 0.45 * sample_rate)
    n_harm = max(1, int(limit / f0))
    tone = np.zeros(n)
    for h in range(1, n_harm + 1):
        amp = 1.0 / h
        tone += amp * np.sin(h * phase + rng.uniform((), 0.0, 2.0 * np.pi)[()])
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
    before it is added to the clean signal.
    """
    if sample_rate < 1:
        raise ValueError(f"sample rate must be >= 1 Hz, got {sample_rate}")
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise ValueError(f"a {duration_s:g} s clip at {sample_rate} Hz has no samples")
    clean = _harmonic_tone(rng, n, sample_rate)
    noise = _tilted_noise(rng, n)
    target = np.sum(clean * clean) / (10.0 ** (snr_db / 10.0))
    noise *= np.sqrt(target / np.sum(noise * noise))
    return MixtureTriple(clean, clean + noise, float(snr_db))


def synth_dataset(seed, count, duration_s, snr_lo, snr_hi, sample_rate=16000):
    """Eagerly generate ``count`` triples, reproducible from the seed alone."""
    if count < 1:
        raise ValueError("need at least one clip")
    if snr_lo > snr_hi:
        raise ValueError(f"SNR range is empty: snr_min {snr_lo:g} dB > snr_max {snr_hi:g} dB")
    rng = Rng(seed)
    out = []
    for i in range(count):
        snr = rng.uniform((), snr_lo, snr_hi)[()] if snr_hi > snr_lo else float(snr_lo)
        triple = synth_mixture(rng, duration_s, snr, sample_rate)
        triple.name = f"synth{i:04d}"
        out.append(triple)
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
    for clean_path, noisy_path, name in read_manifest(path):
        try:
            clean, noisy = read_pair(clean_path, noisy_path, sample_rate)
        except ValueError as exc:
            skipped.append(str(exc))
            continue
        triples.append(MixtureTriple(clean, noisy, float("nan"), name=name))
    return triples, skipped


def batch_iter(dataset, batch_size, seed, crop_len=16384):
    """Seeded shuffle into batches of fixed-length crops.

    Every utterance appears exactly once per pass; utterances longer than
    crop_len get a seeded random crop, shorter ones are zero-padded at the
    end. Yields (clean, noise = mixture - clean, mixture) arrays of shape (B, crop_len).
    """
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = Rng(seed)
    order = rng.permutation(len(dataset))
    for lo in range(0, len(dataset), batch_size):
        chunk = order[lo:lo + batch_size]
        batch = np.zeros((3, len(chunk), crop_len))
        for row, idx in enumerate(chunk):
            triple = dataset[int(idx)]
            length = triple.clean.shape[-1]
            start = 0
            if length > crop_len:
                start = int(rng.raw(1)[0] % np.uint64(length - crop_len + 1))
            n = min(length, crop_len)
            batch[0, row, :n] = triple.clean[start:start + n]
            batch[2, row, :n] = triple.mixture[start:start + n]
        np.subtract(batch[2], batch[0], out=batch[1])
        yield batch[0], batch[1], batch[2]
