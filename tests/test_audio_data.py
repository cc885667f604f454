"""WAV round trips, synthetic mixtures, manifests, and batching."""

import re
import wave

import numpy as np
import pytest

from liftbank.audio_data import (MixtureTriple, WavClip, batch_iter,
                                 load_manifest_triples, read_manifest,
                                 synth_dataset, synth_mixture, wav_read,
                                 wav_write)
from liftbank.numerics import Rng


class TestWavIO:
    def test_round_trip_quantization_bound(self, tmp_path):
        clip = WavClip(Rng(0).uniform((5000,), -1.0, 1.0), 16000)
        path = tmp_path / "clip.wav"
        wav_write(clip, path)
        back = wav_read(path)
        assert back.sample_rate == 16000
        assert back.samples.shape == clip.samples.shape
        assert float(np.max(np.abs(back.samples - clip.samples))) <= 1.0 / 32768.0

    def test_out_of_range_samples_clamped(self, tmp_path):
        clip = WavClip(np.array([2.0, -3.0, 0.5]), 8000)
        path = tmp_path / "hot.wav"
        wav_write(clip, path)
        back = wav_read(path)
        assert back.samples[0] == pytest.approx(1.0)
        assert back.samples[1] == pytest.approx(-1.0)
        assert back.samples[2] == pytest.approx(0.5, abs=1e-4)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\x00\x00" * 64)
        with pytest.raises(ValueError, match="mono required"):
            wav_read(path)

    def test_wrong_depth_rejected(self, tmp_path):
        path = tmp_path / "wide.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(4)
            fh.setframerate(16000)
            fh.writeframes(b"\x00\x00\x00\x00" * 16)
        with pytest.raises(ValueError, match="16-bit"):
            wav_read(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"definitely not RIFF data")
        with pytest.raises(ValueError):
            wav_read(path)

    @pytest.mark.parametrize("cut", [1, 2])
    def test_truncated_data_chunk_rejected(self, tmp_path, cut):
        """A data chunk shorter than its header declares is unreadable, whether
        the cut leaves a whole sample count or not."""
        path = tmp_path / "cut.wav"
        wav_write(WavClip(0.1 * Rng(5).normal((1000,))), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: not a readable WAV file (data chunk holds {2000 - cut} "
                "of its 2000 bytes)")):
            wav_read(path)


class TestSynthMixture:
    def test_snr_exact(self):
        for snr in (-10.0, 0.0, 7.5, 20.0):
            triple = synth_mixture(Rng(1), 0.25, snr)
            got = 10.0 * np.log10(np.sum(triple.clean ** 2) / np.sum(triple.noise ** 2))
            assert got == pytest.approx(snr, abs=1e-9)

    def test_mixture_identity_bitwise(self):
        triple = synth_mixture(Rng(2), 0.1, 5.0)
        np.testing.assert_array_equal(triple.mixture - triple.clean, triple.noise)

    def test_deterministic_from_seed(self):
        a = synth_mixture(Rng(3), 0.2, 3.0)
        b = synth_mixture(Rng(3), 0.2, 3.0)
        np.testing.assert_array_equal(a.clean, b.clean)
        np.testing.assert_array_equal(a.noise, b.noise)

    def test_speech_proxy_is_low_band(self):
        """The tone complex carries its energy below the noise tilt."""
        triple = synth_mixture(Rng(4), 0.5, 0.0, 16000)
        spec_s = np.abs(np.fft.rfft(triple.clean))
        spec_n = np.abs(np.fft.rfft(triple.noise))
        freqs = np.fft.rfftfreq(triple.clean.size, 1 / 16000)
        low = freqs < 3200.0
        s_low = float(np.sum(spec_s[low] ** 2) / np.sum(spec_s ** 2))
        n_low = float(np.sum(spec_n[low] ** 2) / np.sum(spec_n ** 2))
        assert s_low > 0.95
        assert n_low < 0.5

    def test_duration(self):
        triple = synth_mixture(Rng(5), 1.0, 0.0, 16000)
        assert triple.clean.shape == (16000,)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            synth_mixture(Rng(6), 0.0, 0.0)


class TestSynthDataset:
    def test_count_and_names(self):
        ds = synth_dataset(7, 5, 0.1, 0.0, 10.0)
        assert len(ds) == 5
        assert ds[0].name == "synth0000"

    def test_reproducible(self):
        a = synth_dataset(8, 3, 0.1, 0.0, 10.0)
        b = synth_dataset(8, 3, 0.1, 0.0, 10.0)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.mixture, tb.mixture)

    def test_snrs_inside_range(self):
        for triple in synth_dataset(9, 10, 0.05, 2.0, 4.0):
            assert 2.0 <= triple.snr_db < 4.0

    def test_equal_snr_bounds_give_constant_snr(self):
        assert [t.snr_db for t in synth_dataset(9, 3, 0.05, 5.0, 5.0)] == [5.0] * 3


class TestManifest:
    def test_parse_and_load(self, tmp_path):
        rng = Rng(10)
        clean = WavClip(0.1 * rng.normal((800,)))
        noisy = WavClip(clean.samples + 0.05 * rng.normal((800,)))
        short = WavClip(0.1 * rng.normal((400,)))
        for name, clip in (("c.wav", clean), ("n.wav", noisy), ("s.wav", short)):
            wav_write(clip, tmp_path / name)
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(
            "# comment line\n"
            f"{tmp_path / 'c.wav'}\t{tmp_path / 'n.wav'}\n"
            f"{tmp_path / 'c.wav'}\t{tmp_path / 's.wav'}\n")
        pairs = read_manifest(manifest)
        assert len(pairs) == 2
        triples, skipped = load_manifest_triples(manifest)
        assert len(triples) == 1
        assert skipped == [f"length-mismatched pair {tmp_path / 'c.wav'} / {tmp_path / 's.wav'}"]
        np.testing.assert_allclose(
            triples[0].mixture - triples[0].clean, triples[0].noise, atol=1e-15)

    def test_ids_keep_unique_stems_and_are_distinct(self, tmp_path):
        """Shared stems get suffixes that skip past an id already taken."""
        noisy = ["a/noisy.wav", "b/noisy.wav", "c/noisy_1.wav", "d/other.wav",
                 "e/noisy.wav"]
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("".join(f"clean.wav\t{path}\n" for path in noisy))
        ids = [pair_id for _, _, pair_id in read_manifest(manifest)]
        assert ids == ["noisy_0", "noisy_1_1", "noisy_1", "other", "noisy_4"]

    def test_malformed_line_rejected(self, tmp_path):
        manifest = tmp_path / "bad.tsv"
        manifest.write_text("only_one_column\n")
        with pytest.raises(ValueError, match="clean"):
            read_manifest(manifest)


def _tiny_dataset(n, length=100):
    rng = Rng(11)
    out = []
    for i in range(n):
        clean = rng.normal((length,))
        noise = rng.normal((length,))
        out.append(MixtureTriple(clean, noise, clean + noise, 0.0, name=f"t{i}"))
    return out


class TestBatchIter:
    def test_batch_sizes(self):
        batches = list(batch_iter(_tiny_dataset(10), 4, seed=0, crop_len=100))
        assert [b[0].shape[0] for b in batches] == [4, 4, 2]

    def test_same_seed_same_order(self):
        a = [b[2] for b in batch_iter(_tiny_dataset(10), 4, seed=5, crop_len=100)]
        b = [b[2] for b in batch_iter(_tiny_dataset(10), 4, seed=5, crop_len=100)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_union_is_dataset(self):
        ds = _tiny_dataset(10)
        seen = np.concatenate(
            [b[2] for b in batch_iter(ds, 3, seed=1, crop_len=100)], axis=0)
        expect = np.stack([t.mixture for t in ds])
        assert seen.shape == expect.shape
        seen_sorted = seen[np.lexsort(seen.T)]
        expect_sorted = expect[np.lexsort(expect.T)]
        np.testing.assert_array_equal(seen_sorted, expect_sorted)

    def test_short_utterances_zero_padded(self):
        ds = _tiny_dataset(4, length=30)
        clean, noise, mix = next(batch_iter(ds, 4, seed=2, crop_len=50))
        assert mix.shape == (4, 50)
        assert np.all(mix[:, 30:] == 0.0)

    def test_long_utterances_cropped(self):
        ds = _tiny_dataset(4, length=200)
        clean, noise, mix = next(batch_iter(ds, 4, seed=3, crop_len=64))
        assert mix.shape == (4, 64)
        np.testing.assert_allclose(clean + noise, mix, atol=1e-15)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            next(batch_iter([], 4, seed=0))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            next(batch_iter(_tiny_dataset(2), 0, seed=0))
