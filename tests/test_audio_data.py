"""WAV round trips, synthetic mixtures, manifests, and batching."""

import re
import tracemalloc
import wave

import numpy as np
import pytest

from liftbank.audio_data import (MixtureTriple, WavClip, _harmonic_tone, batch_iter,
                                 load_manifest_triples, read_manifest,
                                 synth_dataset, synth_mixture, wav_read,
                                 wav_write)
from liftbank.cli import main
from liftbank.numerics import Rng


def overrun_fmt_chunk(data):
    """WAV bytes whose `fmt ` chunk size (header bytes 16-19) runs past the end of the file."""
    return data[:16] + bytes.fromhex("10000b00") + data[20:]


def wav_mutations(base, count, seed):
    """``count`` seeded variants of the WAV bytes ``base``, in turn: one to
    four header bytes overwritten, one chunk size (RIFF, `fmt `, data) set to a
    random 32-bit value, and the file cut to a random length."""
    rng = Rng(seed)
    for case in range(count):
        draw = [int(v) for v in rng.raw(9)]
        data = bytearray(base)
        if case % 3 == 0:
            for k in range(1 + draw[0] % 4):
                data[draw[1 + k] % 44] = draw[5 + k] % 256
        elif case % 3 == 1:
            at = (4, 16, 40)[draw[0] % 3]
            data[at:at + 4] = (draw[1] % 2 ** 32).to_bytes(4, "little")
        else:
            del data[draw[0] % len(base):]
        yield bytes(data)


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

    def test_fmt_chunk_past_end_of_file_rejected(self, tmp_path):
        """wave raises a bare RuntimeError when the `fmt ` chunk's size runs past
        the file; wav_read names the file as unreadable instead."""
        path = tmp_path / "fmt.wav"
        wav_write(WavClip(0.1 * Rng(6).normal((3000,))), path)
        path.write_bytes(overrun_fmt_chunk(path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: not a readable WAV file (a chunk runs past the end of the file)")):
            wav_read(path)


class TestWavMutations:
    """Seeded header mutations and truncations: each file reads as a clip or
    fails with a ValueError, and ``enhance`` exits 0 or 2 without a traceback."""

    @pytest.fixture
    def base(self, tmp_path):
        path = tmp_path / "base.wav"
        wav_write(WavClip(0.1 * Rng(21).normal((3000,))), path)
        return path.read_bytes()

    def test_wav_read_returns_a_clip_or_raises_value_error(self, tmp_path, base):
        path = tmp_path / "mutant.wav"
        outcomes = {"clip": 0, "ValueError": 0}
        for data in wav_mutations(base, 600, seed=22):
            path.write_bytes(data)
            try:
                assert isinstance(wav_read(path), WavClip)
                outcomes["clip"] += 1
            except ValueError:
                outcomes["ValueError"] += 1
        assert min(outcomes.values()) > 0

    def test_enhance_exits_0_or_2_and_leaves_no_partial_file(self, tmp_path, base, capsys):
        (tmp_path / "run").mkdir()
        inputs = [overrun_fmt_chunk(base)] + list(wav_mutations(base, 6, seed=32))
        codes = set()
        for i, data in enumerate(inputs):
            src, out = tmp_path / f"in{i}.wav", tmp_path / "run" / f"out{i}.wav"
            src.write_bytes(data)
            code = main(["enhance", str(src), str(out), "--ones-mask"])
            codes.add(code)
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            if code == 0:
                assert wav_read(out).samples.size == wav_read(src).samples.size
            else:
                assert code == 2
                assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
                assert not out.exists()
            assert {p.name for p in (tmp_path / "run").iterdir()} <= {f"out{j}.wav"
                                                                     for j in range(i + 1)}
        assert codes == {0, 2}


def direct_tone(rng, n, sample_rate):
    """The speech proxy with one sine per harmonic, each drawing its own phase
    offset: the form that the phasor recurrence in ``_harmonic_tone`` replaces."""
    t = np.arange(n) / sample_rate
    f0 = rng.uniform((), 90.0, 300.0)[()]
    drift_rate = rng.uniform((), 0.5, 3.0)[()]
    drift_phase = rng.uniform((), 0.0, 2.0 * np.pi)[()]
    inst_freq = f0 * (1.0 + 0.04 * np.sin(2.0 * np.pi * drift_rate * t + drift_phase))
    phase = 2.0 * np.pi * np.cumsum(inst_freq) / sample_rate
    n_harm = max(1, int(min(3000.0, 0.45 * sample_rate) / f0))
    tone = np.zeros(n)
    for h in range(1, n_harm + 1):
        tone += (1.0 / h) * np.sin(h * phase + rng.uniform((), 0.0, 2.0 * np.pi)[()])
    env_rate = rng.uniform((), 1.0, 4.0)[()]
    env_phase = rng.uniform((), 0.0, 2.0 * np.pi)[()]
    envelope = 0.25 + 0.75 * (0.5 - 0.5 * np.cos(2.0 * np.pi * env_rate * t + env_phase)) ** 2
    tone *= envelope
    rms = np.sqrt(np.mean(tone * tone))
    return 0.1 * tone / max(rms, 1e-12), n_harm


# Rng(0) draws f0 = 275.5 Hz (10 harmonics below 3 kHz), Rng(196) 90.9 Hz (33)
TONE_CASES = [(0, 1.0, 10), (196, 1.0, 33), (0, 10.0, 10), (196, 10.0, 33)]


class TestSynthMixture:
    @pytest.mark.parametrize("seed, duration_s, n_harm", TONE_CASES)
    def test_phasor_tone_matches_direct_sines(self, seed, duration_s, n_harm):
        n = int(duration_s * 16000)
        want, harmonics = direct_tone(Rng(seed), n, 16000)
        assert harmonics == n_harm
        got = _harmonic_tone(Rng(seed), n, 16000)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed, duration_s, n_harm", TONE_CASES)
    def test_draws_as_many_values_as_direct_sines(self, seed, duration_s, n_harm):
        """One vector draw of the phase offsets takes the per-harmonic scalar
        draws' values in their order, so every later clip sees the same stream."""
        rng, oracle = Rng(seed), Rng(seed)
        triple = synth_mixture(rng, duration_s, 5.0)
        want, _ = direct_tone(oracle, triple.clean.size, 16000)
        oracle.normal((triple.clean.size + 1,))
        assert rng.raw(1)[0] == oracle.raw(1)[0]
        assert np.max(np.abs(triple.clean - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("duration_s", [1.0, 10.0])
    def test_phasor_tone_peaks_no_higher_than_direct_sines(self, duration_s):
        """The blocked sum's complex temporaries add less than the sines' own."""
        def traced_peak(tone):
            tracemalloc.start()
            try:
                tone(Rng(196), int(duration_s * 16000), 16000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(_harmonic_tone) <= traced_peak(direct_tone)

    def test_snr_exact(self):
        for snr in (-10.0, 0.0, 7.5, 20.0):
            triple = synth_mixture(Rng(1), 0.25, snr)
            assert measured_snr_db(triple) == pytest.approx(snr, abs=1e-9)

    def test_mixture_identity_bitwise(self):
        """The mixture is the clean signal plus the scaled noise draw, bitwise."""
        rng = Rng(2)
        triple = synth_mixture(rng, 0.1, 5.0)
        oracle = Rng(2)
        clean = _harmonic_tone(oracle, triple.clean.size, 16000)
        noise = np.diff(oracle.normal((clean.size + 1,)))
        noise *= np.sqrt(np.sum(clean * clean) / 10.0 ** 0.5 / np.sum(noise * noise))
        np.testing.assert_array_equal(triple.clean, clean)
        np.testing.assert_array_equal(triple.mixture, clean + noise)

    def test_deterministic_from_seed(self):
        a = synth_mixture(Rng(3), 0.2, 3.0)
        b = synth_mixture(Rng(3), 0.2, 3.0)
        np.testing.assert_array_equal(a.clean, b.clean)
        np.testing.assert_array_equal(a.mixture, b.mixture)

    def test_speech_proxy_is_low_band(self):
        """The tone complex carries its energy below the noise tilt."""
        triple = synth_mixture(Rng(4), 0.5, 0.0, 16000)
        spec_s = np.abs(np.fft.rfft(triple.clean))
        spec_n = np.abs(np.fft.rfft(triple.mixture - triple.clean))
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

    @pytest.mark.parametrize("snr", [-3000.0, 3000.0])
    def test_extreme_valid_snr(self, snr):
        """At -3000 dB the noise scale is about 1e148 and the SNR still exact;
        at +3000 dB it is about 1e-152, below the clean signal's rounding."""
        triple = synth_mixture(Rng(1), 0.25, snr)
        assert np.all(np.isfinite(triple.mixture))
        if snr < 0:
            assert measured_snr_db(triple) == pytest.approx(snr, abs=1e-9)
        else:
            np.testing.assert_array_equal(triple.mixture, triple.clean)

    @pytest.mark.parametrize("snr, text", [
        (3100.0, "SNR 3100 dB is out of range: its power ratio inf"),
        (-3100.0, "SNR -3100 dB is out of range: its power ratio 1e-310 or noise scale inf"),
        (-3300.0, "SNR -3300 dB is out of range: its power ratio 0"),
        (1e308, "SNR 1e+308 dB is out of range: its power ratio inf"),
    ])
    def test_snr_beyond_float_range_raises(self, snr, text):
        with pytest.raises(ValueError, match=re.escape(text)):
            synth_mixture(Rng(1), 0.25, snr)

    @pytest.mark.parametrize("rate", [1, 100, 666])
    def test_rate_below_band_limit_raises(self, rate):
        with pytest.raises(ValueError, match=f"data.sample_rate = {rate} Hz is below 667 Hz"):
            synth_mixture(Rng(1), 1.0, 5.0, rate)

    def test_lowest_rate_keeps_one_harmonic(self):
        """At 667 Hz the band limit (300.15 Hz) still admits the highest fundamental."""
        assert 0.45 * 667 > 300.0
        triple = synth_mixture(Rng(0), 1.0, 5.0, 667)
        assert triple.clean.shape == (667,) and np.all(np.isfinite(triple.mixture))


class TestSynthDataset:
    def test_count(self):
        ds = synth_dataset(7, 5, 0.1, 0.0, 10.0)
        assert len(ds) == 5

    def test_reproducible(self):
        a = synth_dataset(8, 3, 0.1, 0.0, 10.0)
        b = synth_dataset(8, 3, 0.1, 0.0, 10.0)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.mixture, tb.mixture)

    def test_snrs_inside_range(self):
        snrs = [measured_snr_db(t) for t in synth_dataset(9, 10, 0.05, 2.0, 4.0)]
        assert all(2.0 - 1e-9 <= snr < 4.0 + 1e-9 for snr in snrs)
        assert len(set(snrs)) == len(snrs)

    def test_equal_snr_bounds_give_constant_snr(self):
        for triple in synth_dataset(9, 3, 0.05, 5.0, 5.0):
            assert measured_snr_db(triple) == pytest.approx(5.0, abs=1e-9)


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
        np.testing.assert_array_equal(triples[0].clean, wav_read(tmp_path / "c.wav").samples)
        np.testing.assert_array_equal(triples[0].mixture, wav_read(tmp_path / "n.wav").samples)

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


def measured_snr_db(triple):
    """The SNR a triple's signals carry: clean against mixture - clean."""
    noise = triple.mixture - triple.clean
    return 10.0 * np.log10(np.sum(triple.clean ** 2) / np.sum(noise ** 2))


def _tiny_dataset(n, length=100):
    rng = Rng(11)
    out = []
    for i in range(n):
        clean = rng.normal((length,))
        noise = rng.normal((length,))
        out.append(MixtureTriple(clean, clean + noise))
    return out


class TestBatchIter:
    def test_batch_sizes(self):
        batches = list(batch_iter(_tiny_dataset(10), 4, seed=0, crop_len=100))
        assert [b[0].shape[0] for b in batches] == [4, 4, 2]

    def test_same_seed_same_order(self):
        a = [b[1] for b in batch_iter(_tiny_dataset(10), 4, seed=5, crop_len=100)]
        b = [b[1] for b in batch_iter(_tiny_dataset(10), 4, seed=5, crop_len=100)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_union_is_dataset(self):
        ds = _tiny_dataset(10)
        seen = np.concatenate(
            [b[1] for b in batch_iter(ds, 3, seed=1, crop_len=100)], axis=0)
        expect = np.stack([t.mixture for t in ds])
        assert seen.shape == expect.shape
        seen_sorted = seen[np.lexsort(seen.T)]
        expect_sorted = expect[np.lexsort(expect.T)]
        np.testing.assert_array_equal(seen_sorted, expect_sorted)

    def test_short_utterances_zero_padded(self):
        ds = _tiny_dataset(4, length=30)
        clean, mix = next(batch_iter(ds, 4, seed=2, crop_len=50))
        assert clean.shape == mix.shape == (4, 50)
        assert np.all(clean[:, 30:] == 0.0) and np.all(mix[:, 30:] == 0.0)

    def test_long_utterances_cropped(self):
        ds = _tiny_dataset(4, length=200)
        clean, mix = next(batch_iter(ds, 4, seed=3, crop_len=64))
        assert clean.shape == mix.shape == (4, 64)
        assert np.all(clean[:, -1] != 0.0) and np.all(mix[:, -1] != 0.0)

    def test_rows_are_the_crops_with_zero_tails(self):
        """Each row pair is one utterance's clean and mixture crop at the same
        start, bitwise, for padded, exact-length and cropped utterances; the
        padded tail is zero in both."""
        rng = Rng(12)
        ds = [MixtureTriple(rng.normal((n,)), rng.normal((n,)))
              for n in (30, 64, 64, 200, 200)]
        seen = []
        for clean, mix in batch_iter(ds, 2, seed=4, crop_len=64):
            for row in range(clean.shape[0]):
                for i, triple in enumerate(ds):
                    n = min(triple.clean.size, 64)
                    starts = [s for s in range(triple.clean.size - n + 1)
                              if np.array_equal(triple.clean[s:s + n], clean[row, :n])
                              and np.array_equal(triple.mixture[s:s + n], mix[row, :n])]
                    if starts:
                        seen.append(i)
                        assert np.all(clean[row, n:] == 0.0) and np.all(mix[row, n:] == 0.0)
        assert sorted(seen) == list(range(len(ds)))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            next(batch_iter([], 4, seed=0))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            next(batch_iter(_tiny_dataset(2), 0, seed=0))


class TestExampleMemory:
    """An example holds two float64 arrays, its clean signal and its mixture;
    the interference is mixture - clean, formed only inside the loss."""

    @staticmethod
    def held_bytes(fn, *args):
        """Bytes still allocated after fn returns, with its result alive, and the result."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            return tracemalloc.get_traced_memory()[0] - base, result
        finally:
            tracemalloc.stop()

    def test_synth_dataset_holds_two_arrays_per_example(self):
        held, triples = self.held_bytes(synth_dataset, 13, 6, 0.25, 0.0, 10.0)
        samples = sum(t.clean.size for t in triples)
        assert held <= 2.25 * 8 * samples

    def test_manifest_triples_hold_two_arrays_per_example(self, tmp_path):
        rng = Rng(14)
        lines = []
        for i in range(6):
            clean = 0.1 * rng.normal((4000,))
            wav_write(WavClip(clean), tmp_path / f"c{i}.wav")
            wav_write(WavClip(clean + 0.05 * rng.normal((4000,))), tmp_path / f"n{i}.wav")
            lines.append(f"{tmp_path / f'c{i}.wav'}\t{tmp_path / f'n{i}.wav'}\n")
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("".join(lines))
        held, (triples, skipped) = self.held_bytes(load_manifest_triples, manifest)
        assert len(triples) == 6 and not skipped
        assert held <= 2.25 * 8 * 6 * 4000
