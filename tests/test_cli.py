"""Command-line behavior: exit codes, artifacts, determinism."""

import csv
import os
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

from liftbank import cli, verify
from liftbank.audio_data import WavClip, synth_mixture, wav_read, wav_write
from liftbank.checkpoint import load_checkpoint, save_checkpoint
from liftbank.cli import main
from liftbank.lifting import LiftingConfig, LiftingTransform
from liftbank.masking import CHUNK_SAMPLES
from liftbank.numerics import Rng

BASE_CONFIG = """
# desk-scale run
seed = 7
pipeline.transform = lifting
pipeline.mask = binary
lifting.stages = 4
train.epochs = 2
train.batch_size = 4
train.lr = 0.001
train.crop = 1024
data.kind = synthetic
data.count = 8
data.duration = 0.08
data.snr_min = 0
data.snr_max = 10
"""


def base_config(extra):
    """BASE_CONFIG with the settings in ``extra`` in place of its own, since a
    config gives each key once."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in BASE_CONFIG.splitlines()
            if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def instance_norm_entries(cfg):
    """The entries of an estimator checkpoint saved when the estimator had
    instance norm: no encoder or decoder conv bias, a norm gamma and beta
    after each of those convs instead."""
    entries = {}
    for name, arr in cli.build_pipeline(cfg).state_dict().items():
        if name.startswith(("mask/enc", "mask/dec")) and name.endswith("/bias"):
            stage = name[:-len("bias")]
            entries[stage + "norm/gamma"] = np.ones_like(arr)
            entries[stage + "norm/beta"] = np.zeros_like(arr)
        else:
            entries[name] = arr
    return entries


def write_manifest(tmp_path, n_pairs=3, length=2000, mismatched=0):
    rng = Rng(99)
    lines = []
    for i in range(n_pairs):
        triple = synth_mixture(rng, length / 16000.0, 5.0)
        clean_path = tmp_path / f"clean{i}.wav"
        noisy_path = tmp_path / f"noisy{i}.wav"
        wav_write(WavClip(0.5 * triple.clean), clean_path)
        wav_write(WavClip(0.5 * triple.mixture), noisy_path)
        lines.append(f"{clean_path}\t{noisy_path}")
    for i in range(mismatched):
        triple = synth_mixture(rng, length / 16000.0, 5.0)
        clean_path = tmp_path / f"mclean{i}.wav"
        noisy_path = tmp_path / f"mnoisy{i}.wav"
        wav_write(WavClip(0.5 * triple.clean), clean_path)
        wav_write(WavClip(0.5 * triple.mixture[:-7]), noisy_path)
        lines.append(f"{clean_path}\t{noisy_path}")
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def write_rule_manifest(tmp_path, usable=True):
    """One pair per skip rule (unreadable, 8 kHz, unequal lengths, empty, silent
    clean reference) and, if ``usable``, three good pairs, two of which share
    the noisy stem "noisy"."""
    rng = Rng(98)
    lines = []

    def pair(folder, clean, noisy, rate=16000, stem=None):
        clean_path = tmp_path / folder / "clean.wav"
        noisy_path = tmp_path / folder / f"{stem or folder}.wav"
        clean_path.parent.mkdir()
        wav_write(WavClip(clean, rate), clean_path)
        wav_write(WavClip(noisy, rate), noisy_path)
        lines.append(f"{clean_path}\t{noisy_path}")
        return noisy_path

    def mixture():
        triple = synth_mixture(rng, 2000 / 16000.0, 5.0)
        return 0.5 * triple.clean, 0.5 * triple.mixture

    pair("unreadable", *mixture()).write_bytes(b"RIFF\x00\x00\x00\x00WAVEjunk")
    pair("rate", *mixture(), rate=8000)
    clean, noisy = mixture()
    pair("length", clean, noisy[:-7])
    pair("empty", np.zeros(0), np.zeros(0))
    pair("silent", np.zeros(2000), mixture()[1])
    if usable:
        pair("good", *mixture())
        pair("a", *mixture(), stem="noisy")
        pair("b", *mixture(), stem="noisy")
    manifest = tmp_path / "rules.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def skip_warnings(err):
    return [line for line in err.splitlines() if line.startswith("warning: skipped ")]


def truncate(path, cut):
    """Cut the last ``cut`` bytes off a file, leaving its header as written."""
    path.write_bytes(path.read_bytes()[:-cut])


def overrun_fmt_chunk(path):
    """Set the `fmt ` chunk's size (header bytes 16-19) to run past the end of the file."""
    data = bytearray(path.read_bytes())
    data[16:20] = bytes.fromhex("10000b00")
    path.write_bytes(bytes(data))


def traced_peak(fn, *args):
    """Peak bytes allocated while fn runs, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def lifting_convs(cfg):
    return [conv for block in cli.build_pipeline(cfg).transform.blocks
            for conv in block.convs]


def nan_checkpoint(tmp_path):
    """The default pipeline's checkpoint with one NaN weight."""
    from liftbank.checkpoint import save_checkpoint
    from liftbank.cli import build_pipeline, load_config
    state = {k: v.copy() for k, v in build_pipeline(load_config()).state_dict().items()}
    state["lifting/stage1/conv0/weight"][0, 0, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, state)
    return path


class TestConfig:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "no.such.key = 1\n")
        assert main(["train", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "train.epochs = soon\n")
        assert main(["train", str(cfg)]) == 2

    def test_readme_example_config_loads_with_every_listed_choice(self, tmp_path):
        """README's example config loads, and so does each option that a
        ``# a | b`` comment in it lists: the documented choices are the
        parser's."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = cli.load_config(write_config(tmp_path, block))
        listed = {}
        for line in block.splitlines():
            setting, _, comment = line.partition("#")
            if "|" in comment:
                key, _, value = setting.partition("=")
                listed[key.strip()] = [option.strip() for option in comment.split("|")]
                assert value.strip() in listed[key.strip()] and cfg[key.strip()] == value.strip()
        assert listed["mask.norm"] == ["none", "spectral"]
        for key, options in listed.items():
            for option in options:
                loaded = cli.load_config(write_config(tmp_path, f"{key} = {option}\n"))
                assert loaded[key] == option

    @pytest.mark.parametrize("command", [
        ["enhance", "{tmp}/in.wav", "{tmp}/out.wav"],
        ["eval", "--manifest", "{tmp}/pairs.tsv", "--out", "{tmp}/out.csv"],
        ["check", "pr"],
    ], ids=["enhance", "eval", "check"])
    def test_instance_norm_exits_2_in_every_command(self, tmp_path, capsys, command):
        """Instance norm is no longer a mask.norm choice: each command that
        reads a config rejects it before it reads or writes anything else."""
        cfg = write_config(tmp_path, "pipeline.mask = estimator\nmask.norm = instance\n")
        files = sorted(p.name for p in tmp_path.iterdir())
        argv = [arg.format(tmp=tmp_path) for arg in command] + ["--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: bad value for mask.norm: expected one of ('none', 'spectral'), "
            "got 'instance'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == files

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["train", str(tmp_path / "absent.cfg")]) == 2

    def test_usage_error_exits_2(self):
        assert main(["no-such-command"]) == 2

    @pytest.mark.parametrize("text, on", [("yes", True), ("true", True), ("1", True),
                                          ("no", False), ("false", False), ("0", False)])
    def test_spectral_norm_boolean(self, tmp_path, text, on):
        cfg = cli.load_config(write_config(tmp_path, f"lifting.spectral_norm = {text}\n"))
        assert [conv.sn_u is not None for conv in lifting_convs(cfg)] == [on] * 12

    def test_linear_removes_predictor_biases(self, tmp_path):
        assert all(conv.bias is not None for conv in lifting_convs(cli.load_config()))
        cfg = cli.load_config(write_config(tmp_path, "lifting.linear = true\n"))
        assert [conv.bias for conv in lifting_convs(cfg)] == [None] * 12

    def test_block_kernels_list(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, "lifting.block_kernels = 5,3\n"))
        pipeline = cli.build_pipeline(cfg)
        assert [[conv.kernel_size for conv in block.convs]
                for block in pipeline.transform.blocks] == [[5, 3]] * 6

    @pytest.mark.parametrize("lines, expected", [
        ("lifting.stages = 3\nlifting.base_channels = 2\nlifting.block_kernels = 5,3,1\n"
         "lifting.leaky_slope = 0.3\nlifting.spectral_norm = true\n",
         LiftingConfig(num_stages=3, base_channels=2, kernel_sizes=(5, 3, 1),
                       leaky_slope=0.3, spectral_norm=True)),
        ("lifting.linear = true\n", LiftingConfig(linear_variant=True)),
    ], ids=["nonlinear", "linear"])
    def test_every_lifting_key_reaches_the_transform(self, tmp_path, lines, expected):
        """Each lifting.* key lands in its LiftingConfig field and in every
        predictor that field shapes."""
        transform = cli.build_pipeline(cli.load_config(write_config(tmp_path, lines))).transform
        assert transform.config == expected
        assert len(transform.blocks) == expected.num_stages
        for j, block in enumerate(transform.blocks, start=1):
            assert [conv.kernel_size for conv in block.convs] == list(expected.kernel_sizes)
            for conv in block.convs:
                assert conv.in_channels == conv.out_channels == expected.channels(j)
                assert (conv.sn_u is not None) == expected.spectral_norm
                assert (conv.bias is None) == expected.linear_variant
            if expected.linear_variant:
                assert block.act is None
            else:
                assert (block.act.kind, block.act.slope) == ("leaky_relu", expected.leaky_slope)

    @pytest.mark.parametrize("command", [
        ["train", "{cfg}"],
        ["enhance", "{tmp}/in.wav", "{tmp}/out.wav", "--config", "{cfg}"],
        ["eval", "--manifest", "{tmp}/pairs.tsv", "--out", "{tmp}/out.csv", "--config", "{cfg}"],
    ], ids=["train", "enhance", "eval"])
    def test_binary_mask_on_stft_exits_2_naming_both_keys(self, tmp_path, capsys, command):
        """The stft bins have no binary partition: every command that builds
        the configured pipeline rejects the pair of keys before it writes
        anything; the ones mask still runs on that config."""
        cfg = write_config(tmp_path, "pipeline.transform = stft\npipeline.mask = binary\n"
                                     f"out.dir = {tmp_path}/run\n")
        write_manifest(tmp_path, n_pairs=1)
        wav_write(WavClip(0.1 * Rng(3).normal((2000,))), tmp_path / "in.wav")
        files = sorted(p.name for p in tmp_path.iterdir())
        argv = [arg.format(tmp=tmp_path, cfg=cfg) for arg in command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: pipeline.mask = binary needs pipeline.transform = lifting "
            "(the stft bins have no fixed channel partition)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == files
        if command[0] != "train":
            assert main(argv + ["--ones-mask"]) == 0

    def test_repeated_key_rejected_naming_both_lines(self, tmp_path):
        path = write_config(tmp_path, "lifting.linear = yes\nlifting.block_kernels = 5\n"
                                      "# a comment\nlifting.linear = yes\n")
        with pytest.raises(cli.ConfigError) as exc:
            cli.load_config(path)
        assert str(exc.value) == f"{path}:4: key 'lifting.linear' given twice, at lines 1 and 4"

    @pytest.mark.parametrize("command", [
        ["train", "{cfg}"],
        ["enhance", "{tmp}/in.wav", "{tmp}/out.wav", "--config", "{cfg}"],
    ], ids=["train", "enhance"])
    def test_repeated_key_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                   command):
        cfg = write_config(tmp_path, f"out.dir = {tmp_path}/run\nseed = 3\nseed = 4\n")
        wav_write(WavClip(0.1 * Rng(3).normal((2000,))), tmp_path / "in.wav")
        files = sorted(p.name for p in tmp_path.iterdir())

        def no_work(*args, **kwargs):
            raise AssertionError("a pipeline was built")
        monkeypatch.setattr(cli, "build_pipeline", no_work)
        assert main([arg.format(tmp=tmp_path, cfg=cfg) for arg in command]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: key 'seed' given twice, at lines 2 and 3\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == files


class TestTrainCommand:
    def test_writes_log_and_checkpoints(self, tmp_path):
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n"))
        assert main(["train", str(cfg)]) == 0
        log = (tmp_path / "run" / "training_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,val_loss,val_si_sdr_imp"
        assert len(log) == 3  # header + one row per epoch
        assert (tmp_path / "run" / "checkpoint_last.ckpt").exists()
        assert (tmp_path / "run" / "checkpoint_best.ckpt").exists()

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        cfg_a = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/a\n"), "a.cfg")
        cfg_b = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/b\n"), "b.cfg")
        assert main(["train", str(cfg_a)]) == 0
        assert main(["train", str(cfg_b)]) == 0
        ck_a = (tmp_path / "a" / "checkpoint_last.ckpt").read_bytes()
        ck_b = (tmp_path / "b" / "checkpoint_last.ckpt").read_bytes()
        assert ck_a == ck_b
        log_a = (tmp_path / "a" / "training_log.csv").read_text()
        log_b = (tmp_path / "b" / "training_log.csv").read_text()
        assert log_a == log_b

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("train.lr = 0.001",
                                                         "train.lr = 1e30"))
        assert main(["train", str(cfg)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_gradient_exits_3(self, tmp_path, capsys, monkeypatch):
        """A finite loss with a NaN gradient is divergence, not a usage error."""
        from liftbank import optim
        loss_and_grad = optim.sdr_loss_and_grad

        def nan_gradient(*args):
            loss, grad = loss_and_grad(*args)
            return loss, np.full_like(grad, np.nan)

        monkeypatch.setattr(optim, "sdr_loss_and_grad", nan_gradient)
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n"))
        assert main(["train", str(cfg)]) == 3
        assert "non-finite gradient for parameter lifting/" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint_last.ckpt").exists()

    @pytest.mark.parametrize("line, message", [
        ("train.max_steps = -1", "max_steps must be >= 0 (0 = no cap), got -1"),
        ("train.batch_size = 0", "batch size must be >= 1"),
        ("train.crop = 0", "crop length must be >= 1, got 0"),
    ])
    def test_bad_train_value_exits_2_before_any_data(self, tmp_path, capsys, monkeypatch,
                                                     line, message):
        def no_dataset(cfg):
            raise AssertionError("dataset built before the train values were checked")

        monkeypatch.setattr(cli, "build_dataset", no_dataset)
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n{line}\n"))
        assert main(["train", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line, message", [
        ("train.lr = nan", "expected a finite number, got 'nan'"),
        ("train.lr = -0.01", "learning rate must be >= 0 and finite, got -0.01"),
        ("loss.beta_clip = nan", "expected a finite number, got 'nan'"),
        ("loss.beta_clip = inf", "expected a finite number, got 'inf'"),
        ("loss.eps = nan", "expected a finite number, got 'nan'"),
    ])
    def test_non_finite_or_negative_float_exits_2_before_any_data(
            self, tmp_path, capsys, monkeypatch, line, message):
        def no_dataset(cfg):
            raise AssertionError("dataset built before the float values were checked")

        monkeypatch.setattr(cli, "build_dataset", no_dataset)
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n{line}\n"))
        assert main(["train", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line, message", [
        ("data.snr_min = 20", "SNR range is empty: snr_min 20 dB > snr_max 10 dB"),
        ("data.sample_rate = 0", "sample rate must be >= 1 Hz, got 0"),
        ("data.duration = 0.00001", "a 1e-05 s clip at 16000 Hz has no samples"),
        ("pipeline.mask = estimator\nmask.base_channels = 0",
         "mask estimator needs base_channels >= 1, got 0"),
        ("train.val_fraction = 0.999", "train split is empty (val_fraction 0.999)"),
        ("train.trainable = mask", "pipeline has no parameters in group 'mask'"),
        ("lifting.spectral_norm = maybe",
         "bad value for lifting.spectral_norm: expected a boolean, got 'maybe'"),
        ("lifting.block_kernels = 3,x",
         "bad value for lifting.block_kernels: expected comma-separated integers, got '3,x'"),
        ("lifting.block_kernels = 4", "block kernel sizes must be odd and positive"),
        ("seed 7", "run.cfg:17: expected key=value"),
        ("pipeline.mask = bogus", "bad value for pipeline.mask: expected one of "
                                  "('binary', 'estimator', 'ones'), got 'bogus'"),
        ("pipeline.mask = estimator\nmask.norm = instance",
         "bad value for mask.norm: expected one of ('none', 'spectral'), got 'instance'"),
        ("data.kind = manifest", "data.kind=manifest needs data.manifest"),
        ("data.count = 0", "data.count must be >= 1"),
    ])
    def test_unusable_value_exits_2_before_out_dir(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n{line}\n"))
        assert main(["train", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("lines, message", [
        ("data.snr_min = 3100\ndata.snr_max = 3100", "SNR 3100 dB is out of range"),
        ("data.snr_min = -3100\ndata.snr_max = -3100", "SNR -3100 dB is out of range"),
        ("data.snr_max = 1e308", "dB is out of range: its power ratio inf"),
        ("data.snr_min = -3300\ndata.snr_max = -3300", "SNR -3300 dB is out of range"),
        ("data.sample_rate = 1", "data.sample_rate = 1 Hz is below 667 Hz"),
        ("data.sample_rate = 666", "data.sample_rate = 666 Hz is below 667 Hz"),
    ], ids=["snr+3100", "snr-3100", "snr-max-1e308", "snr-3300", "rate1", "rate666"])
    def test_unsynthesizable_data_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                              lines, message):
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n{lines}\n"))
        assert main(["train", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("snr", ["3000", "-3000"])
    def test_extreme_valid_snr_trains(self, tmp_path, capsys, snr):
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n"
                           f"data.snr_min = {snr}\ndata.snr_max = {snr}\n"))
        assert main(["train", str(cfg)]) == 0
        assert (tmp_path / "run" / "checkpoint_last.ckpt").exists()

    @pytest.mark.parametrize("lines, depth, height", [
        ("lifting.stages = 2\nlifting.base_channels = 2", 4, 8),
        ("pipeline.transform = stft\nstft.window_length = 32\nstft.hop = 8\n"
         "stft.dft_length = 32", 5, 17),
    ], ids=["lifting", "stft"])
    def test_estimator_stride_above_feature_height_exits_2(self, tmp_path, capsys,
                                                           monkeypatch, lines, depth, height):
        """Checked before any estimator conv exists; one stage less still builds."""
        text = base_config(f"pipeline.mask = estimator\nmask.base_channels = 2\n{lines}\n")
        fits = dict(cli.load_config(write_config(tmp_path, text)), **{"mask.depth": depth - 1})
        assert cli.build_pipeline(fits).estimator.total_stride <= height

        def no_estimator(**kwargs):
            raise AssertionError("estimator built before its depth was checked")

        monkeypatch.setattr(cli, "MaskEstimator", no_estimator)
        cfg = write_config(tmp_path, text + f"mask.depth = {depth}\nout.dir = {tmp_path}/run\n")
        assert main(["train", str(cfg)]) == 2
        assert (f"mask.depth = {depth}: the estimator's total stride 2**{depth} "
                f"exceeds the feature height {height}") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 1.00 TiB"), "error: Unable to allocate 1.00 TiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["message", "bare"])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, exc, line):
        def no_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "build_pipeline", no_memory)
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n"))
        assert main(["train", str(cfg)]) == 2
        assert capsys.readouterr().err == line
        assert not (tmp_path / "run").exists()

    def test_joint_training_is_deterministic_and_moves_both_groups(self, tmp_path):
        """train.trainable = both, the paper's joint path: two runs give identical
        bytes, and every transform and every estimator entry leaves its initial value."""
        text = ("pipeline.mask = estimator\ntrain.trainable = both\nlifting.stages = 3\n"
                "mask.depth = 2\nmask.base_channels = 4\ntrain.batch_size = 2\n"
                "train.crop = 512\ndata.count = 5\ndata.duration = 0.1\ntrain.epochs = 2\n")
        runs = []
        for tag in ("a", "b"):
            cfg = write_config(tmp_path, text + f"out.dir = {tmp_path / tag}\n", f"{tag}.cfg")
            assert main(["train", str(cfg)]) == 0
            runs.append([(tmp_path / tag / name).read_bytes() for name in
                         ("checkpoint_last.ckpt", "checkpoint_best.ckpt", "training_log.csv")])
        assert runs[0] == runs[1]
        initial = cli.build_pipeline(cli.load_config(cfg)).state_dict()
        trained = load_checkpoint(tmp_path / "a" / "checkpoint_last.ckpt")
        assert trained.keys() == initial.keys()
        for group in ("lifting/", "mask/"):
            names = [name for name in initial if name.startswith(group)]
            assert names
            assert all(not np.array_equal(trained[name], initial[name]) for name in names)

    def test_manifest_skips_bad_pairs_like_eval(self, tmp_path, capsys):
        manifest = write_rule_manifest(tmp_path)
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n"
                           f"data.kind = manifest\ndata.manifest = {manifest}\n"))
        assert main(["train", str(cfg)]) == 0
        assert (tmp_path / "run" / "checkpoint_last.ckpt").exists()
        assert (tmp_path / "run" / "checkpoint_best.ckpt").exists()
        train_warnings = skip_warnings(capsys.readouterr().err)
        assert main(["eval", "--manifest", str(manifest), "--out",
                     str(tmp_path / "metrics.csv"), "--ones-mask"]) == 1
        assert skip_warnings(capsys.readouterr().err) == train_warnings
        reasons = ["unreadable pair", "sample rate 8000 Hz differs", "length-mismatched pair",
                   "empty pair", "silent clean reference"]
        assert len(train_warnings) == len(reasons)
        assert all(r in w for r, w in zip(reasons, train_warnings))

    def test_manifest_skips_fmt_chunk_past_end_of_file(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, n_pairs=3)
        overrun_fmt_chunk(tmp_path / "noisy1.wav")
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n"
                           f"data.kind = manifest\ndata.manifest = {manifest}\n"))
        assert main(["train", str(cfg)]) == 0
        assert (tmp_path / "run" / "checkpoint_last.ckpt").exists()
        assert skip_warnings(capsys.readouterr().err) == [
            f"warning: skipped unreadable pair {tmp_path / 'clean1.wav'} / "
            f"{tmp_path / 'noisy1.wav'}: {tmp_path / 'noisy1.wav'}: not a readable WAV "
            "file (a chunk runs past the end of the file)"]

    def test_manifest_without_usable_pair_exits_2(self, tmp_path, capsys):
        manifest = write_rule_manifest(tmp_path, usable=False)
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n"
                           f"data.kind = manifest\ndata.manifest = {manifest}\n"))
        assert main(["train", str(cfg)]) == 2
        assert "no usable pairs" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestEnhanceCommand:
    def test_ones_mask_is_identity_up_to_quantization(self, tmp_path):
        x = 0.5 * Rng(1).normal((2100,))
        wav_write(WavClip(x), tmp_path / "in.wav")
        code = main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
                     "--ones-mask"])
        assert code == 0
        out = wav_read(tmp_path / "out.wav")
        src = wav_read(tmp_path / "in.wav")
        assert out.samples.shape == src.samples.shape
        assert float(np.max(np.abs(out.samples - src.samples))) <= 2.0 / 32768.0

    def test_length_preserved_for_awkward_duration(self, tmp_path):
        # 1.37 s at 16 kHz: 21920 samples, not a multiple of 64
        x = 0.1 * Rng(2).normal((21920,))
        wav_write(WavClip(x), tmp_path / "in.wav")
        assert main(["enhance", str(tmp_path / "in.wav"),
                     str(tmp_path / "out.wav")]) == 0
        out = wav_read(tmp_path / "out.wav")
        assert out.samples.shape == (21920,)
        assert out.sample_rate == 16000

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["enhance", str(tmp_path / "no.wav"),
                     str(tmp_path / "out.wav")]) == 2

    def test_sample_rate_mismatch_exits_2(self, tmp_path, capsys):
        wav_write(WavClip(0.1 * Rng(5).normal((1000,)), sample_rate=8000),
                  tmp_path / "in.wav")
        assert main(["enhance", str(tmp_path / "in.wav"),
                     str(tmp_path / "out.wav")]) == 2
        assert "sample rate 8000 Hz differs" in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()

    @pytest.mark.parametrize("transform", ["lifting", "stft"])
    def test_empty_input_exits_2(self, tmp_path, capsys, transform):
        cfg = write_config(tmp_path, f"pipeline.transform = {transform}\n"
                                     "pipeline.mask = estimator\n")
        wav_write(WavClip(np.zeros(0)), tmp_path / "in.wav")
        assert main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
                     "--config", str(cfg)]) == 2
        assert "empty input signal" in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()

    @pytest.mark.parametrize("mask, entries, missing, extra", [
        ("binary", lambda cfg: {"not/a/real/param": np.ones(3)},
         "lifting/stage1/conv0/weight", "not/a/real/param"),
        ("estimator", instance_norm_entries, "mask/enc0/bias", "mask/enc0/norm/gamma"),
    ], ids=["unknown", "instance_norm"])
    def test_checkpoint_mismatch_exits_2(self, tmp_path, capsys, mask, entries, missing, extra):
        cfg = write_config(tmp_path, f"pipeline.mask = {mask}\n")
        save_checkpoint(tmp_path / "weird.ckpt", entries(cli.load_config(cfg)))
        x = 0.1 * Rng(3).normal((1000,))
        wav_write(WavClip(x), tmp_path / "in.wav")
        assert main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
                     "--config", str(cfg), "--checkpoint", str(tmp_path / "weird.ckpt")]) == 2
        err = capsys.readouterr().err
        assert "checkpoint mismatch" in err
        listed_missing, _, listed_extra = err.partition("extra=")
        assert f"'{missing}'" in listed_missing and f"'{extra}'" in listed_extra

    def test_non_finite_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = nan_checkpoint(tmp_path)
        x = 0.1 * Rng(3).normal((1000,))
        wav_write(WavClip(x), tmp_path / "in.wav")
        assert main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
                     "--checkpoint", str(ckpt)]) == 2
        assert "lifting/stage1/conv0/weight" in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()

    def test_trained_checkpoint_loads(self, tmp_path):
        cfg = write_config(tmp_path, base_config(f"out.dir = {tmp_path}/run\n"))
        assert main(["train", str(cfg)]) == 0
        x = 0.1 * Rng(4).normal((1500,))
        wav_write(WavClip(x), tmp_path / "in.wav")
        mask_csv = tmp_path / "mask.csv"
        code = main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
                     "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "run" / "checkpoint_best.ckpt"),
                     "--export-mask", str(mask_csv)])
        assert code == 0
        mask = np.loadtxt(mask_csv, delimiter=",")
        assert mask.shape[0] == 64  # merged channels for 4 stages: 2 * 4 * 2**3
        assert set(np.unique(mask)) <= {0.0, 1.0}
        # exporting the mask does not change the enhanced audio
        assert main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "plain.wav"),
                     "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "run" / "checkpoint_best.ckpt")]) == 0
        assert (tmp_path / "out.wav").read_bytes() == (tmp_path / "plain.wav").read_bytes()


    def test_ones_mask_loads_an_estimator_checkpoint(self, tmp_path):
        """The override replaces the mask source only: the estimator is still
        built, from the same RNG forks, so its own checkpoint loads."""
        cfg = write_config(tmp_path, "lifting.stages = 3\nlifting.base_channels = 2\n"
                           "pipeline.mask = estimator\nmask.depth = 2\n"
                           "mask.base_channels = 2\n")
        config = cli.load_config(cfg)
        state = cli.build_pipeline(config).state_dict()
        ones = cli.build_pipeline(config, mask_override="ones").state_dict()
        assert list(ones) == list(state)
        assert all(ones[name].tobytes() == state[name].tobytes() for name in state)
        save_checkpoint(tmp_path / "est.ckpt", state)
        x = 0.5 * Rng(11).normal((2100,))
        wav_write(WavClip(x), tmp_path / "in.wav")
        assert main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
                     "--config", str(cfg), "--checkpoint", str(tmp_path / "est.ckpt"),
                     "--ones-mask"]) == 0
        out = wav_read(tmp_path / "out.wav")
        src = wav_read(tmp_path / "in.wav")
        assert out.samples.shape == src.samples.shape
        assert float(np.max(np.abs(out.samples - src.samples))) <= 2.0 / 32768.0

    def test_without_export_holds_no_mask(self, tmp_path):
        """Without --export-mask the command's peak exceeds plain enhance's on
        the same samples by less than the mask's bytes (256 x 5,000 doubles on
        a 20 s input with the default lifting/estimator config)."""
        cfg = write_config(tmp_path, "pipeline.mask = estimator\n")
        wav_write(WavClip(0.1 * Rng(12).normal((20 * 16000,))), tmp_path / "in.wav")
        samples = wav_read(tmp_path / "in.wav").samples
        pipeline = cli.build_pipeline(cli.load_config(cfg))
        peak_enhance = traced_peak(pipeline.enhance, samples)
        peak_command = traced_peak(main, ["enhance", str(tmp_path / "in.wav"),
                                          str(tmp_path / "out.wav"), "--config", str(cfg)])
        mask_bytes = pipeline.transform.config.merged_channels * (samples.size // 64) * 8
        assert peak_command - peak_enhance < mask_bytes

    @pytest.mark.parametrize("cut", [1, 2])
    def test_truncated_input_exits_2_naming_the_file(self, tmp_path, capsys, cut):
        wav_write(WavClip(0.1 * Rng(13).normal((1000,))), tmp_path / "in.wav")
        truncate(tmp_path / "in.wav", cut)
        assert main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav")]) == 2
        assert (f"error: {tmp_path / 'in.wav'}: not a readable WAV file (data chunk "
                f"holds {2000 - cut} of its 2000 bytes)") in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()

    def test_fmt_chunk_past_end_of_file_exits_2(self, tmp_path, capsys):
        wav_write(WavClip(0.1 * Rng(14).normal((3000,))), tmp_path / "in.wav")
        overrun_fmt_chunk(tmp_path / "in.wav")
        assert main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
                     "--ones-mask"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'in.wav'}: not a readable WAV file (a chunk runs past "
            "the end of the file)"]
        assert not (tmp_path / "out.wav").exists()

    def test_zero_sample_rate_exits_2_naming_the_file(self, tmp_path, capsys):
        wav_write(WavClip(0.1 * Rng(15).normal((3000,))), tmp_path / "in.wav")
        data = bytearray((tmp_path / "in.wav").read_bytes())
        data[24:28] = bytes(4)       # the header's sample rate
        (tmp_path / "in.wav").write_bytes(bytes(data))
        assert main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
                     "--ones-mask"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'in.wav'}: sample rate must be positive"]
        assert not (tmp_path / "out.wav").exists()

    def test_export_mask_runs_in_chunks_and_matches_whole_file(self, tmp_path):
        """A 3-chunk input: the exported mask is the whole-file training
        path's mask, and the WAV is plain enhance's, byte for byte."""
        cfg = write_config(tmp_path, "lifting.stages = 3\nlifting.base_channels = 2\n"
                           "pipeline.mask = estimator\nmask.depth = 2\n"
                           "mask.base_channels = 2\n")
        pipeline = cli.build_pipeline(cli.load_config(cfg))
        head = pipeline.estimator.head
        head.weight.data[...] = Rng(8).uniform(head.weight.shape, -1.0, 1.0)
        head.bias.data[...] = 0.25
        save_checkpoint(tmp_path / "head.ckpt", pipeline.state_dict())
        x = 0.1 * Rng(9).normal((2 * CHUNK_SAMPLES + 5000,))
        wav_write(WavClip(x), tmp_path / "in.wav")
        args = [str(tmp_path / "in.wav"), "--config", str(cfg),
                "--checkpoint", str(tmp_path / "head.ckpt")]
        assert main(["enhance", args[0], str(tmp_path / "out.wav"), *args[1:],
                     "--export-mask", str(tmp_path / "mask.csv")]) == 0
        assert main(["enhance", args[0], str(tmp_path / "plain.wav"), *args[1:]]) == 0
        assert (tmp_path / "out.wav").read_bytes() == (tmp_path / "plain.wav").read_bytes()
        _, cache = pipeline.enhance_training(wav_read(tmp_path / "in.wav").samples)
        mask = np.loadtxt(tmp_path / "mask.csv", delimiter=",")
        assert mask.shape == cache.mask.shape
        assert np.max(np.abs(mask - cache.mask)) <= 1e-9

    @pytest.mark.parametrize("bad_name", ["nodir/out", "adir"])
    @pytest.mark.parametrize("missing", ["output", "export_mask"])
    def test_output_in_missing_directory_exits_2_before_any_work(self, tmp_path, capsys,
                                                                 monkeypatch, missing, bad_name):
        """An output path whose directory does not exist, or that is a
        directory, exits 2 naming that path before the enhancement runs, and
        no file is written."""
        wav_write(WavClip(0.1 * Rng(8).normal((1500,))), tmp_path / "in.wav")
        (tmp_path / "adir").mkdir()
        bad = str(tmp_path / bad_name)
        args = ([bad] if missing == "output"
                else [str(tmp_path / "out.wav"), "--export-mask", bad])

        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline was loaded")
        monkeypatch.setattr(cli, "_load_pipeline", no_work)
        assert main(["enhance", str(tmp_path / "in.wav"), *args]) == 2
        assert bad in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "in.wav"]
        assert list((tmp_path / "adir").iterdir()) == []

    @pytest.mark.parametrize("mask", ["out.wav", "./out.wav", "link.wav"])
    def test_mask_naming_the_output_exits_2_before_loading(self, tmp_path, capsys,
                                                           monkeypatch, mask):
        """--export-mask may not name the enhanced WAV, by the same path, another
        spelling of it or a symbolic link to it: the mask would replace it."""
        wav_write(WavClip(0.1 * Rng(3).normal((1500,))), tmp_path / "in.wav")
        (tmp_path / "out.wav").write_bytes(b"previous enhancement")
        (tmp_path / "link.wav").symlink_to(tmp_path / "out.wav")
        monkeypatch.chdir(tmp_path)

        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline was loaded")
        monkeypatch.setattr(cli, "_load_pipeline", no_work)
        assert main(["enhance", "in.wav", "out.wav", "--export-mask", mask]) == 2
        assert capsys.readouterr().err == (
            f"error: out.wav and {Path(mask)}: two outputs name the same file\n")
        assert (tmp_path / "out.wav").read_bytes() == b"previous enhancement"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "link.wav", "out.wav"]

    def test_failed_wav_write_keeps_previous_output(self, tmp_path, monkeypatch):
        """A write that raises midway (a full disk) leaves an earlier output
        byte-identical and no temporary file behind."""
        x = 0.1 * Rng(6).normal((1500,))
        wav_write(WavClip(x), tmp_path / "in.wav")
        (tmp_path / "out.wav").write_bytes(b"previous enhancement")

        def half_then_fail(self, data):
            self.writeframesraw(bytes(data)[:64])
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(wave.Wave_write, "writeframes", half_then_fail)
        assert main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav")]) == 2
        assert (tmp_path / "out.wav").read_bytes() == b"previous enhancement"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "out.wav"]

    def test_failed_mask_export_keeps_previous_file(self, tmp_path, monkeypatch):
        x = 0.1 * Rng(7).normal((1500,))
        wav_write(WavClip(x), tmp_path / "in.wav")
        (tmp_path / "mask.csv").write_bytes(b"0.5,0.5\n")

        def half_then_fail(fname, *args, **kwargs):
            if isinstance(fname, (str, os.PathLike)):
                with open(fname, "w") as fh:
                    fh.write("0.1,")
            else:
                fname.write("0.1,")
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(np, "savetxt", half_then_fail)
        assert main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"),
                     "--export-mask", str(tmp_path / "mask.csv")]) == 2
        assert (tmp_path / "mask.csv").read_bytes() == b"0.5,0.5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "mask.csv", "out.wav"]


class TestCheckCommand:
    def test_pr_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "lifting.stages = 4\n")
        assert main(["check", "pr", "--config", str(cfg), "--trials", "10"]) == 0
        assert "max abs round-trip error" in capsys.readouterr().out

    def test_pr_suite_corrupt_fails(self, tmp_path):
        cfg = write_config(tmp_path, "lifting.stages = 4\n")
        assert main(["check", "pr", "--config", str(cfg), "--trials", "2",
                     "--corrupt"]) == 1

    @pytest.mark.parametrize("kind, extra", [
        ("pr", []), ("pr", ["--corrupt"]), ("gradcheck", []), ("stft-pr", []),
    ], ids=["pr", "pr-corrupt", "gradcheck", "stft-pr"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exits_2_before_any_suite(self, capsys, monkeypatch,
                                                       kind, extra, trials):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran")

        for suite in ("reconstruction_suite", "gradient_suite",
                      "stft_reconstruction_suite"):
            monkeypatch.setattr(verify, suite, no_suite)
        assert main(["check", kind, "--trials", trials, *extra]) == 2
        out = capsys.readouterr()
        assert out.err == f"error: --trials must be >= 1, got {trials}\n"
        assert out.out == ""

    @pytest.mark.parametrize("kind", ["gradcheck", "stft-pr"])
    def test_trials_outside_pr_exits_2_before_any_suite(self, capsys, monkeypatch, kind):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran")

        for suite in ("reconstruction_suite", "gradient_suite",
                      "stft_reconstruction_suite"):
            monkeypatch.setattr(verify, suite, no_suite)
        assert main(["check", kind, "--trials", "1000"]) == 2
        out = capsys.readouterr()
        assert out.err == f"error: --trials applies to check pr only, not check {kind}\n"
        assert out.out == ""

    def test_pr_trials_default_to_100(self, monkeypatch):
        seen = []

        def suite(config, trials, seed, corrupt):
            seen.append(trials)
            return 0.0

        monkeypatch.setattr(verify, "reconstruction_suite", suite)
        assert main(["check", "pr"]) == 0
        assert seen == [100]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_reconstruction_suite_rejects_trials_below_one(self, trials):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            verify.reconstruction_suite(trials=trials)

    def test_gradcheck_suite(self):
        assert main(["check", "gradcheck"]) == 0
        assert main(["check", "gradcheck", "--corrupt"]) == 1

    def test_gradient_suite_checks_the_input_gradient(self, monkeypatch):
        """A 1 % error in the gradient ``pipeline.backward`` returns, with every
        parameter gradient left exact, fails the suite."""
        forward_vjp = LiftingTransform.forward_vjp
        monkeypatch.setattr(LiftingTransform, "forward_vjp",
                            lambda self, *args: 1.01 * forward_vjp(self, *args))
        assert verify.gradient_suite() > verify.GRAD_TOLERANCE

    def test_stft_pr_suite(self):
        assert main(["check", "stft-pr"]) == 0
        assert main(["check", "stft-pr", "--corrupt"]) == 1


class TestEvalCommand:
    def test_identity_pipeline_zero_improvement(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        out_csv = tmp_path / "metrics.csv"
        code = main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--ones-mask"])
        assert code == 0
        rows = out_csv.read_text().splitlines()
        assert len(rows) == 4  # header + 3 utterances
        improvements = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(abs(v) <= 1e-6 for v in improvements)
        assert "mean improvement" in capsys.readouterr().out

    @pytest.mark.parametrize("bad_name", ["nodir/e.csv", "adir"])
    def test_out_in_missing_directory_exits_2_before_scoring(self, tmp_path, capsys,
                                                             monkeypatch, bad_name):
        manifest = write_manifest(tmp_path)
        (tmp_path / "adir").mkdir()
        files = sorted(p.name for p in tmp_path.iterdir())
        bad = str(tmp_path / bad_name)

        def no_score(*args, **kwargs):
            raise AssertionError("a pair was scored")
        monkeypatch.setattr(cli, "_eval_one", no_score)
        assert main(["eval", "--manifest", str(manifest), "--out", bad, "--ones-mask"]) == 2
        assert bad in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == files

    def test_oracle_estimate_caps(self, tmp_path):
        manifest = write_manifest(tmp_path)
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--oracle"]) == 0
        rows = out_csv.read_text().splitlines()[1:]
        outs = [float(r.split(",")[2]) for r in rows]
        assert all(v == 100.0 for v in outs)

    def test_mismatched_pairs_skip_and_exit_1(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, n_pairs=2, mismatched=1)
        out_csv = tmp_path / "metrics.csv"
        code = main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--ones-mask"])
        assert code == 1
        assert len(out_csv.read_text().splitlines()) == 3
        assert "skipped" in capsys.readouterr().err

    def test_unreadable_wav_skips_and_exits_1(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, n_pairs=3)
        (tmp_path / "noisy1.wav").write_bytes(b"RIFF\x00\x00\x00\x00WAVEjunk")
        (tmp_path / "clean2.wav").write_bytes(b"")
        out_csv = tmp_path / "metrics.csv"
        code = main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--ones-mask"])
        assert code == 1
        rows = out_csv.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["noisy0"]
        err = capsys.readouterr().err
        assert err.count("skipped unreadable pair") == 2

    def test_truncated_wav_skips_as_unreadable(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, n_pairs=3)
        truncate(tmp_path / "noisy1.wav", 1)
        truncate(tmp_path / "clean2.wav", 2)
        out_csv = tmp_path / "metrics.csv"
        code = main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--ones-mask"])
        assert code == 1
        rows = out_csv.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["noisy0"]
        err = skip_warnings(capsys.readouterr().err)
        assert len(err) == 2
        assert all("unreadable pair" in line and "data chunk holds" in line for line in err)

    def test_fmt_chunk_past_end_of_file_skips_and_exits_1(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, n_pairs=2)
        overrun_fmt_chunk(tmp_path / "clean1.wav")
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--ones-mask"]) == 1
        rows = out_csv.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["noisy0"]
        err = skip_warnings(capsys.readouterr().err)
        assert len(err) == 1 and "a chunk runs past the end of the file" in err[0]

    def test_ones_mask_loads_an_estimator_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "lifting.stages = 3\nlifting.base_channels = 2\n"
                           "pipeline.mask = estimator\nmask.depth = 2\n"
                           "mask.base_channels = 2\n")
        save_checkpoint(tmp_path / "est.ckpt",
                        cli.build_pipeline(cli.load_config(cfg)).state_dict())
        manifest = write_manifest(tmp_path, n_pairs=2)
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--config", str(cfg), "--checkpoint", str(tmp_path / "est.ckpt"),
                     "--ones-mask"]) == 0
        rows = out_csv.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(abs(float(r.split(",")[3])) <= 1e-6 for r in rows)

    def test_sample_rate_mismatch_skips_and_exits_1(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, n_pairs=2)
        for name in ("clean1.wav", "noisy1.wav"):
            clip = wav_read(tmp_path / name)
            wav_write(WavClip(clip.samples, sample_rate=8000), tmp_path / name)
        out_csv = tmp_path / "metrics.csv"
        code = main(["eval", "--manifest", str(manifest), "--out", str(out_csv)])
        assert code == 1
        rows = out_csv.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["noisy0"]
        assert "sample rate 8000 Hz differs" in capsys.readouterr().err

    def test_silent_or_empty_pair_skips_and_exits_1(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, n_pairs=2)
        clip = wav_read(tmp_path / "clean1.wav")
        wav_write(WavClip(np.zeros_like(clip.samples)), tmp_path / "clean1.wav")
        for name in ("clean2.wav", "noisy2.wav"):
            wav_write(WavClip(np.zeros(0)), tmp_path / name)
        with open(manifest, "a") as fh:
            fh.write(f"{tmp_path / 'clean2.wav'}\t{tmp_path / 'noisy2.wav'}\n")
        out_csv = tmp_path / "metrics.csv"
        code = main(["eval", "--manifest", str(manifest), "--out", str(out_csv)])
        assert code == 1
        rows = out_csv.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["noisy0"]
        err = capsys.readouterr().err
        assert "silent clean reference" in err and "skipped empty pair" in err

    def test_spectrogram_export(self, tmp_path):
        manifest = write_manifest(tmp_path, n_pairs=1)
        out_csv = tmp_path / "metrics.csv"
        export = tmp_path / "specs"
        assert main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--ones-mask", "--export-spectrogram", str(export)]) == 0
        dumps = sorted(p.name for p in export.iterdir())
        assert dumps == ["noisy0_enhanced_mag.csv", "noisy0_noisy_mag.csv"]
        mag = np.loadtxt(export / "noisy0_noisy_mag.csv", delimiter=",")
        assert mag.shape[0] == 257

    def test_spectrogram_export_to_a_file_exits_2_before_any_pair(self, tmp_path, capsys,
                                                                  monkeypatch):
        manifest = write_manifest(tmp_path, n_pairs=2)
        out_csv = tmp_path / "metrics.csv"
        export = tmp_path / "specs"
        export.write_bytes(b"not a directory")

        def no_pair(*args, **kwargs):
            raise AssertionError("a pair was read")
        monkeypatch.setattr(cli, "read_pair", no_pair)
        assert main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--ones-mask", "--export-spectrogram", str(export)]) == 2
        assert str(export) in capsys.readouterr().err
        assert not out_csv.exists()
        assert export.read_bytes() == b"not a directory"

    @pytest.mark.parametrize("tag", ["noisy", "enhanced"])
    def test_out_naming_a_spectrogram_dump_exits_2_before_any_pair(self, tmp_path, capsys,
                                                                   monkeypatch, tag):
        """``--out specs/n_noisy_mag.csv --export-spectrogram specs`` would let
        the metrics CSV replace pair n's dump: it exits 2 naming --out, and
        no pair is read and no file written."""
        manifest = write_manifest(tmp_path, n_pairs=1)
        os.rename(tmp_path / "noisy0.wav", tmp_path / "n.wav")
        manifest.write_text(manifest.read_text().replace("noisy0.wav", "n.wav"))
        export = tmp_path / "specs"
        export.mkdir()
        out_csv = export / f"n_{tag}_mag.csv"

        def no_pair(*args, **kwargs):
            raise AssertionError("a pair was read")
        monkeypatch.setattr(cli, "read_pair", no_pair)
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--manifest", str(manifest), "--out", f"specs/n_{tag}_mag.csv",
                     "--ones-mask", "--export-spectrogram", "specs"]) == 2
        assert f"specs/n_{tag}_mag.csv" in capsys.readouterr().err
        assert list(export.iterdir()) == []
        assert not out_csv.exists()

    def test_shared_stems_get_distinct_ids_and_dumps(self, tmp_path):
        manifest = write_rule_manifest(tmp_path)
        out_csv = tmp_path / "metrics.csv"
        export = tmp_path / "specs"
        assert main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--ones-mask", "--export-spectrogram", str(export)]) == 1
        with out_csv.open(newline="") as fh:
            ids = [row[0] for row in csv.reader(fh)][1:]
        assert ids == ["good", "noisy_6", "noisy_7"]
        assert sorted(p.name for p in export.iterdir()) == sorted(
            f"{i}_{tag}_mag.csv" for i in ids for tag in ("noisy", "enhanced"))

    def test_csv_quotes_ids(self, tmp_path):
        manifest = write_manifest(tmp_path, n_pairs=1)
        os.rename(tmp_path / "noisy0.wav", tmp_path / "n,x.wav")
        manifest.write_text(manifest.read_text().replace("noisy0.wav", "n,x.wav"))
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--ones-mask"]) == 0
        with out_csv.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [4, 4]
        assert rows[1][0] == "n,x"

    def test_failed_spectrogram_export_keeps_previous_dump(self, tmp_path, monkeypatch):
        manifest = write_manifest(tmp_path, n_pairs=1)
        export = tmp_path / "specs"
        export.mkdir()
        (export / "noisy0_noisy_mag.csv").write_bytes(b"1.0,2.0\n")

        def half_then_fail(fname, *args, **kwargs):
            if isinstance(fname, (str, os.PathLike)):
                with open(fname, "w") as fh:
                    fh.write("0.1,")
            else:
                fname.write("0.1,")
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(np, "savetxt", half_then_fail)
        assert main(["eval", "--manifest", str(manifest), "--out",
                     str(tmp_path / "metrics.csv"), "--ones-mask",
                     "--export-spectrogram", str(export)]) == 2
        assert (export / "noisy0_noisy_mag.csv").read_bytes() == b"1.0,2.0\n"
        assert sorted(p.name for p in export.iterdir()) == ["noisy0_noisy_mag.csv"]

    def test_non_finite_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = nan_checkpoint(tmp_path)
        manifest = write_manifest(tmp_path)
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", "--manifest", str(manifest), "--out", str(out_csv),
                     "--checkpoint", str(ckpt)]) == 2
        assert "lifting/stage1/conv0/weight" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("threads", ["abc", "-1"])
    def test_bad_thread_count_exits_2_before_any_pair(self, tmp_path, capsys, monkeypatch,
                                                      threads):
        def no_read(*args):
            raise AssertionError("a pair was read")

        monkeypatch.setattr(cli, "read_manifest", no_read)
        monkeypatch.setattr(cli, "read_pair", no_read)
        monkeypatch.setenv("LIFTBANK_THREADS", threads)
        out_csv = tmp_path / "metrics.csv"
        assert main(["eval", "--manifest", str(tmp_path / "pairs.tsv"),
                     "--out", str(out_csv)]) == 2
        assert capsys.readouterr().err == (
            f"error: LIFTBANK_THREADS must be an integer >= 0, got {threads!r}\n")
        assert not out_csv.exists()

    def test_empty_manifest_exits_2(self, tmp_path):
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("# nothing here\n")
        assert main(["eval", "--manifest", str(manifest),
                     "--out", str(tmp_path / "m.csv")]) == 2
