"""Command-line front end: train, enhance, check, eval.

Configuration is a flat key=value text file ("#" starts a comment); unknown
keys are rejected and every value is validated before any work starts. Exit
codes: 0 success, 1 property or metric failure, 2 usage/config error or
out of memory, 3 runtime divergence. LIFTBANK_THREADS caps eval parallelism.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import masking, verify
from .audio_data import (check_sample_rate, load_manifest_triples, read_manifest,
                         read_pair, synth_dataset, wav_read, wav_write, WavClip)
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .lifting import LiftingConfig, LiftingTransform
from .masking import EnhancementPipeline, MaskEstimator
from .numerics import Rng
from .objective import LossConfig, MetricReport, si_sdr
from .optim import TrainConfig, TrainingDiverged, prepare, train
from .stft import StftConfig, stft_forward

__all__ = ["main", "entry", "ConfigError", "load_config"]

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class ConfigError(ValueError):
    pass


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int_list(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_choice(*options):
    def parse(text):
        if text not in options:
            raise ConfigError(f"expected one of {options}, got {text!r}")
        return text
    return parse


CONFIG_SCHEMA = {
    "seed": (int, 0),
    "pipeline.transform": (_parse_choice("lifting", "stft"), "lifting"),
    "pipeline.mask": (_parse_choice(*masking.MASK_SOURCES), "binary"),
    "lifting.stages": (int, 6),
    "lifting.base_channels": (int, 4),
    "lifting.block_kernels": (_parse_int_list, (3, 3)),
    "lifting.leaky_slope": (_parse_float, 0.2),
    "lifting.spectral_norm": (_parse_bool, False),
    "lifting.linear": (_parse_bool, False),
    "stft.window_length": (int, 512),
    "stft.hop": (int, 128),
    "stft.dft_length": (int, 512),
    "mask.depth": (int, 3),
    "mask.base_channels": (int, 16),
    "mask.norm": (_parse_choice(*masking.NORM_KINDS), "none"),
    "loss.beta_clip": (_parse_float, 20.0),
    "loss.eps": (_parse_float, 1e-8),
    "train.epochs": (int, 10),
    "train.batch_size": (int, 16),
    "train.lr": (_parse_float, 1e-4),
    "train.val_fraction": (_parse_float, 0.1),
    "train.trainable": (_parse_choice(*masking.PARAMETER_GROUPS), "transform"),
    "train.max_steps": (int, 0),
    "train.crop": (int, 16384),
    "data.kind": (_parse_choice("synthetic", "manifest"), "synthetic"),
    "data.manifest": (str, ""),
    "data.count": (int, 20),
    "data.duration": (_parse_float, 1.0),
    "data.snr_min": (_parse_float, 0.0),
    "data.snr_max": (_parse_float, 10.0),
    "data.sample_rate": (int, 16000),
    "out.dir": (str, "."),
}


def load_config(path=None):
    """Parse and validate a key=value config file; None gives the defaults."""
    values = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if path is None:
        return values
    text = Path(path).read_text()
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice, "
                              f"at lines {seen[key]} and {lineno}")
        seen[key] = lineno
        parser, _ = CONFIG_SCHEMA[key]
        try:
            values[key] = parser(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_lifting_config(cfg):
    return LiftingConfig(
        num_stages=cfg["lifting.stages"],
        base_channels=cfg["lifting.base_channels"],
        kernel_sizes=cfg["lifting.block_kernels"],
        leaky_slope=cfg["lifting.leaky_slope"],
        spectral_norm=cfg["lifting.spectral_norm"],
        linear_variant=cfg["lifting.linear"],
    )


def build_stft_config(cfg):
    return StftConfig(window_length=cfg["stft.window_length"],
                      hop=cfg["stft.hop"],
                      dft_length=cfg["stft.dft_length"])


def build_pipeline(cfg, mask_override=None):
    """The configured pipeline; ``mask_override`` replaces only its mask source,
    so the parameters, and which checkpoints load, stay the configured ones."""
    mask_source = mask_override or cfg["pipeline.mask"]
    if cfg["pipeline.transform"] == "stft" and mask_source == "binary":
        raise ConfigError("pipeline.mask = binary needs pipeline.transform = lifting "
                          "(the stft bins have no fixed channel partition)")
    rng = Rng(cfg["seed"])
    transform = stft_config = estimator = None
    if cfg["pipeline.transform"] == "lifting":
        transform = LiftingTransform(build_lifting_config(cfg), rng.fork())
    else:
        stft_config = build_stft_config(cfg)
    if cfg["pipeline.mask"] == "estimator":
        depth = cfg["mask.depth"]
        height = transform.config.merged_channels if transform else stft_config.n_bins
        if depth >= height.bit_length():      # a total stride 2**depth > height
            raise ConfigError(f"mask.depth = {depth}: the estimator's total stride "
                              f"2**{depth} exceeds the feature height {height}")
        estimator = MaskEstimator(depth=depth,
                                  base_channels=cfg["mask.base_channels"],
                                  norm=cfg["mask.norm"], rng=rng.fork())
    return EnhancementPipeline(transform=transform, stft_config=stft_config,
                               mask_source=mask_source,
                               estimator=estimator)


def build_dataset(cfg):
    if cfg["data.kind"] == "synthetic":
        if cfg["data.count"] < 1:
            raise ConfigError("data.count must be >= 1")
        return synth_dataset(cfg["seed"], cfg["data.count"], cfg["data.duration"],
                             cfg["data.snr_min"], cfg["data.snr_max"],
                             cfg["data.sample_rate"])
    if not cfg["data.manifest"]:
        raise ConfigError("data.kind=manifest needs data.manifest")
    triples, skipped = load_manifest_triples(cfg["data.manifest"], cfg["data.sample_rate"])
    for reason in skipped:
        print(f"warning: skipped {reason}", file=sys.stderr)
    if not triples:
        raise ConfigError("manifest produced no usable pairs")
    return triples


def build_train_config(cfg):
    return TrainConfig(
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch_size"],
        lr=cfg["train.lr"],
        seed=cfg["seed"],
        trainable=cfg["train.trainable"],
        val_fraction=cfg["train.val_fraction"],
        crop_len=cfg["train.crop"],
        max_steps=cfg["train.max_steps"],
        loss=LossConfig(beta_clip=cfg["loss.beta_clip"], eps=cfg["loss.eps"]),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args):
    cfg = load_config(args.config)
    train_cfg = build_train_config(cfg)
    pipeline = build_pipeline(cfg)
    dataset = build_dataset(cfg)
    prepare(pipeline, dataset, train_cfg)
    out_dir = Path(cfg["out.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    history = train(pipeline, dataset, train_cfg)

    log_path = out_dir / "training_log.csv"
    with atomic_write(log_path) as fh:
        fh.write("epoch,train_loss,val_loss,val_si_sdr_imp\n")
        for i, (tl, vl, vi) in enumerate(zip(history.train_loss, history.val_loss,
                                             history.val_improvement), start=1):
            fh.write(f"{i},{tl:.12g},{vl:.12g},{vi:.12g}\n")
    last_path = out_dir / "checkpoint_last.ckpt"
    best_path = out_dir / "checkpoint_best.ckpt"
    save_checkpoint(last_path, pipeline.state_dict())
    save_checkpoint(best_path, history.best_state or pipeline.state_dict())
    print(f"trained {history.steps} steps over {len(history.train_loss)} epochs")
    print(f"final train loss {history.train_loss[-1]:.6f}")
    if history.best_epoch >= 0:
        print(f"best validation loss {history.best_val_loss:.6f} "
              f"at epoch {history.best_epoch + 1}")
    print(f"wrote {log_path}, {last_path}, {best_path}")
    return EXIT_OK


def _load_pipeline(args):
    """Config and pipeline named by enhance/eval arguments, checkpoint loaded."""
    cfg = load_config(args.config)
    pipeline = build_pipeline(cfg, mask_override="ones" if args.ones_mask else None)
    if args.checkpoint:
        pipeline.load_state_dict(load_checkpoint(args.checkpoint))
    return cfg, pipeline


def _check_output_paths(*paths):
    """Exit 2 before any work unless each output path names a file in an
    existing directory, and no two name the same file."""
    paths = [Path(path) for path in paths if path]
    for path in paths:
        if path.is_dir() or not path.parent.is_dir():
            raise ConfigError(f"{path}: not a file path in an existing directory")
    if len({path.resolve() for path in paths}) < len(paths):
        raise ConfigError(f"{' and '.join(map(str, paths))}: two outputs name the same file")


def cmd_enhance(args):
    _check_output_paths(args.output, args.export_mask)
    cfg, pipeline = _load_pipeline(args)
    clip = wav_read(args.input)
    check_sample_rate(args.input, [clip.sample_rate], cfg["data.sample_rate"])
    s_hat, mask = (pipeline.enhance_with_mask(clip.samples) if args.export_mask
                   else (pipeline.enhance(clip.samples)[0], None))
    wav_write(WavClip(s_hat, clip.sample_rate), args.output)
    if args.export_mask:
        with atomic_write(args.export_mask) as fh:
            np.savetxt(fh, mask, delimiter=",")
        print(f"wrote mask {args.export_mask}")
    print(f"enhanced {args.input} -> {args.output} "
          f"({clip.samples.size} samples @ {clip.sample_rate} Hz)")
    return EXIT_OK


def cmd_check(args):
    if args.trials is not None and args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.trials is not None and args.kind != "pr":
        raise ConfigError(f"--trials applies to check pr only, not check {args.kind}")
    cfg = load_config(args.config)
    if args.kind == "pr":
        worst = verify.reconstruction_suite(build_lifting_config(cfg),
                                            trials=args.trials or 100, seed=cfg["seed"],
                                            corrupt=args.corrupt)
        tol = verify.PR_TOLERANCE
        print(f"pr: max abs round-trip error {worst:.3e} (tolerance {tol:g})")
    elif args.kind == "gradcheck":
        worst = verify.gradient_suite(seed=cfg["seed"], corrupt=args.corrupt)
        tol = verify.GRAD_TOLERANCE
        print(f"gradcheck: max relative error {worst:.3e} (tolerance {tol:g})")
    else:
        worst = verify.stft_reconstruction_suite(build_stft_config(cfg),
                                                 seed=cfg["seed"],
                                                 corrupt=args.corrupt)
        tol = verify.STFT_PR_TOLERANCE
        print(f"stft-pr: max abs round-trip error {worst:.3e} (tolerance {tol:g})")
    return EXIT_OK if worst <= tol else EXIT_PROPERTY_FAILURE


def _eval_one(pipeline, clean_path, noisy_path, name, oracle, export_dir, stft_cfg,
              sample_rate):
    """Score one pair: a MetricReport, or the reason the pair was skipped."""
    try:
        clean, noisy = read_pair(clean_path, noisy_path, sample_rate)
    except ValueError as exc:
        return str(exc)
    s_hat = clean if oracle else pipeline.enhance(noisy)[0]
    si_in = si_sdr(clean, noisy)
    si_out = si_sdr(clean, s_hat)
    report = MetricReport(utterance_id=name, si_sdr_in=si_in, si_sdr_out=si_out,
                          improvement=si_out - si_in)
    if export_dir:
        for tag, signal in (("noisy", noisy), ("enhanced", s_hat)):
            spec = stft_forward(signal, stft_cfg)
            with atomic_write(export_dir / f"{name}_{tag}_mag.csv") as fh:
                np.savetxt(fh, np.hypot(spec.real, spec.imag), delimiter=",")
    return report


def cmd_eval(args):
    threads = os.environ.get("LIFTBANK_THREADS", "0")
    try:
        workers = int(threads)
    except ValueError:
        workers = -1
    if workers < 0:
        raise ConfigError(f"LIFTBANK_THREADS must be an integer >= 0, got {threads!r}")
    workers = workers or min(4, os.cpu_count() or 1)
    _check_output_paths(args.out)
    cfg, pipeline = _load_pipeline(args)
    pairs = read_manifest(args.manifest)
    if not pairs:
        raise ConfigError(f"{args.manifest}: empty manifest")
    stft_cfg = pipeline.stft_config or build_stft_config(cfg)
    export_dir = args.export_spectrogram and Path(args.export_spectrogram)
    if export_dir:
        dumps = {(export_dir / f"{name}_{tag}_mag.csv").resolve()
                 for *_, name in pairs for tag in ("noisy", "enhanced")}
        if Path(args.out).resolve() in dumps:
            raise ConfigError(f"{args.out}: --out names a spectrogram dump that "
                              f"--export-spectrogram {export_dir} will write")
        export_dir.mkdir(parents=True, exist_ok=True)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(
            lambda pair: _eval_one(pipeline, *pair, args.oracle, export_dir, stft_cfg,
                                   cfg["data.sample_rate"]),
            pairs))

    reports = [r for r in results if isinstance(r, MetricReport)]
    skipped = [r for r in results if not isinstance(r, MetricReport)]
    for reason in skipped:
        print(f"warning: skipped {reason}", file=sys.stderr)
    with atomic_write(args.out) as fh:
        fh.write(MetricReport.CSV_HEADER + "\n")
        for report in reports:
            fh.write(report.csv_row() + "\n")
    if reports:
        mean_in = float(np.mean([r.si_sdr_in for r in reports]))
        mean_out = float(np.mean([r.si_sdr_out for r in reports]))
        mean_imp = float(np.mean([r.improvement for r in reports]))
        print(f"utterances: {len(reports)}")
        print(f"mean SI-SDR in:  {mean_in:.2f} dB")
        print(f"mean SI-SDR out: {mean_out:.2f} dB")
        print(f"mean improvement: {mean_imp:.2f} dB")
    print(f"wrote {args.out}")
    return EXIT_PROPERTY_FAILURE if skipped else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liftbank",
        description="Trainable invertible filterbank speech enhancement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a pipeline from a config file")
    p_train.add_argument("config", help="key=value config file")

    p_enh = sub.add_parser("enhance", help="enhance one WAV file")
    p_enh.add_argument("input")
    p_enh.add_argument("output")
    p_enh.add_argument("--config", default=None)
    p_enh.add_argument("--checkpoint", default=None)
    p_enh.add_argument("--ones-mask", action="store_true",
                       help="debug: force an all-ones mask (identity pipeline)")
    p_enh.add_argument("--export-mask", default=None,
                       help="write the applied mask as CSV")

    p_chk = sub.add_parser("check", help="run a property suite")
    p_chk.add_argument("kind", choices=("pr", "gradcheck", "stft-pr"))
    p_chk.add_argument("--config", default=None)
    p_chk.add_argument("--trials", type=int, default=None,
                       help="check pr only: random transforms to test (default 100)")
    p_chk.add_argument("--corrupt", action="store_true",
                       help="negative control: inject a fault, suite must fail")

    p_eval = sub.add_parser("eval", help="evaluate over a manifest of pairs")
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--ones-mask", action="store_true")
    p_eval.add_argument("--oracle", action="store_true",
                        help="debug: score the clean reference as the estimate")
    p_eval.add_argument("--export-spectrogram", default=None,
                        help="directory for magnitude CSV dumps")
    return parser


_COMMANDS = {
    "train": cmd_train,
    "enhance": cmd_enhance,
    "check": cmd_check,
    "eval": cmd_eval,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
