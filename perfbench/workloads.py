"""The benchmark's three workloads: set-up, one timed operation, output checks.

Inputs come from fixed pools of seeded synthetic signals; the workload seed
only picks which pool items a run uses, so every input has a reference
output recorded in ``reference.json`` (written by ``make_reference.py``).

- train_lifting_binary: one operation is a training run of TRAIN_STEPS steps
  from a freshly built pipeline, ending with save_checkpoint. Samples are
  the training steps, timed by one clock read per step.
- enhance_lifting_estimator: one operation is EnhancementPipeline.enhance on
  one 10 s mixture. Samples are the files.
- eval_stft_estimator: one operation is ``liftbank eval`` (cli.main) over a
  manifest of EVAL_FILES 4 s WAV pairs. Samples are the calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from liftbank import audio_data, checkpoint, cli, optim
from liftbank.numerics import Rng

SAMPLE_RATE = 16000
MODEL_SEED = 7           # pipeline initialisation, as in the acceptance configs
HEAD_SEED = 20191124     # the estimator head's non-trivial weights

TRAIN_POOL = 16          # datasets of 200 x 1 s
TRAIN_STEPS = 12         # full batches of epoch 0 (200 clips / 16 per batch)
WARMUP_STEPS = 2
ENHANCE_POOL = 32        # 10 s mixtures
ENHANCE_FILES = 8
ENHANCE_SECONDS = 10.0
EVAL_POOL = 48           # 4 s WAV pairs
EVAL_FILES = 3
EVAL_SECONDS = 4.0


@dataclass
class Op:
    samples_ms: list
    wall_s: float
    audio_s: float
    failures: list = field(default_factory=list)
    failed: int = 0
    observed: dict = field(default_factory=dict)

    def fail(self, message, count=1):
        self.failures.append(message)
        self.failed += count


def _config(overrides):
    cfg = cli.load_config(None)
    cfg.update(overrides)
    return cfg


def _call(tracer, name, fn, *args):
    return tracer.record(name, fn, args) if tracer else fn(*args)


@contextlib.contextmanager
def _tracing(tracer):
    if tracer is None:
        yield
        return
    tracer.instrument_modules()
    try:
        yield
    finally:
        tracer.restore()


def si_sdr_db(clean, estimate):
    """Scale-invariant SDR, computed here so the check does not use the program."""
    gamma = float(clean @ estimate) / float(clean @ clean)
    err = gamma * clean - estimate
    return 10.0 * math.log10(gamma * gamma * float(clean @ clean) / float(err @ err))


def _mixture(pool_base, index, duration_s):
    triple = audio_data.synth_mixture(Rng(pool_base + index), duration_s,
                                      float(index % 11), SAMPLE_RATE)
    return triple.clean, triple.mixture


def _estimator_checkpoint(cfg, path, tracer):
    """Write the pipeline's state with seeded, non-zero estimator head weights.

    The estimator's head is zero at initialisation, which gives a flat 0.5
    mask and output SI-SDR equal to input SI-SDR; a real head makes the
    output depend on every estimator layer.
    """
    state = cli.build_pipeline(cfg).state_dict()
    rnd = random.Random(HEAD_SEED)
    for name in ("mask/head/weight", "mask/head/bias"):
        state[name] = np.array([rnd.uniform(-1.0, 1.0) for _ in range(state[name].size)]
                               ).reshape(state[name].shape)
    _call(tracer, "checkpoint.save_checkpoint", checkpoint.save_checkpoint, path, state)


class Workload:
    name = ""
    tail_pct = 90
    op_attempts = 1      # checked outputs per operation

    def __init__(self, seed, work_dir, reference):
        self.seed = seed
        self.work = work_dir
        self.reference = reference

    def named_metrics(self, p50_ms, tail_ms, audio_s_per_s):
        """The end-to-end figures under this workload's own names."""
        raise NotImplementedError


class TrainLiftingBinary(Workload):
    name = "train_lifting_binary"
    tail_pct = 90

    def __init__(self, *args):
        super().__init__(*args)
        self.pool_index = random.Random(self.seed).randrange(TRAIN_POOL)
        self.cfg = _config({"seed": MODEL_SEED, "pipeline.transform": "lifting",
                            "pipeline.mask": "binary", "lifting.stages": 6,
                            "lifting.base_channels": 4, "train.batch_size": 16,
                            "train.crop": 4096, "train.val_fraction": 0.0,
                            "train.trainable": "transform", "train.epochs": 1,
                            "train.max_steps": TRAIN_STEPS})
        self.train_cfg = cli.build_train_config(self.cfg)
        self.ckpt = str(self.work / "train.ckpt")

    def setup(self, tracer=None):
        self.dataset = None      # free the previous set-up's data first
        with _tracing(tracer):
            self.dataset = audio_data.synth_dataset(1000 + self.pool_index, 200, 1.0,
                                                    0.0, 10.0, SAMPLE_RATE)
            self.probe = self.dataset[0].mixture
            pipeline = cli.build_pipeline(self.cfg)
            warm = cli.build_train_config(dict(self.cfg, **{"train.max_steps": WARMUP_STEPS}))
            optim.train(pipeline, self.dataset, warm)
            _call(tracer, "checkpoint.save_checkpoint", checkpoint.save_checkpoint,
                  self.ckpt, pipeline.state_dict())

    def run_op(self, n, tracer=None):
        marks = []
        start = time.perf_counter()
        with _tracing(tracer):
            if tracer:
                tracer.begin("train.run", "r%d" % n)
            pipeline = cli.build_pipeline(self.cfg)
            zero_grad = pipeline.zero_grad

            def step_clock():
                marks.append(time.perf_counter())
                if tracer:
                    tracer.begin("train.step", "r%d.s%d" % (n, len(marks)))
                zero_grad()
            pipeline.zero_grad = step_clock
            history = optim.train(pipeline, self.dataset, self.train_cfg)
            marks.append(time.perf_counter())
            if tracer:
                tracer.begin("train.save", "r%d" % n)
            _call(tracer, "checkpoint.save_checkpoint", checkpoint.save_checkpoint,
                  self.ckpt, pipeline.state_dict())
        wall = time.perf_counter() - start
        op = Op(list(1e3 * np.diff(marks)), wall,
                history.steps * self.train_cfg.batch_size * self.train_cfg.crop_len
                / SAMPLE_RATE)
        self._check(op, history, pipeline)
        return op

    def named_metrics(self, p50_ms, tail_ms, audio_s_per_s):
        return {"train_step_ms_p50": {"value": p50_ms, "unit": "ms"},
                "train_step_ms_tail": {"value": tail_ms, "unit": "ms",
                                       "percentile": self.tail_pct},
                "train_audio_s_per_s": {"value": audio_s_per_s, "unit": "s/s"}}

    def _check(self, op, history, pipeline):
        ref = self.reference["train"]
        loss = history.train_loss[-1]
        op.observed[str(self.pool_index)] = loss
        if history.steps != TRAIN_STEPS:
            op.fail("ran %d steps, expected %d" % (history.steps, TRAIN_STEPS))
        expected = ref["loss"].get(str(self.pool_index))
        if not math.isfinite(loss):
            op.fail("non-finite loss %r" % loss)
        elif expected is not None and abs(loss - expected) > ref["loss_rel_tol"] * abs(expected):
            op.fail("loss %.15g, reference %.15g" % (loss, expected))
        transform = pipeline.transform
        err = float(np.max(np.abs(transform.inverse(transform.forward(self.probe))
                                  - self.probe)))
        if not err <= ref["round_trip_tol"]:
            op.fail("round-trip error %.3e" % err)


class EnhanceLiftingEstimator(Workload):
    name = "enhance_lifting_estimator"
    tail_pct = 75

    def __init__(self, *args):
        super().__init__(*args)
        self.order = random.Random(self.seed).sample(range(ENHANCE_POOL), ENHANCE_FILES)
        self.cfg = _config({"seed": MODEL_SEED, "pipeline.transform": "lifting",
                            "pipeline.mask": "estimator"})
        self.ckpt = str(self.work / "enhance.ckpt")

    def setup(self, tracer=None):
        self.pipeline = self.files = None    # free the previous set-up's data first
        with _tracing(tracer):
            _estimator_checkpoint(self.cfg, self.ckpt, tracer)
            self.pipeline = cli.build_pipeline(self.cfg)
            self.pipeline.load_state_dict(_call(tracer, "checkpoint.load_checkpoint",
                                                checkpoint.load_checkpoint, self.ckpt))
            self.files = {i: _mixture(5000, i, ENHANCE_SECONDS) for i in self.order}
            self.pipeline.enhance(self.files[self.order[0]][1][:SAMPLE_RATE])

    def named_metrics(self, p50_ms, tail_ms, audio_s_per_s):
        seconds = 1e3 * ENHANCE_SECONDS
        return {"enhance_rtf_p50": {"value": p50_ms / seconds, "unit": "s/s"},
                "enhance_rtf_tail": {"value": tail_ms / seconds, "unit": "s/s",
                                     "percentile": self.tail_pct}}

    def run_op(self, n, tracer=None):
        index = self.order[n % len(self.order)]
        clean, mixture = self.files[index]
        with _tracing(tracer):
            if tracer:
                tracer.instrument_pipeline(self.pipeline)
                tracer.begin("enhance.file", "f%d" % n)
            start = time.perf_counter()
            s_hat, _ = self.pipeline.enhance(mixture)
            wall = time.perf_counter() - start
        op = Op([1e3 * wall], wall, mixture.size / SAMPLE_RATE)
        ref = self.reference["enhance"]
        if s_hat.shape != mixture.shape or not np.all(np.isfinite(s_hat)):
            op.fail("file %d: bad output shape or values" % index)
            return op
        value = si_sdr_db(clean, s_hat)
        op.observed[str(index)] = value
        expected = ref["si_sdr_out"].get(str(index))
        if expected is not None and not abs(value - expected) <= ref["si_sdr_tol_db"]:
            op.fail("file %d: SI-SDR %.9f dB, reference %.9f"
                               % (index, value, expected))
        return op


class EvalStftEstimator(Workload):
    name = "eval_stft_estimator"
    tail_pct = 60
    op_attempts = EVAL_FILES

    def __init__(self, *args):
        super().__init__(*args)
        self.order = random.Random(self.seed).sample(range(EVAL_POOL), EVAL_FILES)
        self.cfg = _config({"seed": MODEL_SEED, "pipeline.transform": "stft",
                            "pipeline.mask": "estimator"})
        self.ckpt = str(self.work / "eval.ckpt")
        self.config_path = self.work / "eval.cfg"
        self.manifest = self.work / "eval.tsv"
        self.csv = self.work / "eval.csv"

    def _argv(self, manifest):
        return ["eval", "--manifest", str(manifest), "--out", str(self.csv),
                "--config", str(self.config_path), "--checkpoint", self.ckpt]

    def setup(self, tracer=None):
        with _tracing(tracer):
            self.config_path.write_text("seed = %d\npipeline.transform = stft\n"
                                        "pipeline.mask = estimator\n" % MODEL_SEED)
            _estimator_checkpoint(self.cfg, self.ckpt, tracer)
            lines = []
            for i in self.order:
                pair = []
                for tag, signal in zip(("clean", "noisy"), _mixture(9000, i, EVAL_SECONDS)):
                    path = self.work / ("%s_%02d.wav" % (tag, i))
                    audio_data.wav_write(audio_data.WavClip(signal, SAMPLE_RATE), path)
                    pair.append(str(path))
                lines.append("\t".join(pair))
            self.manifest.write_text("\n".join(lines) + "\n")
            warm = self.work / "warm.tsv"
            warm.write_text(lines[0] + "\n")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self._argv(warm))
            if code != 0:
                raise RuntimeError("warm-up eval exited with %d" % code)

    def named_metrics(self, p50_ms, tail_ms, audio_s_per_s):
        return {"eval_utt_per_s": {"value": audio_s_per_s / EVAL_SECONDS, "unit": "1/s"}}

    def run_op(self, n, tracer=None):
        with _tracing(tracer), contextlib.redirect_stdout(io.StringIO()):
            if tracer:
                tracer.begin("eval.call", "c%d" % n)
            start = time.perf_counter()
            code = cli.main(self._argv(self.manifest))
            wall = time.perf_counter() - start
        op = Op([1e3 * wall], wall, len(self.order) * EVAL_SECONDS)
        if code != 0:
            op.fail("eval exited with %d" % code, len(self.order))
            return op
        rows = self.csv.read_text().splitlines()[1:]
        if len(rows) != len(self.order):
            op.fail("eval wrote %d rows, expected %d" % (len(rows), len(self.order)),
                    abs(len(self.order) - len(rows)))
        ref = self.reference["eval"]
        for row in rows:
            name, si_in, si_out, _ = row.split(",")
            index = str(int(name.rsplit("_", 1)[1]))
            op.observed[index] = [float(si_in), float(si_out)]
            expected = ref["si_sdr"].get(index)
            if expected is None:
                continue
            if not (abs(float(si_in) - expected[0]) <= ref["si_sdr_tol_db"]
                    and abs(float(si_out) - expected[1]) <= ref["si_sdr_tol_db"]):
                op.fail("%s: SI-SDR in/out %s/%s dB, reference %r"
                                   % (name, si_in, si_out, expected))
        return op


WORKLOADS = {w.name: w for w in (TrainLiftingBinary, EnhanceLiftingEstimator,
                                 EvalStftEstimator)}
