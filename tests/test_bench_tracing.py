"""The benchmark's tracer still fits the package it wraps.

perfbench/tracing.py patches liftbank attributes by name (``forward``,
``enc_convs``, ``kernel``, ...) and reads call arguments by position.
Instrumenting the benchmark's own pipeline configs and running one short
enhancement and one training step here makes a rename or a signature change
fail this suite, not a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

from liftbank import audio_data, cli, optim  # noqa: E402
from liftbank.numerics import Rng  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracer_instruments_benchmark_pipeline(name, tmp_path):
    cfg = workloads.WORKLOADS[name](0, tmp_path, None).cfg
    build = cli.build_pipeline
    pipeline = build(cfg)
    tracer = tracing.Tracer()
    tracer.instrument_modules()
    try:
        built = cli.build_pipeline(cfg)
        assert "enhance" in vars(built)
        tracer.instrument_pipeline(pipeline)
        tracer.begin("test.enhance", "op")
        s_hat, _ = pipeline.enhance(Rng(1).normal((2048,)))
    finally:
        tracer.restore()
    assert s_hat.shape == (2048,)
    assert cli.build_pipeline is build and "enhance" not in vars(pipeline)

    names = {span["name"] for span in tracer.spans}
    assert "masking.pipeline.enhance" in names
    if pipeline.transform is not None:
        assert {"lifting.stage%d.predictor_fwd" % j for j in tracing.STAGES} <= names
    else:
        assert {"stft.stft_forward", "stft.istft"} <= names
    if pipeline.estimator is not None:
        # the top decoder stage runs the 1x1 head inside its own row-block
        # pass (its span covers it), so inference opens no head span
        assert set(tracing.ESTIMATOR_CONVS) - {"layers.conv2d.head"} <= names
        assert "layers.conv2d.head" not in names
    metrics, _ = tracing.layer_metrics(tracer.spans, 50.0, 10.0)
    assert set(metrics) <= {metric for metric, _, _ in tracing.per_layer_metrics()}


def test_tracer_spans_one_training_step(tmp_path):
    """One traced step on the training workload's config opens every span its
    metrics read; the predictor-backward wrappers size their work from
    ``CouplingBlock.backward``'s second argument, the output gradient."""
    cfg = dict(workloads.WORKLOADS["train_lifting_binary"](0, tmp_path, None).cfg,
               **{"train.max_steps": 1})
    dataset = audio_data.synth_dataset(3, 2, 0.1, 0.0, 10.0, workloads.SAMPLE_RATE)
    tracer = tracing.Tracer()
    tracer.instrument_modules()
    try:
        pipeline = cli.build_pipeline(cfg)
        tracer.begin("test.train", "op")
        history = optim.train(pipeline, dataset, cli.build_train_config(cfg))
    finally:
        tracer.restore()
    assert history.steps == 1

    names = {span["name"] for span in tracer.spans}
    assert {"lifting.stage%d.predictor_bwd" % j for j in tracing.STAGES} <= names
    assert {"lifting.forward_vjp", "lifting.inverse_vjp"} <= names
    metrics, _ = tracing.layer_metrics(tracer.spans, 50.0, 10.0)
    assert set(metrics) <= {metric for metric, _, _ in tracing.per_layer_metrics()}
    assert all(metrics["lifting.stage%d.predictor_bwd.gflops" % j] > 0
               for j in tracing.STAGES)
