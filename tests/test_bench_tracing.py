"""The benchmark's tracer still fits the package it wraps.

perfbench/tracing.py patches liftbank attributes by name (``forward``,
``enc_convs``, ``kernel``, ...). Instrumenting the benchmark's own pipeline
configs and running one short enhancement here makes a rename fail this
suite, not a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

from liftbank import cli  # noqa: E402
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
        assert set(tracing.ESTIMATOR_CONVS) <= names
    metrics, _ = tracing.layer_metrics(tracer.spans, 50.0, 10.0)
    assert set(metrics) <= {metric for metric, _, _ in tracing.per_layer_metrics()}
