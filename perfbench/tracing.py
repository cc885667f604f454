"""Span tracing of liftbank from outside the program, and the per-layer metrics.

The benchmark wraps calls into liftbank's modules (instance methods, and the
module-level names the program looks up at call time) with recording
wrappers, runs an operation, and puts every original back. Spans stay in
memory until the run ends; then they are written as JSON lines and the
per-layer metrics are derived from that file by ``layer_metrics``.

FLOP and byte counts are computed from the call's array shapes, not
measured: bytes are the compulsory float64 traffic (inputs, weights and
outputs read or written once).
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

LIFTING_CALLS = ("forward", "inverse", "forward_vjp", "inverse_vjp")
STAGES = range(1, 7)
ESTIMATOR_CONVS = (["layers.conv2d.enc%d" % i for i in range(3)]
                   + ["layers.deconv2d.dec%d" % i for i in range(3)]
                   + ["layers.conv2d.head"])
TIMED_CALLS = ("objective.sdr_loss_and_grad", "optim.adam_step",
               "audio_data.batch_iter", "masking.estimator.fwd",
               "audio_data.wav_read", "stft.stft_forward",
               "stft.log_magnitude_feature", "stft.istft", "objective.si_sdr",
               "checkpoint.save_checkpoint", "checkpoint.load_checkpoint")


def per_layer_metrics():
    """(name, unit, better) for every metric a traced run reports."""
    out = [("lifting.%s.ms" % c, "ms", "lower") for c in LIFTING_CALLS]
    for j in STAGES:
        for part in ("predictor_fwd", "predictor_bwd"):
            base = "lifting.stage%d.%s" % (j, part)
            out += [(base + ".ms", "ms", "lower"), (base + ".gflops", "GF/s", "higher"),
                    (base + ".roofline_frac", "ratio", "higher")]
    out.append(("lifting.reshape.self_ms", "ms", "lower"))
    out.append(("lifting.cache_mib", "MiB", "lower"))
    for name in ESTIMATOR_CONVS:
        out += [(name + ".ms", "ms", "lower"), (name + ".gflops", "GF/s", "higher"),
                (name + ".roofline_frac", "ratio", "higher")]
    out.append(("masking.cache_mib", "MiB", "lower"))
    out += [(name + ".ms", "ms", "lower") for name in TIMED_CALLS]
    out += [("cli.eval.concurrency", "ratio", "higher"),
            ("roofline.dgemm_gflops", "GF/s", "higher"),
            ("roofline.stream_gbps", "GB/s", "higher"),
            ("trace_overhead_pct", "%", "lower"),
            ("fail_ratio", "ratio", "lower")]
    return out


# ---------------------------------------------------------------------------
# shape-derived work counts
# ---------------------------------------------------------------------------

def _cache_bytes(obj):
    """Bytes of distinct array buffers reachable from a (nested) cache."""
    seen = {}
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            seen[id(item)] = item.nbytes
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
    return sum(seen.values())


def _predictor_work(block, shape, backward):
    _, batch, length = shape
    flops = nbytes = 0
    for conv in block.convs:
        cin, cout, k = conv.in_channels, conv.out_channels, conv.kernel_size
        act = batch * length
        weights = cin * cout * k
        if backward:
            # grad input and grad weight: two GEMMs the size of the forward one
            flops += 4 * weights * act
            nbytes += 8 * (cout * act + 2 * cin * act + 2 * weights)
        else:
            flops += 2 * weights * act
            nbytes += 8 * ((cin + cout) * act + weights)
    return {"flops": flops, "bytes": nbytes}


def _conv2d_work(conv, x, y, transposed):
    cin, h, w = x.shape[-3:]
    cout, ho, wo = y.shape[-3:]
    batch = int(np.prod(x.shape[:-3])) if x.ndim > 3 else 1
    kh, kw = conv.kernel
    positions = h * w if transposed else ho * wo
    flops = 2 * batch * cin * cout * kh * kw * positions
    return {"flops": flops, "bytes": 8 * (x.size + y.size + conv.weight.data.size)}


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Records spans around wrapped calls; undoes every wrap on ``restore``.

    A span is a dict with id, name, start, end (seconds since the tracer was
    made), parent (id or None), op (label of the step, file or call it
    belongs to) and thread, plus optional work counts. Spans started in a
    worker thread with nothing open in that thread take the current
    operation's root span as their parent.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._root = None
        self._open = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []
        self._t0 = time.perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ----------------------------------------------------------------

    def record(self, name, fn, args=(), kwargs=None, measure=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
        span = {"id": sid, "name": name, "start": start - self._t0,
                "end": end - self._t0, "parent": parent, "op": self.op,
                "thread": threading.get_ident()}
        if measure is not None:
            span.update(measure(args, result))
        self.spans.append(span)
        return result

    def begin(self, name, op):
        """Close the open root span, if any, and open a new one for ``op``."""
        self.end()
        self._open = (next(self._ids), name, op, time.perf_counter())
        self._root, self.op = self._open[0], op

    def end(self):
        if self._open is None:
            return
        sid, name, op, start = self._open
        self.spans.append({"id": sid, "name": name, "start": start - self._t0,
                           "end": time.perf_counter() - self._t0, "parent": None,
                           "op": op, "thread": threading.get_ident()})
        self._open = self._root = self.op = None

    # -- wrapping -------------------------------------------------------------

    def patch(self, owner, attr, name, measure=None):
        """Replace ``owner.attr`` with a recording wrapper until ``restore``."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.record(name, fn, args, kwargs, measure)
        self._replace(owner, attr, traced)

    def patch_iter(self, owner, attr, name):
        """Like ``patch`` for a generator function: one span per item."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = self.record(name, next, (gen,))
                except StopIteration:
                    return
                yield item
        self._replace(owner, attr, traced)

    def _replace(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self):
        self.end()
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def instrument_modules(self):
        """Wrap the module-level names that liftbank resolves at call time."""
        from liftbank import cli, masking, optim
        self.patch(optim, "sdr_loss_and_grad", "objective.sdr_loss_and_grad")
        self.patch_iter(optim, "batch_iter", "audio_data.batch_iter")
        self.patch(optim.Adam, "step", "optim.adam_step")
        self.patch(cli, "wav_read", "audio_data.wav_read")
        self.patch(cli, "si_sdr", "objective.si_sdr")
        self.patch(cli, "load_checkpoint", "checkpoint.load_checkpoint")
        self.patch(masking, "stft_forward", "stft.stft_forward")
        self.patch(masking, "log_magnitude_feature", "stft.log_magnitude_feature")
        self.patch(masking, "istft", "stft.istft")
        build = cli.build_pipeline

        def build_instrumented(*args, **kwargs):
            pipeline = build(*args, **kwargs)
            self.instrument_pipeline(pipeline)
            return pipeline
        self._replace(cli, "build_pipeline", build_instrumented)

    def instrument_pipeline(self, pipeline):
        """Wrap the methods of one EnhancementPipeline and its parts."""
        self.patch(pipeline, "enhance", "masking.pipeline.enhance")
        transform = pipeline.transform
        if transform is not None:
            cache = lambda args, result: {"cache_bytes": _cache_bytes(result[1])}
            self.patch(transform, "forward_with_cache", "lifting.forward", cache)
            self.patch(transform, "inverse_with_cache", "lifting.inverse", cache)
            self.patch(transform, "forward_vjp", "lifting.forward_vjp")
            self.patch(transform, "inverse_vjp", "lifting.inverse_vjp")
            for j, block in enumerate(transform.blocks, start=1):
                self.patch(block, "forward", "lifting.stage%d.predictor_fwd" % j,
                           lambda args, result, b=block:
                           _predictor_work(b, args[0].shape, False))
                self.patch(block, "backward", "lifting.stage%d.predictor_bwd" % j,
                           lambda args, result, b=block:
                           _predictor_work(b, args[1].shape, True))
        estimator = pipeline.estimator
        if estimator is not None:
            self.patch(estimator, "forward_with_cache", "masking.estimator.fwd",
                       lambda args, result: {"cache_bytes": _cache_bytes(result[1])})
            convs = ([(c, False) for c in estimator.enc_convs]
                     + [(c, True) for c in estimator.dec_convs]
                     + [(estimator.head, False)])
            for name, (conv, transposed) in zip(ESTIMATOR_CONVS, convs):
                self.patch(conv, "forward", name,
                           lambda args, result, c=conv, t=transposed:
                           _conv2d_work(c, np.asarray(args[0]), result[0], t))

    # -- output ---------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# per-layer metrics from a span file
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, dgemm_gflops, stream_gbps):
    """Per-layer medians per call, plus per-layer detail for the record.

    Spans of the set-up count only for the checkpoint layers, whose work in
    the enhance workload happens there. A layer that did no work in this
    workload reports 0 for each of its metrics; its call count in the detail
    is 0 too.
    """
    by_name = defaultdict(list)
    children = defaultdict(float)
    for s in spans:
        # set-up runs shorter warm-up inputs; only its checkpoint I/O is kept
        if str(s["op"]).startswith("setup") and not s["name"].startswith("checkpoint."):
            continue
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]

    def ms(name):
        return _median([1e3 * (s["end"] - s["start"]) for s in by_name[name]])

    metrics, detail = {}, {}

    def rate_metrics(name):
        calls = [s for s in by_name[name] if s["end"] > s["start"]]
        gflops = _median([s["flops"] / (s["end"] - s["start"]) / 1e9 for s in calls])
        opb = _median([s["flops"] / s["bytes"] for s in calls])
        metrics[name + ".ms"] = ms(name)
        metrics[name + ".gflops"] = gflops
        attainable = min(dgemm_gflops, opb * stream_gbps)
        metrics[name + ".roofline_frac"] = gflops / attainable if calls else 0.0
        detail[name] = {"calls": len(calls), "ops_per_byte_computed": opb,
                        "gflop_per_call": _median([s["flops"] / 1e9 for s in calls]),
                        "mib_per_call_computed": _median([s["bytes"] / 2**20
                                                          for s in calls])}

    for c in LIFTING_CALLS:
        metrics["lifting.%s.ms" % c] = ms("lifting." + c)
    for j in STAGES:
        for part in ("predictor_fwd", "predictor_bwd"):
            rate_metrics("lifting.stage%d.%s" % (j, part))
    lifting = [s for c in LIFTING_CALLS for s in by_name["lifting." + c]]
    metrics["lifting.reshape.self_ms"] = _median(
        [1e3 * (s["end"] - s["start"] - children[s["id"]]) for s in lifting])
    per_op = defaultdict(int)
    for name in ("lifting.forward", "lifting.inverse"):
        for s in by_name[name]:
            per_op[s["op"]] += s["cache_bytes"]
    metrics["lifting.cache_mib"] = _median([b / 2**20 for b in per_op.values()])
    for name in ESTIMATOR_CONVS:
        rate_metrics(name)
    metrics["masking.cache_mib"] = _median(
        [s["cache_bytes"] / 2**20 for s in by_name["masking.estimator.fwd"]])
    for name in TIMED_CALLS:
        metrics[name + ".ms"] = ms(name)
        detail[name] = {"calls": len(by_name[name])}

    enhance_time = defaultdict(float)
    threads = defaultdict(set)
    for s in by_name["masking.pipeline.enhance"]:
        enhance_time[s["op"]] += s["end"] - s["start"]
        threads[s["op"]].add(s["thread"])
    calls = by_name["eval.call"]
    metrics["cli.eval.concurrency"] = _median(
        [enhance_time[s["op"]] / (s["end"] - s["start"]) for s in calls])
    detail["cli.eval"] = {"calls": len(calls), "worker_threads_seen": max(
        [len(threads[s["op"]]) for s in calls], default=0)}
    return metrics, detail
