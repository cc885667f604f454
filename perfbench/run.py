#!/usr/bin/env python3
"""liftbank benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``. The run sets up the workload SETUP_REPS times (setup_s
is their median), then runs operations in a closed loop with one caller for
S seconds and checks every output against ``reference.json``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` traces every
other operation, writes the spans, and reports the per-layer metrics derived
from them plus the traced/untraced time ratio. Each run also writes a record
with provenance next to ``BENCHMARK.json``: ``BENCH_RUN_<workload>.json``
(untraced) or ``BENCH_RUN_<workload>.trace.json`` plus
``BENCH_RUN_<workload>.spans.jsonl`` (traced). The last line of standard
output is {"correct", "attempted", "failed", "metrics"}.
"""

import os

# One BLAS thread and one eval worker: steadier than the defaults of one per
# core on a shared 2-core machine, where concurrent threads measure the
# scheduler, and the same on both sides of every comparison. Must be set
# before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
EVAL_THREADS = "1"
os.environ["LIFTBANK_THREADS"] = EVAL_THREADS


def _single_malloc_arena():
    """Make every thread allocate from glibc's main arena.

    With per-thread arenas the eval worker's memory lands in whichever arena
    it is handed, and the process's peak RSS jumps by tens of MiB at random
    calls; with one arena the peak follows what the program holds. Call
    before any thread starts. Returns whether the setting took.
    """
    try:
        import ctypes
        return ctypes.CDLL(None).mallopt(-8, 1) == 1     # M_ARENA_MAX
    except (OSError, AttributeError):
        return False


MALLOC_ARENA_MAX_1 = _single_malloc_arena()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
CONFIRM_SEED = 7741      # kept out of tuning; use it to confirm a later claim
EXIT_NO_PROGRAM = 2
WORKLOAD_NAMES = ("train_lifting_binary", "enhance_lifting_estimator",
                  "eval_stft_estimator")


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def provenance(np):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "LIFTBANK_THREADS": os.environ.get("LIFTBANK_THREADS"),
        "malloc_arena_max_1": MALLOC_ARENA_MAX_1,
    }


def measure_roofline(np):
    """In-run peaks: 512^3 float64 dgemm rate and a 32 MiB copy bandwidth.

    The fastest of many repeats estimates what the machine can reach, which
    is what a roofline needs; a median would fold in interference.
    """
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 512, 512))
    c = np.empty((512, 512))
    src = np.ones(4 * 2**20)
    dst = np.empty_like(src)

    def fastest(fn, repeats):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best
    dgemm = fastest(lambda: np.matmul(a, b, out=c), 100)
    copy = fastest(lambda: np.copyto(dst, src), 30)
    return {"dgemm_gflops": 2 * 512**3 / dgemm / 1e9,
            "stream_gbps": 2 * src.nbytes / copy / 1e9}


def run(args):
    if not (ROOT / "src" / "liftbank" / "__init__.py").is_file():
        print("error: no liftbank source under %s" % (ROOT / "src"), file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(ROOT / "src"))
    import liftbank
    if Path(liftbank.__file__).resolve().parent != ROOT / "src" / "liftbank":
        print("error: imported liftbank from %s" % liftbank.__file__, file=sys.stderr)
        return EXIT_NO_PROGRAM
    from workloads import WORKLOADS

    reference = json.loads((HERE / "reference.json").read_text())
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, WORKLOADS[args.workload](args.seed, work, reference))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, workload):
    import numpy as np
    import tracing
    tracer = tracing.Tracer() if args.trace else None
    roof = measure_roofline(np)
    setup_s = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        if tracer:
            tracer.begin("setup", "setup%d" % rep)
        workload.setup(tracer)
        setup_s.append(time.perf_counter() - start)

    samples = {False: [], True: []}
    wall = audio = 0.0
    attempted = failed = ops = 0
    failures = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        traced = bool(tracer) and ops % 2 == 1
        attempted += workload.op_attempts
        try:
            op = workload.run_op(ops, tracer if traced else None)
        except Exception:
            failed += workload.op_attempts
            failures.append(traceback.format_exc(limit=4))
        else:
            failed += min(op.failed, workload.op_attempts)
            failures.extend(op.failures)
            if not op.failures:
                samples[traced].extend(op.samples_ms)
                if not traced:
                    wall += op.wall_s
                    audio += op.audio_s
        ops += 1
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = samples[False]
    record = {
        "workload": workload.name, "seed": args.seed, "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(np), "roofline": roof,
        "setup_reps": SETUP_REPS, "setup_s_each": setup_s,
        "operations": ops, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "load": "closed loop, one caller, one process",
        "samples": len(plain), "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": (len(plain) - math.ceil(workload.tail_pct / 100.0 * len(plain))
                                if plain else 0),
    }
    correct = failed == 0 and bool(plain)
    if args.trace:
        spans_path = ROOT / ("BENCH_RUN_%s.spans.jsonl" % workload.name)
        tracer.write(spans_path)
        layers, detail = tracing.layer_metrics(tracing.load_spans(spans_path),
                                             roof["dgemm_gflops"], roof["stream_gbps"])
        layers["roofline.dgemm_gflops"] = roof["dgemm_gflops"]
        layers["roofline.stream_gbps"] = roof["stream_gbps"]
        traced_ms = samples[True]
        layers["trace_overhead_pct"] = (
            100.0 * (statistics.median(traced_ms) / statistics.median(plain) - 1.0)
            if plain and traced_ms else 0.0)
        layers["fail_ratio"] = record["fail_ratio"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.per_layer_metrics()}
        record.update(spans_file=spans_path.name, traced_samples=len(traced_ms),
                      layer_detail=detail,
                      bytes_note="FLOPs and bytes computed from call shapes, "
                                 "compulsory float64 traffic; not measured")
        out = ROOT / ("BENCH_RUN_%s.trace.json" % workload.name)
    else:
        p50 = statistics.median(plain) if plain else float("nan")
        tail = percentile(plain, workload.tail_pct) if plain else float("nan")
        rate = audio / wall if wall else float("nan")
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_mib": {"value": peak_mib, "unit": "MiB"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "op_ms_tail": {"value": tail, "unit": "ms"},
            "audio_s_per_s": {"value": rate, "unit": "s/s"},
        }
        record["peak_method"] = ("ru_maxrss of this process, which runs only this "
                                 "workload; read once after the timed loop")
        record["workload_metrics"] = workload.named_metrics(p50, tail, rate)
        out = ROOT / ("BENCH_RUN_%s.json" % workload.name)
    record["metrics"] = metrics
    out.write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
