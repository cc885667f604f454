#!/usr/bin/env python3
"""Write reference.json: the outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py

Runs each workload's operation once on every item of its input pool and
stores the observed outputs with the tolerances the checks use. Run it only
at a commit whose outputs are taken as correct; the stored file is what
later commits are compared with.
"""

import json
import shutil
import sys

import run

TOLERANCES = {
    # relative: summation-order changes move the 12-step loss far less than this
    "train": {"loss_rel_tol": 1e-6, "round_trip_tol": 1e-9},
    "enhance": {"si_sdr_tol_db": 1e-6},
    # the eval CSV rounds to 1e-6 dB
    "eval": {"si_sdr_tol_db": 1e-5},
}


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads as w

    reference = {key: dict(tol) for key, tol in TOLERANCES.items()}
    reference["train"]["loss"] = {}
    reference["enhance"]["si_sdr_out"] = {}
    reference["eval"]["si_sdr"] = {}
    work = run.HERE / "_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for i in range(w.TRAIN_POOL):
            train = w.TrainLiftingBinary(0, work, reference)
            train.pool_index = i
            train.setup()
            reference["train"]["loss"].update(train.run_op(0).observed)
            print("train dataset", i, reference["train"]["loss"][str(i)], flush=True)
        enhance = w.EnhanceLiftingEstimator(0, work, reference)
        enhance.order = list(range(w.ENHANCE_POOL))
        enhance.setup()
        for n in range(w.ENHANCE_POOL):
            reference["enhance"]["si_sdr_out"].update(enhance.run_op(n).observed)
        evaluate = w.EvalStftEstimator(0, work, reference)
        evaluate.order = list(range(w.EVAL_POOL))
        evaluate.setup()
        op = evaluate.run_op(0)
        if op.failures:
            raise RuntimeError(op.failures)
        reference["eval"]["si_sdr"] = op.observed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for part in ("enhance", "eval"):
        key = "si_sdr_out" if part == "enhance" else "si_sdr"
        reference[part][key] = dict(sorted(reference[part][key].items(),
                                           key=lambda kv: int(kv[0])))
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
