"""Every benchmark workload still produces its reference outputs.

perfbench/run.py counts an output that misses ``reference.json`` as a failed
operation. Setting each workload up once and running one operation here,
with the reference read and nothing written outside ``tmp_path``, makes a
change that moves those outputs fail this suite, not a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_matches_reference(name, tmp_path):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    workload = workloads.WORKLOADS[name](1, tmp_path, reference)
    workload.setup()
    op = workload.run_op(0)
    assert op.failures == [] and op.failed == 0
    assert op.observed and op.samples_ms
