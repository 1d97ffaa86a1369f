"""The benchmark's own operations and checks, on its fixed warm-up inputs.

`bench/run.py` only reports a broken check when a benchmark runs; this runs
each workload's warm-up operations through the same checks in the suite.
"""

import importlib.util
import pathlib
import sys

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads     # its dataclasses look the module up
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warmup_operations_pass_their_checks(name):
    wl = workloads.warmup(name)
    outputs = [op.run() for op in wl.ops]
    for op, out in zip(wl.ops, outputs):
        op.check(out)
    wl.round_check(outputs)
