"""The benchmark's own operations and checks, on its fixed warm-up inputs,
and the names its tracer rebinds.

`bench/run.py` only reports a broken check when a benchmark runs; this runs
each workload's warm-up operations through the same checks in the suite.
"""

import importlib.util
import pathlib
import sys

import pytest

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, _BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


workloads = _load("bench_workloads", "workloads.py")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warmup_operations_pass_their_checks(name):
    wl = workloads.warmup(name)
    outputs = [op.run() for op in wl.ops]
    for op, out in zip(wl.ops, outputs):
        op.check(out)
    wl.round_check(outputs)


def test_traced_names_resolve():
    """`bench/run.py --trace 1` rebinds every (owner, name) in TARGETS, so a
    name dropped from the package would only fail there.  Loading the module
    installs no wrapper."""
    tracing = _load("bench_tracing", "tracing.py")
    missing = [(getattr(owner, "__name__", owner), name)
               for targets in tracing.TARGETS.values() for owner, name in targets
               if not hasattr(owner, name)]
    assert not missing
