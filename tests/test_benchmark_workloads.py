"""Every benchmark workload runs once and passes its own output checks.

``perfbench/workloads.py`` and ``perfbench/layertrace.py`` are loaded by file
path, as ``test_layertrace.py`` loads the tracer, so a change that would make
the benchmark report incorrect outputs, or break its traced mode, fails here
first.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_perfbench("perfbench_workloads", "workloads.py").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_output_passes_its_checks(name):
    workload = WORKLOADS[name]
    state = workload.setup(0)
    workload.warmup(state)
    output, timings = workload.execute(state)
    problems, _, _ = workload.check(state, output)
    assert problems == []
    assert timings and all(value > 0 for value in timings.values())


def test_traced_solvers_repeat_their_exact_counts():
    """Two traced operations, as ``run.py --trace 1`` runs them: both pass their
    checks, count exactly the same, and summarise to finite layer metrics."""
    layertrace = load_perfbench("perfbench_layertrace", "layertrace.py")
    workload = WORKLOADS["solvers"]
    tracer = layertrace.Tracer()
    tracer.install()
    counts = []
    try:
        state = workload.setup(0)
        workload.warmup(state)
        for op in (1, 2):
            tracer.begin_op(op)
            try:
                output, _ = workload.execute(state)
            finally:
                tracer.end_op()
            assert workload.check(state, output)[0] == []
            op_counts = tracer.op_counts(op)
            counts.append({name: op_counts.get(name, 0) for name in layertrace.EXACT_COUNTS})
    finally:
        tracer.uninstall()
    assert counts[0] == counts[1]
    assert counts[0]["model.batch_objectives.rows"] > 0
    metrics = tracer.layer_metrics([1, 2], workload.units_per_op)
    assert metrics["model.brute_force_oracle.calls"][0] == 1
    assert metrics["evolutionary.nsga2_solve.calls"][0] == 1
    assert all(math.isfinite(value) for value, _ in metrics.values())
