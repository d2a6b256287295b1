"""Every benchmark workload runs once and passes its own output checks.

``perfbench/workloads.py`` is loaded by file path, as ``test_layertrace.py``
loads the tracer, so a change that would make the benchmark report incorrect
outputs fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_output_passes_its_checks(name):
    workload = WORKLOADS[name]
    state = workload.setup(0)
    workload.warmup(state)
    output, timings = workload.execute(state)
    problems, _, _ = workload.check(state, output)
    assert problems == []
    assert timings and all(value > 0 for value in timings.values())
