"""The benchmark's view of the package: one tiny traced round per workload.

``perfbench/`` wraps layer functions by module and name and counts their
calls against what each workload knows it should make.  Running one tiny
round of each workload here makes a renamed or reshaped layer function
fail the test suite, not only the benchmark.  The benchmark's files are
read, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from orbstab.kernels import active_backend

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench.{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_traced_round(name):
    rnd = workloads.build(name, 7, True, ROOT)
    with tracer.Tracer() as tr:
        records = rnd.run()
    assert records and all(ok for _, ok in records)
    assert rnd.span_checks(tr) == []
    assert active_backend() == "numpy"
