"""The benchmark's correctness gate holds for every op variant.

``perfbench/run.py`` counts an op as passed only if it raises nothing,
passes its own checks and its key outputs stay within tolerance of
``perfbench/reference.json``. A benchmark run samples the variants by seed,
so this file runs every one of them (``workloads.all_op_variants()``) once:
a change that moves a pinned output fails here, not only as a failed
benchmark op.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
OPS = list(workloads.all_op_variants())


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.mark.parametrize("op", OPS, ids=[op.key for op in OPS])
def test_op_passes_and_matches_the_reference(op, reference, tmp_path):
    ok, result = op.run(str(tmp_path))
    assert ok, result
    assert workloads.drift(op.outputs(str(tmp_path), result), reference[op.key]) == []
