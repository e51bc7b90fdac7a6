"""The benchmark tracer's view of the package still matches the package.

``perfbench/tracing.py`` patches ``_kernels`` functions by name and calls a
counter with the same arguments as each patched function. A kernel that is
renamed away, or a signature that gains or loses a parameter, breaks the
traced benchmark run (``perfbench/run.py --trace 1``) without failing any
other test, so this file checks the tracer's names and counter signatures
against the package. ``Tracer.install`` also patches some methods
unconditionally, by name; installing and uninstalling it must raise
nothing and leave every attribute of the package as it was. A traced
round of every benchmark op at variant 0 must pass every op, match
``perfbench/reference.json`` and feed every counter.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from chernofflab import _kernels, chernoff
from chernofflab.chernoff import ChernoffDiagnostics
from chernofflab.grid import GridFunction
from chernofflab.hopflax import RateFunction
from chernofflab.limits import RateReport

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load(TRACING, "perfbench_tracing")


def _target(name):
    layer, attr = name.split(".", 1)
    module = _kernels if layer == "kernels" else importlib.import_module(
        f"chernofflab.{layer}")
    return getattr(module, attr)


def _positional(fn):
    return [p for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def _assert_same_arguments(fn, counter):
    """After its tracer argument, ``counter`` binds every positional call of
    ``fn``, and ``fn`` takes every argument that ``counter`` names."""
    params = _positional(fn)
    required = [p for p in params if p.default is p.empty]
    for n in {len(required), len(params)}:
        inspect.signature(counter).bind(None, *range(n))
    assert len(_positional(counter)) - 1 <= len(params)


def test_every_traced_kernel_exists(tracing):
    missing = [k for k in tracing.KERNELS if not callable(getattr(_kernels, k, None))]
    assert not missing


def test_counted_functions_take_the_counters_arguments(tracing):
    names = set(tracing._COUNTERS)
    assert {"chernoff.one_step", "hopflax.hopf_lax", "kernels.interp1"} <= names
    for name, counter in tracing._COUNTERS.items():
        _assert_same_arguments(_target(name), counter)
    _assert_same_arguments(GridFunction.eval, tracing._count_eval)


def test_a_changed_signature_is_caught(tracing):
    def one_step(op, t, f, plan=None):
        return f
    def hopf_lax(f, t):
        return f
    with pytest.raises(TypeError):
        _assert_same_arguments(one_step, tracing._COUNTERS["chernoff.one_step"])
    with pytest.raises(TypeError):
        _assert_same_arguments(hopf_lax, tracing._COUNTERS["hopflax.hopf_lax"])


def _package_attributes():
    """{owner: {name: value}} for every module of the package and every
    class defined in one."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "chernofflab" or name.startswith("chernofflab.")]
    classes = {cls for mod in modules for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__module__.startswith("chernofflab")}
    return {owner: dict(vars(owner)) for owner in [*modules, *classes]}


def _assert_restored(before):
    after = _package_attributes()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [name for name, value in attrs.items() if after[owner][name] is not value]
        assert not changed, (owner, changed)


def test_install_then_uninstall_restores_every_attribute(tracing):
    before = _package_attributes()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        unconditional = [(GridFunction, "sample")] + [
            (cls, "to_csv") for cls in (GridFunction, ChernoffDiagnostics,
                                        RateFunction, RateReport)]
        for cls, attr in unconditional:
            assert vars(cls)[attr] is not before[cls][attr]
    finally:
        tracer.uninstall()
    _assert_restored(before)


def test_traced_round_of_every_op_passes(tracing, tmp_path):
    # the counters run inside the traced calls, so one that reads a field
    # the package no longer has fails its op here, as it would fail the op
    # in a traced benchmark run
    workloads = _load(WORKLOADS, "perfbench_workloads")
    reference = workloads.load_reference()
    ops = [op for name in workloads.WORKLOADS for op in workloads.build_ops(name, 0)]
    # the ops build the node-block pool, a module global, on first use
    chernoff._block_pool()
    before = _package_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            ok, result = op.run(str(tmp_path))
            assert ok, (op.key, result)
            assert workloads.drift(op.outputs(str(tmp_path), result),
                                   reference[op.key]) == [], op.key
    finally:
        tracer.uninstall()
    _assert_restored(before)
    metrics = tracing.layer_metrics(tracer, [1], 0, 1.0)
    for counted in ("chernoff.one_step.calls", "kernels.interp1.calls",
                    "kernels.gather_points", "kernels.march_node_updates",
                    "kernels.legendre_scan.calls", "hopflax.hopf_lax.candidate_evals",
                    "expectations.expect.calls", "grid.eval.points"):
        assert metrics[counted] > 0, counted
