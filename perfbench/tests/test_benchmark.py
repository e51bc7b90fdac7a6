"""The benchmark's own checks: seeded inputs, a gate that can fail, tracing.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import copy
import json
import os

import pytest

import hostspeed
import run
import tracing
import workloads
from chernofflab.configs import BUILTINS

REPO = os.path.dirname(run.HERE)
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis",
             "perfbench_out", ".perfbench_tmp"}


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _runner(reference, root):
    return run.Runner(workloads, reference, str(root))


def _tree(top):
    out = {}
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for f in filenames:
            path = os.path.join(dirpath, f)
            st = os.stat(path)
            out[path] = (st.st_size, st.st_mtime_ns)
    return out


# -- seeded inputs ------------------------------------------------------------

def test_seed_zero_runs_every_builtin_unchanged():
    seen = []
    for name, (op_cls, _) in workloads.WORKLOADS.items():
        for op in workloads.build_ops(name, 0):
            if op_cls is workloads.CliOp:
                assert op.text == BUILTINS[op.name][1]
                seen.append(op.name)
    assert sorted(seen) == sorted(BUILTINS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seeds_are_repeatable_and_keep_the_first_op(name):
    first = workloads.WORKLOADS[name][1][0]
    orders = set()
    for seed in range(1, 30):
        keys = [op.key for op in workloads.build_ops(name, seed)]
        assert keys == [op.key for op in workloads.build_ops(name, seed)]
        assert keys[0] == f"{first}/0"
        orders.add(tuple(keys))
    assert len(orders) > 1


def test_every_op_variant_has_a_reference(reference):
    keys = {op.key for op in workloads.all_op_variants()}
    assert keys <= set(reference)


# -- the correctness gate can fail --------------------------------------------

def _unreachable_target_op():
    op = workloads.CliOp("clt_binary_exact", 0)
    op.text = op.text.replace("target = 1.0", "target = 2.0")
    assert op.text != BUILTINS["clt_binary_exact"][1]
    return op


def test_failed_declared_check_counts_as_failed(reference, tmp_path):
    runner = _runner(reference, tmp_path)
    runner.run(workloads.CliOp("clt_binary_exact", 0), "steady")
    _, _, _, ok, detail = runner.run(_unreachable_target_op(), "steady")
    assert not ok and detail.startswith("check failed")
    assert run.counts(runner.records) == (2, 1)


def test_drift_from_reference_counts_as_failed(reference, tmp_path):
    op = workloads.CliOp("clt_binary_exact", 0)
    drifted = copy.deepcopy(reference)
    drifted[op.key]["clt_values.csv:value:sum"] += 1e-6
    runner = _runner(drifted, tmp_path)
    _, _, _, ok, detail = runner.run(op, "steady")
    assert not ok and "clt_values.csv:value:sum" in detail
    assert _runner(reference, tmp_path).run(op, "steady")[3]


def test_library_op_drift_counts_as_failed(reference, tmp_path):
    op = workloads.LibOp("nonlinear_vs_brute", 0)
    drifted = copy.deepcopy(reference)
    drifted[op.key]["sum"] *= 1.0 + 1e-5
    assert not _runner(drifted, tmp_path).run(op, "steady")[3]
    assert _runner(reference, tmp_path).run(op, "steady")[3]


def test_raising_op_counts_as_failed(reference, tmp_path):
    op = workloads.CliOp("clt_binary_exact", 0)
    op.text = op.text.replace("N = 257", "N = 256")
    runner = _runner(reference, tmp_path)
    _, _, _, ok, detail = runner.run(op, "steady")
    assert not ok and detail.startswith("raised ConfigError")
    assert run.counts(runner.records) == (1, 1)


def test_ops_write_only_under_the_output_root(reference, tmp_path, monkeypatch):
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    root = tmp_path / "out"
    before = _tree(REPO)
    runner = _runner(reference, root)
    for name in workloads.WORKLOADS:
        for op in workloads.build_ops(name, 0):
            runner.run(op, "steady")
    assert run.counts(runner.records)[1] == 0
    assert _tree(REPO) == before
    assert list(work.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cwd", "out"]


# -- metrics -------------------------------------------------------------------

def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(tracing.PER_LAYER))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_steady_stats_weigh_each_experiment_once():
    recs = [("steady", "slow", 2.0, True, "")] * 11 + [("steady", "fast", 0.01, True, "")] * 11
    p50, tail, pct, n, samples = run.steady_stats(recs)
    assert p50 == pytest.approx(1.005)
    assert n == 22 and pct == pytest.approx(100 * 12 / 22)
    assert tail == pytest.approx(p50)
    assert samples == {"slow": [2.0] * 11, "fast": [0.01] * 11}


# -- tracing ---------------------------------------------------------------------

def _traced_counts(reference, root):
    tracer = tracing.Tracer()
    runner = _runner(reference, root)
    ops = [workloads.CliOp("generator_entropic_constant", 0),
           workloads.LibOp("nonlinear_vs_brute", 0)]
    op_ns = []
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            op_ns.append(int(runner.run(op, "traced")[2] * 1e9))
    finally:
        tracer.uninstall()
    assert run.counts(runner.records)[1] == 0
    return tracing.layer_metrics(tracer, op_ns, 0, 1.0), tracer


def test_traced_counts_repeat_and_self_times_cover_the_ops(reference, tmp_path):
    first, tracer = _traced_counts(reference, tmp_path / "a")
    second, _ = _traced_counts(reference, tmp_path / "b")
    count_keys = [m for m, unit, _ in tracing.PER_LAYER if unit == "count"]
    assert {k: first[k] for k in count_keys} == {k: second[k] for k in count_keys}
    assert first["chernoff.one_step.calls"] > 0
    assert first["kernels.gather_points"] > 0
    assert first["expectations.expect.calls"] > 0
    assert 0.9 < first["trace.layer_share"] <= 1.0
    assert all(s >= 0 for s in tracer.self_times())
    assert set(first) == {m for m, _, _ in tracing.PER_LAYER}


def test_uninstall_restores_every_patched_name():
    import chernofflab
    from chernofflab import _kernels, cli, grid, limits

    before = (chernofflab.iterate, limits.iterate, cli.iterate, _kernels.interp1,
              grid.GridFunction.__dict__["eval"], grid.GridFunction.__dict__["sample"])
    tracer = tracing.Tracer()
    tracer.install()
    assert chernofflab.iterate is not before[0] and cli.iterate is chernofflab.iterate
    tracer.uninstall()
    after = (chernofflab.iterate, limits.iterate, cli.iterate, _kernels.interp1,
             grid.GridFunction.__dict__["eval"], grid.GridFunction.__dict__["sample"])
    assert after == before


# -- host-speed calibration ------------------------------------------------------

def _busy(seconds):
    end = hostspeed.perf_counter() + seconds
    while hostspeed.perf_counter() < end:
        pass


def test_sampler_takes_samples_out_of_the_clock_and_restores_the_signal():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(run.SMALL_WORK, period=0.05) as sampler:
        first, spent0 = len(sampler.samples), sampler.spent
        wall0, clock0 = hostspeed.perf_counter(), sampler.clock()
        _, calibration = sampler.calibrated(lambda: _busy(0.4))
        wall, clock = hostspeed.perf_counter() - wall0, sampler.clock() - clock0
        spent = sampler.spent - spent0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    during = sampler.samples[first - 1:]
    assert len(during) >= 4
    assert calibration == pytest.approx(sum(during) / len(during))
    # the clock stands still while the handler takes a sample
    assert spent > 0
    assert clock == pytest.approx(wall - spent, abs=1e-3)


def test_scale_reads_seconds_at_the_nominal_speed():
    for mix in set(run.CALIBRATION.values()):
        nominal = sum(hostspeed.NOMINAL_S[name] for name in mix)
        assert hostspeed.scale(2.0, nominal, mix) == pytest.approx(2.0)
        assert hostspeed.scale(2.0, 2 * nominal, mix) == pytest.approx(1.0)
    assert set(run.CALIBRATION) == set(run.WORKLOADS)
    assert all(set(mix) <= set(hostspeed.PARTS) for mix in run.CALIBRATION.values())
    assert hostspeed.calibrate(run.CALIBRATION["first_order"], reps=3) > 0
