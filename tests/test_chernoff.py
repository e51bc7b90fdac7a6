import copy
import os
import pickle
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from chernofflab import _kernels, chernoff
from chernofflab import (DiscreteMeasure, Entropic, FirstOrderAffine, Grid,
                         GridFunction, GrowthWeight, Linear, OneStepOperator,
                         Partition, PenaltyFunction, Perturbed, SecondOrder,
                         ShiftSup, Shortfall, SymmetricTwoPointSup, centered,
                         chernoff_limit, gauss_hermite, iterate,
                         one_step, two_point, upper_lipschitz_certificate)
from chernofflab.errors import InputError
from chernofflab.expectations import SHORTFALL_TOL

POINT0 = DiscreteMeasure(np.array([0.0]), np.array([1.0]))


def quadratic_clipped(R=8.0, N=257):
    g = Grid(R, N)
    return GridFunction.sample(g, lambda x: np.minimum(x**2, 36.0),
                               weight=GrowthWeight(2))


class TestPartition:
    def test_basic_arithmetic(self):
        p = Partition(1.0, 0.3)
        assert p.full_steps == 3
        assert p.remainder == pytest.approx(0.1)

    def test_exact_division(self):
        p = Partition(1.0, 0.25)
        assert p.full_steps == 4
        assert p.remainder == 0.0

    def test_step_larger_than_horizon(self):
        p = Partition(0.4, 1.0)
        assert p.full_steps == 0
        assert p.remainder == pytest.approx(0.4)

    def test_invalid(self):
        with pytest.raises(InputError):
            Partition(-1.0, 0.5)
        with pytest.raises(InputError):
            Partition(1.0, 0.0)


class TestOneStep:
    def test_identity_for_point_mass_at_zero(self):
        f = GridFunction.sample(Grid(4.0, 129), np.sin)
        op = OneStepOperator(Linear(POINT0), FirstOrderAffine())
        u = one_step(op, 0.7, f)
        assert np.allclose(u.values, f.values, atol=1e-14)

    def test_time_zero_returns_input(self):
        f = GridFunction.sample(Grid(4.0, 129), np.sin)
        op = OneStepOperator(Entropic(two_point()))
        assert one_step(op, 0.0, f) is f

    def test_negative_time_rejected(self):
        f = GridFunction.sample(Grid(4.0, 129), np.sin)
        op = OneStepOperator(Linear(two_point()))
        with pytest.raises(InputError):
            one_step(op, -0.1, f)

    @pytest.mark.parametrize("scaling", [FirstOrderAffine(),
                                         Perturbed(np.sin, 1.0)])
    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t, scaling):
        # a grid-aligned and a per-point step alike, before any gather
        f = GridFunction.sample(Grid(4.0, 129), np.sin)
        op = OneStepOperator(Linear(two_point()), scaling)
        with pytest.raises(InputError, match="finite"):
            one_step(op, t, f)

    def test_entropic_affine_payoff_adds_t_lambda(self):
        # I(t)(a x) = a x + t Lambda(a) for the affine scaling
        a, t = 0.75, 0.4
        mu = two_point()
        g = Grid(8.0, 513)
        f = GridFunction.sample(g, lambda x: a * x)
        op = OneStepOperator(Entropic(mu), FirstOrderAffine())
        u = one_step(op, t, f)
        interior = np.abs(g.axis) <= 4.0
        want = a * g.axis[interior] + t * Entropic(mu).expect_linear(a)
        assert np.allclose(u.values[interior], want, atol=1e-10)

    def test_second_order_quadratic_identity(self):
        # E[(x + sqrt(t) xi)^2] = x^2 + t for the centered unit-variance pair
        f = quadratic_clipped()
        op = OneStepOperator(Linear(two_point()), SecondOrder())
        u = one_step(op, 0.25, f)
        interior = np.abs(f.grid.axis) <= 2.0
        assert np.allclose(u.values[interior],
                           f.grid.axis[interior]**2 + 0.25, atol=1e-12)

    def test_constants_preserved(self):
        g = Grid(4.0, 129)
        f = GridFunction.sample(g, lambda x: np.full_like(x, 2.0))
        for model in (Linear(two_point()), Entropic(two_point())):
            u = one_step(OneStepOperator(model), 0.3, f)
            assert np.allclose(u.values, 2.0, atol=1e-10)

    def test_zero_fixed(self):
        g = Grid(4.0, 129)
        zero = GridFunction.sample(g, np.zeros_like)
        pen = PenaltyFunction.quadratic(2.0, 65)
        models = [Linear(two_point()), Entropic(two_point()),
                  ShiftSup(two_point(), pen, np.linspace(-2, 2, 41))]
        for model in models:
            u = one_step(OneStepOperator(model), 0.5, zero)
            assert np.allclose(u.values, 0.0, atol=1e-9)

    def test_steps_match_per_node_expect(self):
        # centered and 2D steps against t E[f(psi(t, x, .)) / t] node by node
        atoms = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [0.5, -0.5]])
        mu2 = DiscreteMeasure(atoms, np.array([0.4, 0.3, 0.2, 0.1]))
        drift = Perturbed(phi0=lambda x: 0.2 * np.sin(x), lip=0.2)
        f1 = GridFunction.sample(Grid(4.0, 33), lambda x: np.sin(x) + 0.2 * x**2)
        f2 = GridFunction.sample(Grid(2.0, 9, dimension=2),
                                 lambda x, y: np.sin(x) + 0.5 * y**2)
        shift_sup = ShiftSup(two_point(), PenaltyFunction.quadratic(2.0, 65),
                             np.linspace(-1.0, 1.0, 9))
        cases = [(f1, centered(Entropic(two_point())), SecondOrder()),
                 (f1, centered(Linear(two_point())), FirstOrderAffine()),
                 (f1, centered(shift_sup), SecondOrder()),
                 (f2, Linear(mu2), FirstOrderAffine()),
                 (f2, Entropic(mu2), drift),
                 (f2, Shortfall(mu2, 2.0), SecondOrder())]
        t = 0.3
        for f, model, scaling in cases:
            u = one_step(OneStepOperator(model, scaling), t, f)
            nodes = f.grid.axis if f.grid.dimension == 1 else f.grid.nodes()
            want = [t * model.expect(lambda y: f.eval(scaling.map(t, x, y)) / t)
                    for x in nodes]
            # shortfall bisects all nodes in one pass, to its own tolerance
            tol = SHORTFALL_TOL if isinstance(model, Shortfall) else 1e-12
            assert np.max(np.abs(u.values.ravel() - want)) <= tol

    def test_centered_gathers_once_per_base_call(self):
        # the a-grid entries share one gather of the payoff
        f = GridFunction.sample(Grid(4.0, 33), np.sin)
        calls = []

        def payoff(y):
            calls.append(y.shape)
            return f.eval(f.grid.axis[:, None] + 0.3 * y[:, 0])
        model = centered(Linear(two_point()))
        model.reduce(payoff, 0.3)
        assert calls == [(2, 1)]

    def test_two_dimensional_linear_step(self):
        # check the 2D step against the direct average
        g = Grid(3.0, 25, dimension=2)
        f = GridFunction.sample(g, lambda x, y: np.sin(x) + 0.5 * y**2)
        atoms = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        mu = DiscreteMeasure(atoms, np.full(4, 0.25))
        op = OneStepOperator(Linear(mu), FirstOrderAffine())
        t = 0.2
        u = one_step(op, t, f)
        nodes = g.nodes()
        want = np.mean([f.eval(nodes + t * a) for a in atoms], axis=0)
        assert np.allclose(u.values.ravel(), want, atol=1e-12)


class TestIterate:
    def test_remainder_applied_first(self):
        # remainder-first composition: I(h)^k I(rem) of a drift by 1. The
        # steps 0.1, 0.3, 0.3, 0.3 read u at x + 0.3, x + 0.6, x + 0.9 and
        # f at x + 1; a node x <= 1/4 reads only the nodes that the constant
        # continuation at x = 2 has not reached, where u is still affine
        g = Grid(2.0, 17)
        f = GridFunction.sample(g, lambda x: x)
        op = OneStepOperator(Linear(DiscreteMeasure(np.array([1.0]), np.array([1.0]))))
        u = iterate(op, Partition(1.0, 0.3), f)
        interior = np.abs(g.axis) <= 0.25
        assert np.allclose(u.values[interior], g.axis[interior] + 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_second_order_telescoping_aligned(self, n):
        # sqrt(1/n) is a multiple of the grid spacing: queries land on nodes
        f = quadratic_clipped()
        op = OneStepOperator(Linear(two_point()), SecondOrder())
        u = iterate(op, Partition(1.0, 1.0 / n), f)
        i0 = f.grid.origin_index
        assert u.values[i0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [2, 8])
    def test_second_order_telescoping_offgrid(self, n):
        # misaligned sqrt(1/n): the identity holds up to n interpolation quanta
        f = quadratic_clipped()
        op = OneStepOperator(Linear(two_point()), SecondOrder())
        u = iterate(op, Partition(1.0, 1.0 / n), f)
        i0 = f.grid.origin_index
        floor = n * f.grid.spacing**2 / 4
        assert u.values[i0] == pytest.approx(1.0, abs=floor + 1e-8)

    def test_step_at_least_horizon_is_single_step(self):
        f = GridFunction.sample(Grid(4.0, 129), np.sin)
        op = OneStepOperator(Entropic(two_point()))
        u = iterate(op, Partition(0.4, 1.0), f)
        v = one_step(op, 0.4, f)
        assert np.allclose(u.values, v.values, atol=1e-14)

    def test_iterate_with_step_equal_horizon(self):
        f = GridFunction.sample(Grid(4.0, 129), np.sin)
        op = OneStepOperator(Entropic(two_point()))
        u = iterate(op, Partition(0.5, 0.5), f)
        v = one_step(op, 0.5, f)
        assert np.allclose(u.values, v.values, atol=1e-14)


PLAN_GRID_2D = Grid(2.0, 17, dimension=2)
PLAN_MU_2D = DiscreteMeasure(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                             np.array([0.25, 0.25, 0.5]))
DRIFT = Perturbed(phi0=lambda x: 0.3 * np.sin(x), lip=0.3)
PLAN_CASES = {
    "perturbed_linear": (Linear(gauss_hermite(8)), DRIFT),
    "perturbed_entropic": (Entropic(gauss_hermite(8)), DRIFT),
    "perturbed_shortfall": (Shortfall(gauss_hermite(8), 2.0), DRIFT),
    "perturbed_shift_sup": (ShiftSup(two_point(), PenaltyFunction.quadratic(2.0, 65),
                                     np.linspace(-1.0, 1.0, 9)), DRIFT),
    "linear_2d": (Linear(PLAN_MU_2D), FirstOrderAffine()),
    "entropic_2d": (Entropic(PLAN_MU_2D), FirstOrderAffine()),
}


def plan_case_payoff(case):
    if case.endswith("_2d"):
        return GridFunction.sample(PLAN_GRID_2D, lambda x, y: np.sin(x) + 0.3 * x * y)
    return GridFunction.sample(Grid(4.0, 65), lambda x: np.sin(x) + 0.2 * x**2)


class TestPlanReuse:
    """The per-point gather plan is reused across a partition's equal steps."""

    @pytest.mark.parametrize("case", list(PLAN_CASES))
    def test_iterate_equals_fresh_one_steps(self, case):
        # horizon 0.9 with step 0.2: a remainder step of t = 0.1, then four
        # full steps; each fresh operator builds its own plan
        model, scaling = PLAN_CASES[case]
        f = plan_case_payoff(case)
        partition = Partition(0.9, 0.2)
        want = f
        for t in [partition.remainder] + [partition.step] * partition.full_steps:
            want = one_step(OneStepOperator(model, scaling), t, want)
        got = iterate(OneStepOperator(model, scaling), partition, f)
        assert np.array_equal(got.values, want.values)

    def test_one_plan_per_partition(self, monkeypatch):
        builds = []
        gather_plan = _kernels.gather_plan
        monkeypatch.setattr(_kernels, "gather_plan",
                            lambda *args: builds.append(1) or gather_plan(*args))
        model, scaling = PLAN_CASES["perturbed_entropic"]
        op = OneStepOperator(model, scaling)
        f = plan_case_payoff("perturbed_entropic")
        iterate(op, Partition(1.0, 1.0 / 16), f)
        assert len(builds) == 1
        # a remainder step has its own t: one plan for it, one for the rest
        builds.clear()
        iterate(op, Partition(0.9, 0.2), f)
        assert len(builds) == 2
        # another grid is never served the held plan: each of the three
        # calls builds one for op and one for the fresh operator
        builds.clear()
        for g in (GridFunction.sample(Grid(4.0, 33), np.sin), f,
                  GridFunction.sample(Grid(2.0, 65), np.sin)):
            got = one_step(op, 0.2, g)
            assert np.array_equal(got.values,
                                  one_step(OneStepOperator(model, scaling), 0.2, g).values)
        assert len(builds) == 6
        # above the threshold each of the B node blocks builds its own
        # plan, once for all the equal steps
        builds.clear()
        monkeypatch.setattr(chernoff, "_CPUS", 3)
        op = OneStepOperator(Entropic(BLOCK_MU), scaling)
        iterate(op, Partition(1.0, 1.0 / 16), GridFunction.sample(BLOCK_GRID, np.sin))
        assert len(builds) == len(op._memo.plan[2]) == 3

    def test_operator_holds_one_plan(self):
        model, scaling = PLAN_CASES["perturbed_shift_sup"]
        op = OneStepOperator(model, scaling)
        f = plan_case_payoff("perturbed_shift_sup")
        one_step(op, 0.2, f)
        # 65 nodes x 2 points take one node block, with one plan
        t, grid, ((points, _),) = op._memo.plan
        assert (t, grid) == (0.2, f.grid)
        assert points.shape[1] == 1
        # the held plan is no part of the operator's identity
        assert op == OneStepOperator(model, scaling)
        assert "_memo" not in repr(op)

    @pytest.mark.parametrize("case", ["perturbed_entropic", "entropic_2d"])
    def test_next_step_leaves_the_last_values_alone(self, case):
        # the plan overwrites its output buffer on every gather; no step
        # result may share it
        model, scaling = PLAN_CASES[case]
        op = OneStepOperator(model, scaling)
        u = one_step(op, 0.2, plan_case_payoff(case))
        held = u.values.copy()
        v = one_step(op, 0.2, u)
        assert op._memo.plan[0] == 0.2
        assert np.array_equal(u.values, held)
        assert not np.array_equal(v.values, held)


# 2049 nodes x 64 atoms: up to 64 // 15 = 4 node blocks for a row-local
# model; 129^2 nodes x 3 atoms in 2D: up to 3
BLOCK_GRID = Grid(8.0, 2049)
BLOCK_MU = gauss_hermite(64)
BLOCK_GRID_2D = Grid(2.0, 129, dimension=2)
BLOCK_CASES = {
    "entropic": (Entropic(BLOCK_MU), DRIFT),
    "centered_entropic": (centered(Entropic(BLOCK_MU)), DRIFT),
    "entropic_2d": (Entropic(PLAN_MU_2D), FirstOrderAffine()),
    "linear": (Linear(BLOCK_MU), DRIFT),
    "centered_linear": (centered(Linear(BLOCK_MU)), DRIFT),
    "shortfall": (Shortfall(BLOCK_MU, 2.0), DRIFT),
    # no gather mean on a per-point step: one payoff call per shift
    "shift_sup": (ShiftSup(BLOCK_MU, PenaltyFunction.quadratic(2.0, 129),
                           np.linspace(-1.0, 1.0, 9)), DRIFT),
}


def block_case_payoff(case):
    if case.endswith("_2d"):
        return GridFunction.sample(BLOCK_GRID_2D, lambda x, y: np.sin(x) + 0.3 * x * y)
    return GridFunction.sample(BLOCK_GRID, lambda x: np.minimum(x**2, 36.0) + np.sin(3 * x))


def one_block_step(model, scaling, t, f):
    # the step as one reduction over every node, the (k, nodes) gather of
    # one plan
    g = f.grid
    one_d = g.dimension == 1
    base = scaling.base(t, g.axis if one_d else g.nodes())
    scale = scaling.scale(t)

    def gather(y):
        return f.gather_plan(base + scale * (y if one_d else y[:, None]))(f.values).T
    return model.reduce(gather, t).reshape(f.values.shape)


class TestNodeBlocks:
    """Per-point steps above the threshold reduce node blocks on threads;
    the usable CPU count is patched, so any host runs every block count."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["entropic", "centered_entropic", "entropic_2d"])
    def test_row_local_models_keep_their_bytes(self, case, cpus, monkeypatch):
        monkeypatch.setattr(chernoff, "_CPUS", cpus)
        model, scaling = BLOCK_CASES[case]
        f = block_case_payoff(case)
        op = OneStepOperator(model, scaling)
        got = one_step(op, 1.0 / 16, f).values
        assert len(op._memo.plan[2]) == min(cpus, 3 if case.endswith("_2d") else 4)
        assert got.tobytes() == one_block_step(model, scaling, 1.0 / 16, f).tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["linear", "centered_linear", "shortfall", "shift_sup"])
    def test_batch_wide_models_take_one_block(self, case, cpus, monkeypatch):
        # BLAS blocks the rows of payoff @ weights, and the bisection count
        # follows the widest row of the batch: a node block would move the
        # last bits with the CPU count, so these steps stay one block
        def no_pool():
            raise AssertionError("a model that is not row-local built the pool")
        monkeypatch.setattr(chernoff, "_CPUS", cpus)
        monkeypatch.setattr(chernoff, "_block_pool", no_pool)
        model, scaling = BLOCK_CASES[case]
        assert not model.row_local
        f = block_case_payoff(case)
        for t in (1.0 / 16, 0.5):
            op = OneStepOperator(model, scaling)
            got = one_step(op, t, f).values
            assert len(op._memo.plan[2]) == 1
            assert got.tobytes() == one_block_step(model, scaling, t, f).tobytes()

    def test_steps_below_the_threshold_build_no_pool(self, monkeypatch):
        def no_pool():
            raise AssertionError("a step below the threshold built the pool")
        monkeypatch.setattr(chernoff, "_CPUS", 4)
        monkeypatch.setattr(chernoff, "_block_pool", no_pool)
        mu_2d = DiscreteMeasure(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                                np.full(4, 0.25))
        cases = [
            # 513 nodes x 64 atoms: 64 // 63 = 1 block
            (Entropic(BLOCK_MU), DRIFT, GridFunction.sample(Grid(8.0, 513), np.sin)),
            # 1089 nodes x 4 points in 2D: 4 // 30 = 0, so 1 block
            (Entropic(mu_2d), FirstOrderAffine(),
             GridFunction.sample(Grid(2.0, 33, dimension=2), lambda x, y: np.sin(x) * y)),
            # grid-aligned steps stay serial at any size
            (Entropic(BLOCK_MU), FirstOrderAffine(), GridFunction.sample(BLOCK_GRID, np.sin)),
        ]
        for model, scaling, f in cases:
            one_step(OneStepOperator(model, scaling), 1.0 / 16, f)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_error_waits_for_every_block(self, failing, monkeypatch):
        # one block raises at once while the other is slow: the step raises
        # only after the slow one has finished, and the operator's next
        # step is the one-block step
        monkeypatch.setattr(chernoff, "_CPUS", 2)
        caller = threading.current_thread()
        state = {"fail": True, "finished": []}

        class FailsInOneBlock(Entropic):
            def reduce(self, payoff, t=1.0):
                block = 0 if threading.current_thread() is caller else 1
                if state["fail"] and block == failing:
                    raise InputError(f"block {block} fails")
                if state["fail"]:
                    time.sleep(0.05)
                out = super().reduce(payoff, t)
                state["finished"].append(block)
                return out
        model = FailsInOneBlock(BLOCK_MU)
        f = block_case_payoff("entropic")
        op = OneStepOperator(model, DRIFT)
        with pytest.raises(InputError, match=f"block {failing} fails"):
            one_step(op, 1.0 / 16, f)
        assert state["finished"] == [1 - failing]
        state["fail"] = False
        got = one_step(op, 1.0 / 16, f).values
        assert got.tobytes() == one_block_step(model, DRIFT, 1.0 / 16, f).tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_builds_its_own_pool(self, monkeypatch):
        # the parent's pool threads do not exist in the child; a child that
        # used the parent's executor would wait for them forever (the alarm
        # ends it then)
        monkeypatch.setattr(chernoff, "_CPUS", 2)
        model, scaling = BLOCK_CASES["entropic"]
        f = block_case_payoff("entropic")
        want = one_step(OneStepOperator(model, scaling), 1.0 / 16, f).values
        assert chernoff._pool[0] == os.getpid()
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                os.close(read)
                signal.alarm(30)
                got = one_step(OneStepOperator(model, scaling), 1.0 / 16, f).values
                ok = got.tobytes() == want.tobytes() and chernoff._pool[0] == os.getpid()
            finally:
                os.write(write, b"1" if ok else b"0")
                os._exit(0)
        os.close(write)
        try:
            status = os.read(read, 1)
        finally:
            os.close(read)
            os.waitpid(pid, 0)
        assert status == b"1"


class TestSharedOperator:
    """One operator stepped by several threads at once: each thread keeps its
    own plans and stencil, so none refills another's buffers."""

    @pytest.mark.parametrize("model, scaling", [
        (Entropic(BLOCK_MU), FirstOrderAffine()),  # the stencil
        (Entropic(BLOCK_MU), DRIFT),  # per-point plans, node blocks
        (Linear(BLOCK_MU), DRIFT),  # per-point plans, one block
    ], ids=["stencil", "per_point_blocks", "per_point"])
    def test_threads_match_the_serial_values(self, model, scaling):
        # four threads, more than the CPUs of a small host, on two payoffs,
        # switching often: a shared buffer would mix their steps
        payoffs = [block_case_payoff("entropic"),
                   GridFunction.sample(BLOCK_GRID, lambda x: np.cos(2 * x) - 0.1 * x)]
        partition = Partition(1.0, 1.0 / 64)
        want = [iterate(OneStepOperator(model, scaling), partition, f).values.tobytes()
                for f in payoffs]
        op = OneStepOperator(model, scaling)
        start = threading.Barrier(4)
        got = [None] * 4

        def run(i):
            start.wait()
            got[i] = iterate(op, partition, payoffs[i % 2]).values.tobytes()
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want * 2

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda op: pickle.loads(pickle.dumps(op))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_start_with_an_empty_memo(self, duplicate):
        op = OneStepOperator(Entropic(BLOCK_MU))
        f = block_case_payoff("entropic")
        want = one_step(op, 0.25, f).values
        twin = duplicate(op)
        assert not hasattr(twin._memo, "stencil")
        assert one_step(twin, 0.25, f).values.tobytes() == want.tobytes()
        assert op._memo.stencil is not twin._memo.stencil


# every grid-aligned model family, each under both grid-aligned scalings
STENCIL_MODELS = {
    "linear": Linear(gauss_hermite(8)),
    "entropic": Entropic(gauss_hermite(8)),
    "shortfall": Shortfall(gauss_hermite(8), 2.0),
    "shift_sup": ShiftSup(two_point(), PenaltyFunction.quadratic(2.0, 65),
                          np.linspace(-1.0, 1.0, 9)),
    "symmetric_sup": SymmetricTwoPointSup(two_point(), PenaltyFunction.quadratic(2.0, 65),
                                          np.linspace(0.0, 1.0, 9)),
    "centered_entropic": centered(Entropic(two_point())),
}
STENCIL_SCALINGS = {"first_order": FirstOrderAffine(), "second_order": SecondOrder()}


def count_geometry_builds(monkeypatch):
    # each build of a held geometry (a stencil's columns or a mean's band)
    # computes the cells of its offsets once
    builds = []
    cells = _kernels.ShiftStencil._cells
    monkeypatch.setattr(_kernels.ShiftStencil, "_cells",
                        lambda self, c: builds.append(c.shape) or cells(self, c))
    return builds


class TestStencilReuse:
    """The grid-aligned stencil and its geometry are reused across equal steps."""

    @pytest.mark.parametrize("scaling", list(STENCIL_SCALINGS))
    @pytest.mark.parametrize("model", list(STENCIL_MODELS))
    def test_iterate_equals_fresh_one_steps(self, model, scaling):
        # horizon 0.9 with step 0.2: a remainder step of t = 0.1, then four
        # full steps; each fresh operator builds its own stencil
        parts = (STENCIL_MODELS[model], STENCIL_SCALINGS[scaling])
        f = plan_case_payoff(model)
        partition = Partition(0.9, 0.2)
        want = f
        for t in [partition.remainder] + [partition.step] * partition.full_steps:
            want = one_step(OneStepOperator(*parts), t, want)
        got = iterate(OneStepOperator(*parts), partition, f)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("model", ["linear", "symmetric_sup"])
    def test_one_geometry_per_partition(self, model, monkeypatch):
        builds = count_geometry_builds(monkeypatch)
        plans = []
        stencil_init = _kernels.ShiftStencil.__init__
        monkeypatch.setattr(_kernels.ShiftStencil, "__init__",
                            lambda self, *key: plans.append(key) or stencil_init(self, *key))
        op = OneStepOperator(STENCIL_MODELS[model], SecondOrder())
        f = plan_case_payoff(model)
        iterate(op, Partition(1.0, 1.0 / 16), f)
        assert len(builds) == 1
        # a remainder step has its own t: one geometry for it, one for the rest
        builds.clear()
        iterate(op, Partition(0.9, 0.2), f)
        assert len(builds) == 2
        # one grid: one stencil over both partitions
        assert len(plans) == 1

    def test_changes_are_never_served_a_stale_geometry(self, monkeypatch):
        builds = count_geometry_builds(monkeypatch)
        model = STENCIL_MODELS["symmetric_sup"]
        op = OneStepOperator(model, SecondOrder())
        f = plan_case_payoff("symmetric_sup")
        # another t, node count or spacing (same node count) each gets its
        # own geometry, and so does the return to the first case
        cases = [(0.2, f), (0.1, f), (0.1, GridFunction.sample(Grid(4.0, 33), np.sin)),
                 (0.1, GridFunction.sample(Grid(3.0, 33), np.sin)), (0.2, f)]
        for t, g in cases:
            got = one_step(op, t, g)
            assert np.array_equal(got.values,
                                  one_step(OneStepOperator(model, SecondOrder()), t, g).values)
        # two builds per case: one for op, one for the fresh operator
        assert len(builds) == 2 * len(cases)

    def test_changed_offsets_or_weights_rebuild(self):
        # both entries of one held stencil against fresh stencils, with the
        # offsets, the clouds or the weights changed between calls
        f = plan_case_payoff("linear")
        held = f.stencil()
        c = np.array([0.0, 0.31, -0.7, 5.0])
        clouds = np.array([[0.1, -0.2, 0.45], [1.3, -0.9, 0.0]])
        w = np.array([0.2, 0.5, 0.3])
        for offsets in (c, 2.0 * c, c[:3], c):
            assert np.array_equal(held(offsets), f.stencil()(offsets))
        for cl, cw in ((clouds, w), (clouds, w[::-1]), (0.5 * clouds, w[::-1]),
                       (clouds[:1], w), (clouds, w)):
            assert np.array_equal(held.mean(cl, cw), f.stencil().mean(cl, cw))

    def test_operator_holds_one_stencil(self):
        model = STENCIL_MODELS["shift_sup"]
        op = OneStepOperator(model)
        f = plan_case_payoff("shift_sup")
        one_step(op, 0.2, f)
        held = op._memo.stencil
        one_step(op, 0.1, f.replace_values(2.0 * f.values))
        assert op._memo.stencil is held
        assert held.key == (f.grid.points_per_axis, f.grid.spacing)
        # the held stencil is no part of the operator's identity
        assert op == OneStepOperator(model)
        assert "_memo" not in repr(op)

    @pytest.mark.parametrize("model", ["linear", "shift_sup", "centered_entropic"])
    def test_next_step_leaves_the_last_values_alone(self, model):
        # the stencil refills its pad on every step; no step result may
        # share it
        op = OneStepOperator(STENCIL_MODELS[model], SecondOrder())
        u = one_step(op, 0.2, plan_case_payoff(model))
        held = u.values.copy()
        v = one_step(op, 0.2, u)
        assert np.array_equal(u.values, held)
        assert not np.array_equal(v.values, held)


# every grid-aligned model under each scaling, and the 2D plan cases
EDGE_SCALINGS = dict(STENCIL_SCALINGS, perturbed=DRIFT)
EDGE_CASES = {f"{m}-{s}": (model, scaling)
              for m, model in STENCIL_MODELS.items()
              for s, scaling in EDGE_SCALINGS.items()}
EDGE_CASES.update((case, PLAN_CASES[case]) for case in ("linear_2d", "entropic_2d"))
# the shortfall root is solved to SHORTFALL_TOL; every other model is exact
# up to rounding
EDGE_TOL = 10 * SHORTFALL_TOL


def edge_case_payoff(case):
    return plan_case_payoff(case if case.endswith("_2d") else case.split("-")[0])


class TestBoxEdge:
    """Past the box a payoff holds its edge values, so every step keeps
    order and sup distance there as well as inside."""

    def test_order_kept_where_a_linear_continuation_breaks_it(self):
        # f = 0 <= g = 1 at node 1 only; every sample point x - 1 of the
        # left half falls on or past the left edge, where g is 0
        g = Grid(1.0, 5)
        f = GridFunction(g, np.zeros(5))
        bumped = f.replace_values(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        op = OneStepOperator(Linear(DiscreteMeasure(np.array([-1.0]), np.array([1.0]))))
        assert np.array_equal(one_step(op, 1.0, f).values, np.zeros(5))
        assert np.array_equal(one_step(op, 1.0, bumped).values,
                              np.array([0.0, 0.0, 0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("t", [1.0 / 64, 0.3, 1.0])
    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_steps_keep_order_and_distance(self, case, t):
        # g = f + 1 on the second node from each end of every axis, the
        # nodes a linear continuation weighs negatively past the box; at
        # t = 1 the outer nodes' sample points leave it
        f = edge_case_payoff(case)
        bump = np.zeros(f.values.shape)
        for axis in range(f.values.ndim):
            index = [slice(None)] * f.values.ndim
            index[axis] = [1, -2]
            bump[tuple(index)] = 1.0
        op = OneStepOperator(*EDGE_CASES[case])
        gap = one_step(op, t, f.replace_values(f.values + bump)).values \
            - one_step(op, t, f).values
        assert np.min(gap) >= -EDGE_TOL
        assert np.max(gap) <= 1.0 + EDGE_TOL

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_step_equals_a_wider_box_holding_the_edge_values(self, case):
        # the box doubled at the same spacing, its new nodes holding the
        # nearest edge value, steps the old nodes as the box does
        f = edge_case_payoff(case)
        g = f.grid
        n = g.points_per_axis
        wide = GridFunction(Grid(2.0 * g.half_width, 2 * n - 1, dimension=g.dimension),
                            np.pad(f.values, (n - 1) // 2, mode="edge"))
        inner = (slice((n - 1) // 2, (n - 1) // 2 + n),) * g.dimension
        op = OneStepOperator(*EDGE_CASES[case])
        for t in (0.3, 1.0):
            got = one_step(op, t, wide).values[inner]
            want = one_step(op, t, f).values
            assert np.max(np.abs(got - want)) <= EDGE_TOL


# every per-point model: the plan cases' models, all taken under DRIFT,
# and a centered one
ROW_LAYOUT_CASES = {case: model for case, (model, _) in PLAN_CASES.items()}
ROW_LAYOUT_CASES["centered_entropic"] = centered(Entropic(two_point()))


def row_layout_step(model, scaling, f, t):
    """The per-point step gathered (nodes, k), one C-ordered row per node:
    f at base[:, None] + scale * y, reduced by the same model."""
    g = f.grid
    base = scaling.base(t, g.axis if g.dimension == 1 else g.nodes())
    scale = scaling.scale(t)

    def gather(y):
        if g.dimension == 1:
            return _kernels.interp1(f.values, -g.half_width, g.spacing,
                                    base[:, None] + scale * y[:, 0], True)
        return f.eval(base[:, None] + scale * y)
    return model.reduce(gather, t).reshape(f.values.shape)


class TestColumnLayout:
    """Per-point steps gather (k, nodes) and reduce the column-major transpose."""

    @pytest.mark.parametrize("case", list(ROW_LAYOUT_CASES))
    def test_agrees_with_the_row_layout(self, case):
        model = ROW_LAYOUT_CASES[case]
        f = plan_case_payoff(case)
        # only the order of each k-term sum may differ
        for t in (0.2, 1.0 / 64):
            got = one_step(OneStepOperator(model, DRIFT), t, f).values
            want = row_layout_step(model, DRIFT, f, t)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", ["perturbed_linear", "entropic_2d"])
    def test_models_reduce_column_major_matrices(self, case):
        layouts = []

        class Spy(Linear):
            def reduce(self, payoff, t=1.0):
                def seen(y):
                    vals = payoff(y)
                    layouts.append(vals.flags.f_contiguous)
                    return vals
                return super().reduce(seen, t)
        model = Spy(PLAN_CASES[case][0].measure)
        f = plan_case_payoff(case)
        one_step(OneStepOperator(model, DRIFT), 0.2, f)
        assert layouts == [True]

    def test_equal_steps_hold_their_workspace(self):
        # after the first step builds the plan, an entropic step on 2049
        # nodes x 64 atoms allocates one (nodes, k) array, the one it divides
        # into; a gather into fresh arrays would add at least one more
        g = Grid(8.0, 2049)
        op = OneStepOperator(Entropic(gauss_hermite(64)), DRIFT)
        u = one_step(op, 1.0 / 16, GridFunction.sample(g, np.sin))
        buffer = g.points_per_axis * 64 * 8
        tracemalloc.start()
        try:
            for _ in range(16):
                u = one_step(op, 1.0 / 16, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * buffer


class TestChernoffLimit:
    def test_constant_converges_immediately(self):
        g = Grid(4.0, 129)
        f = GridFunction.sample(g, lambda x: np.full_like(x, 1.5))
        op = OneStepOperator(Entropic(two_point()))
        u, diag = chernoff_limit(op, 1.0, f, [1, 2, 4])
        assert np.allclose(u.values, 1.5, atol=1e-9)
        assert diag.cauchy_gap <= 1e-8
        assert diag.cross_schedule_gap <= 1e-9

    def test_entropic_gaussian_tends_to_hopf_lax_value(self):
        g = Grid(8.0, 513)
        f = GridFunction.sample(g, lambda x: -(x - 1.0)**2, weight=GrowthWeight(1))
        op = OneStepOperator(Entropic(gauss_hermite(64)), FirstOrderAffine())
        u, diag = chernoff_limit(op, 1.0, f, [8, 16, 32, 64],
                                 compact=(-2.0, 2.0))
        assert diag.values_at_origin[-1] == pytest.approx(-1.0 / 3.0, abs=2e-2)
        assert diag.gaps[-1] < diag.gaps[1]

    @pytest.mark.parametrize("scaling", [FirstOrderAffine(), SecondOrder()])
    def test_diagnostics_equal_all_levels_run(self, scaling, monkeypatch):
        # the dyadic partition at level round(log2(n_max)) alone gives the
        # same diagnostics, bit for bit, as running every level up to it
        f = GridFunction.sample(Grid(4.0, 129), lambda x: np.sin(x) + 0.1 * x**2)
        op = OneStepOperator(Entropic(two_point()), scaling)
        schedule, t, base, box = [4, 8, 16], 0.8, 0.75, (-1.0, 1.0)
        steps = []
        monkeypatch.setattr(chernoff, "one_step",
                            lambda *args: steps.append(1) or one_step(*args))
        u, diag = chernoff_limit(op, t, f, schedule, compact=box,
                                 dyadic_base=base)
        monkeypatch.undo()
        # each schedule entry once, then 21 full steps and a remainder
        assert len(steps) == sum(schedule) + 22
        runs = [iterate(op, Partition(t, t / n), f) for n in schedule]
        for j in (2, 3, 4):
            ud = iterate(op, Partition(t, base * t * 2.0 ** (-j)), f)
        gaps = [np.nan] + [b.replace_values(b.values - a.values).sup_norm_on(box)
                           for a, b in zip(runs, runs[1:])]
        cross = runs[-1].replace_values(runs[-1].values - ud.values).sup_norm_on(box)
        assert np.array_equal(u.values, runs[-1].values)
        assert diag.cross_schedule_gap == cross
        assert np.array_equal(diag.gaps, gaps, equal_nan=True)
        assert diag.cauchy_gap == gaps[-1]
        assert diag.values_at_origin == [float(r.values[64]) for r in runs]

    def test_no_dyadic_base_skips_the_cross_schedule(self):
        f = GridFunction.sample(Grid(4.0, 129), np.sin)
        op = OneStepOperator(Linear(two_point()))
        _, diag = chernoff_limit(op, 1.0, f, [2, 4], dyadic_base=None)
        assert np.isnan(diag.cross_schedule_gap)

    def test_schedule_must_increase(self):
        g = Grid(4.0, 129)
        f = GridFunction.sample(g, np.sin)
        op = OneStepOperator(Linear(two_point()))
        with pytest.raises(InputError):
            chernoff_limit(op, 1.0, f, [4, 4])

    def test_diagnostics_csv(self, tmp_path):
        g = Grid(4.0, 129)
        f = GridFunction.sample(g, np.sin)
        op = OneStepOperator(Linear(two_point()))
        _, diag = chernoff_limit(op, 1.0, f, [2, 4, 8])
        p = tmp_path / "diag.csv"
        diag.to_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "n,h,sup_gap_on_K,cross_schedule_gap,value_at_origin"
        assert len(lines) == 4


class TestUpperLipschitz:
    def test_constant_payoff_certificate_zero(self):
        g = Grid(4.0, 129)
        f = GridFunction.sample(g, lambda x: np.full_like(x, 3.0))
        op = OneStepOperator(Linear(two_point()))
        assert upper_lipschitz_certificate(op, f, [0.02, 0.01]) == pytest.approx(0.0, abs=1e-10)

    def test_lipschitz_bound_affine_linear(self):
        # |f(x + t y) - f(x)| <= r t |y| integrates to c_hat <= r E|xi|
        g = Grid(8.0, 2049)
        r = 0.7
        f = GridFunction.sample(g, lambda x: r * np.sin(x))
        mu = gauss_hermite(32)
        op = OneStepOperator(Linear(mu), FirstOrderAffine())
        e_abs = float(mu.weights @ np.abs(mu.atoms[:, 0]))
        c_hat = upper_lipschitz_certificate(op, f, [0.02, 0.01])
        assert c_hat <= r * e_abs + 1e-3
        assert c_hat > 0

    def test_second_order_quadratic_certificate_one(self):
        # probes with sqrt(t) a grid multiple, so (I(t)f - f) = t exactly
        f = quadratic_clipped()
        op = OneStepOperator(Linear(two_point()), SecondOrder())
        c_hat = upper_lipschitz_certificate(op, f, [0.0625, 0.015625])
        assert c_hat == pytest.approx(1.0, abs=1e-6)

    def test_probe_outside_unit_interval_rejected(self):
        f = quadratic_clipped()
        op = OneStepOperator(Linear(two_point()), SecondOrder())
        with pytest.raises(InputError):
            upper_lipschitz_certificate(op, f, [2.0])


def translate(f, x):
    # (tau_x f)(y) = f(x + y), resampled on the same 1D grid
    return f.replace_values(f.eval(f.grid.axis + x))


class TestTranslationCovariance:
    @pytest.mark.parametrize("family", [FirstOrderAffine(), SecondOrder()])
    def test_exact_for_unperturbed_families_on_aligned_shifts(self, family):
        g = Grid(8.0, 513)
        f = GridFunction.sample(g, lambda x: np.sin(x) + 0.05 * x**2)
        op = OneStepOperator(Entropic(two_point()), family)
        t = 0.25
        x = 8 * g.spacing
        lhs = one_step(op, t, translate(f, x))
        rhs = translate(one_step(op, t, f), x)
        interior = np.abs(g.axis) <= 4.0
        assert np.allclose(lhs.values[interior], rhs.values[interior], atol=1e-10)

    def test_perturbed_commutator_linear_in_shift(self):
        amp = 0.2
        fam = Perturbed(phi0=lambda x: amp * np.sin(x), lip=amp)
        g = Grid(8.0, 1025)
        r = 1.0
        f = GridFunction.sample(g, lambda x: r * np.tanh(x))
        op = OneStepOperator(Entropic(two_point()), fam)
        t = 0.125
        for x in (4 * g.spacing, 16 * g.spacing):
            lhs = one_step(op, t, translate(f, x))
            rhs = translate(one_step(op, t, f), x)
            interior = np.abs(g.axis) <= 4.0
            gap = np.max(np.abs(lhs.values - rhs.values)[interior])
            assert gap <= amp * r * t * x + 1e-6


class TestScalingFamilies:
    def test_perturbed_commutator_bound(self):
        # |x + psi(t,y,z) - psi(t,x+y,z)| <= L t |x| on probe triples
        amp = 0.3
        fam = Perturbed(phi0=lambda x: amp * np.sin(x), lip=amp)
        rng = np.random.default_rng(5)
        for _ in range(200):
            t = rng.uniform(0, 1)
            x, y, z = rng.normal(size=3) * 2
            lhs = abs(x + fam.map(t, y, z) - fam.map(t, x + y, z))
            assert lhs <= amp * t * abs(x) + 1e-12

    def test_first_order_small_time_derivative(self):
        fam = FirstOrderAffine()
        x = np.linspace(-2, 2, 11)
        y = np.linspace(-1, 1, 11)
        for h in (1e-3, 1e-5):
            lhs = (fam.map(h, x, y) - x) / h
            assert np.allclose(lhs, fam.psi0(x, y), atol=1e-9)

    def test_perturbed_small_time_derivative(self):
        fam = Perturbed(phi0=lambda x: 0.1 * np.sin(x), lip=0.1)
        x = np.linspace(-2, 2, 11)
        y = np.linspace(-1, 1, 11)
        h = 1e-6
        lhs = (fam.map(h, x, y) - x) / h
        assert np.allclose(lhs, fam.psi0(x, y), atol=1e-9)

    def test_second_order_has_no_psi0(self):
        with pytest.raises(InputError):
            SecondOrder().psi0(0.0, 0.0)
