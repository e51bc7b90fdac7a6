import numpy as np
import pytest

from chernofflab import (DiscreteMeasure, Entropic, FirstOrderAffine,
                         Grid, GridFunction, GrowthWeight, Linear,
                         OneStepOperator, PenaltyFunction, Perturbed,
                         RateFunction, SecondOrder, ShiftSup, Shortfall,
                         brute_force_functional, centered,
                         clt_functional, exact_tail_probabilities,
                         generator_check, hopf_lax, ld_rate,
                         legendre, nonlinear_functional, one_step, poly_rate,
                         two_point)
from chernofflab.errors import InputError
from chernofflab.expectations import SHORTFALL_TOL, ExpectationModel
BERNOULLI = two_point()


class TestNonlinearFunctional:
    def payoff(self, fn=None, R=4.0, N=481):
        fn = fn or (lambda x: -(x - 2.0)**2)
        return GridFunction.sample(Grid(R, N), fn, weight=GrowthWeight(1))

    def test_n_equals_one_is_single_step(self):
        f = self.payoff()
        model = Entropic(BERNOULLI)
        v = nonlinear_functional(model, FirstOrderAffine(), f, 1)
        u = one_step(OneStepOperator(model, FirstOrderAffine()), 1.0, f)
        assert v == pytest.approx(float(u.values[f.grid.origin_index]), abs=1e-12)

    def test_entropic_bernoulli_converges_to_hopf_lax(self):
        f = self.payoff(R=6.0, N=1537)
        model = Entropic(BERNOULLI)
        vals = [nonlinear_functional(model, FirstOrderAffine(), f, n)
                for n in (32, 64, 128)]
        z = np.linspace(-12, 12, 4801)
        lam = Entropic(BERNOULLI).expect_linear(z)
        y = np.linspace(-0.999, 0.999, 3997)
        rate = RateFunction(y, legendre(z, lam, y))
        oracle = float(hopf_lax(f, 1.0, rate).values[f.grid.origin_index])
        errs = [abs(v - oracle) for v in vals]
        assert errs[-1] <= 2e-2
        assert errs[-1] <= errs[0]

    def test_second_order_quadratic_is_one(self):
        g = Grid(8.0, 257)
        f = GridFunction.sample(g, lambda x: np.minimum(x**2, 36.0),
                                weight=GrowthWeight(2))
        model = Linear(BERNOULLI)
        for n in (1, 4, 16):
            assert nonlinear_functional(model, SecondOrder(), f, n) \
                == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_payoff(self):
        rng = np.random.default_rng(9)
        g = Grid(4.0, 129)
        f = GridFunction(g, np.sin(g.axis), weight=GrowthWeight(1))
        bigger = f.replace_values(f.values + rng.uniform(0, 1, 129))
        for model in (Linear(BERNOULLI), Entropic(BERNOULLI)):
            a = nonlinear_functional(model, FirstOrderAffine(), f, 4)
            b = nonlinear_functional(model, FirstOrderAffine(), bigger, 4)
            assert a <= b + 1e-12

    def test_maximal_distribution_for_indicator_penalty(self):
        # sublinear shift-sup with an indicator penalty: the limit is the
        # supremum of the payoff over the zero-cost shift window
        g = Grid(6.0, 961)
        f = GridFunction.sample(g, lambda x: np.sin(2.0 * x) - 0.1 * x,
                                weight=GrowthWeight(1))
        model = ShiftSup(DiscreteMeasure(np.array([0.0]), np.array([1.0])),
                         PenaltyFunction.indicator(1.0),
                         np.linspace(-1, 1, 161))
        v = nonlinear_functional(model, FirstOrderAffine(), f, 64)
        want = float(np.max(f.eval(np.linspace(-1, 1, 2001))))
        assert v == pytest.approx(want, abs=1e-2)


class TestBruteForceEquivalence:
    def grid_payoff(self):
        # grid spacing 1/120 so that every reachable point of the small
        # enumerations below lands exactly on a node
        g = Grid(2.0, 481)
        return GridFunction.sample(g, lambda x: np.sin(1.3 * x) + 0.25 * x**2,
                                   weight=GrowthWeight(1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_linear_matches_enumeration(self, n):
        f = self.grid_payoff()
        mu = DiscreteMeasure(np.array([-1.0, 0.0, 1.0]),
                             np.array([0.25, 0.5, 0.25]))
        model = Linear(mu)
        a = nonlinear_functional(model, FirstOrderAffine(), f, n)
        b = brute_force_functional(model, FirstOrderAffine(), f, n)
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_entropic_matches_enumeration(self, n):
        f = self.grid_payoff()
        mu = DiscreteMeasure(np.array([-1.0, 0.0, 1.0]),
                             np.array([0.25, 0.5, 0.25]))
        model = Entropic(mu)
        a = nonlinear_functional(model, FirstOrderAffine(), f, n)
        b = brute_force_functional(model, FirstOrderAffine(), f, n)
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shiftsup_matches_enumeration(self, n):
        f = self.grid_payoff()
        mu = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        pen = PenaltyFunction(np.array([0.0, 0.5]), np.array([0.0, 0.25]))
        model = ShiftSup(mu, pen, np.array([-0.5, 0.0, 0.5]))
        a = nonlinear_functional(model, FirstOrderAffine(), f, n)
        b = brute_force_functional(model, FirstOrderAffine(), f, n)
        assert a == pytest.approx(b, abs=1e-10)


def per_point_brute_force(model, scaling, f, n):
    """The enumeration one point at a time: one ``model.expect`` per
    reachable point, memoized on the point rounded to 12 decimals."""
    h = 1.0 / n
    memo = {}

    def value(x, k):
        key = (round(float(x), 12), k)
        if key in memo:
            return memo[key]
        if k == 0:
            out = float(f.eval(x))
        else:
            def payoff(y):
                pts = scaling.map(h, x, np.atleast_1d(np.asarray(y, dtype=float)))
                return np.array([value(p, k - 1) for p in np.atleast_1d(pts)]) / h
            out = h * model.expect(payoff)
        memo[key] = out
        return out

    return value(0.0, n)


THREE_ATOMS = DiscreteMeasure(np.array([-1.0, 0.25, 1.5]),
                              np.array([0.3, 0.5, 0.2]))
SHIFT_PENALTY = PenaltyFunction(np.array([0.0, 0.5]), np.array([0.0, 0.25]))
# name -> (model on a measure, how close the batched value must come to the
# per-point one): row-local models keep their bytes; the BLAS row blocking
# of Linear and ShiftSup and the batch-wide bisection count of Shortfall
# may move the last bits
BATCH_MODELS = {
    "entropic": (Entropic, "bytes"),
    "centered_entropic": (lambda mu: centered(Entropic(mu)), "bytes"),
    "linear": (Linear, "rel"),
    "shift_sup": (lambda mu: ShiftSup(mu, SHIFT_PENALTY,
                                      np.array([-0.5, 0.0, 0.5])), "rel"),
    "shortfall": (lambda mu: Shortfall(mu, 2.0), "abs"),
}
BATCH_SCALINGS = {"affine": FirstOrderAffine(),
                  "perturbed": Perturbed(phi0=lambda x: 0.5 * np.sin(x), lip=0.5)}


def batch_cases():
    for name in BATCH_MODELS:
        for measure in ("two_point", "three_atoms"):
            for scaling in BATCH_SCALINGS:
                # a drift makes every atom sequence reach its own point, so
                # the per-point reference of ShiftSup (9 sample points per
                # node on three atoms) is held to n <= 4
                top = 4 if (name, scaling) == ("shift_sup", "perturbed") else 6
                for n in range(1, top + 1):
                    yield pytest.param(name, measure, scaling, n,
                                       id=f"{name}-{measure}-{scaling}-{n}")


class TestBatchedBruteForce:
    def payoff(self, values=None):
        g = Grid(4.0, 481)
        if values is not None:
            return GridFunction(g, np.full(481, values))
        return GridFunction.sample(g, lambda x: np.sin(1.3 * x) + 0.25 * x**2,
                                   weight=GrowthWeight(1))

    @pytest.mark.parametrize("name, measure, scaling, n", batch_cases())
    def test_matches_per_point_recursion(self, name, measure, scaling, n):
        build, rule = BATCH_MODELS[name]
        mu = BERNOULLI if measure == "two_point" else THREE_ATOMS
        args = (build(mu), BATCH_SCALINGS[scaling], self.payoff(), n)
        got = brute_force_functional(*args)
        want = per_point_brute_force(*args)
        if rule == "bytes":
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        elif rule == "rel":
            assert abs(got - want) <= 1e-15 * abs(want)
        else:
            assert abs(got - want) <= SHORTFALL_TOL

    @pytest.mark.parametrize("model", [Entropic(BERNOULLI), Linear(BERNOULLI),
                                       Shortfall(BERNOULLI, 2.0),
                                       ShiftSup(BERNOULLI, SHIFT_PENALTY,
                                                np.array([-0.5, 0.0, 0.5])),
                                       centered(Entropic(BERNOULLI))],
                             ids=["entropic", "linear", "shortfall", "shift_sup",
                                  "centered_entropic"])
    def test_one_reduction_per_level(self, model, monkeypatch):
        # the probe, one reduction per level below the origin and the
        # origin's expectation, which reduces once; a reduction per
        # reachable point would make 21 reductions and 21 expectations here
        calls = {"reduce": 0, "expect": 0}
        cls = type(model)

        def counted(name):
            inner = getattr(cls, name)

            def call(self, *args):
                calls[name] += 1
                return inner(self, *args)
            return call
        for name in calls:
            monkeypatch.setattr(cls, name, counted(name))
        brute_force_functional(model, FirstOrderAffine(), self.payoff(), 6)
        assert calls == {"reduce": 7, "expect": 1}

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    @pytest.mark.parametrize("model", [Entropic(BERNOULLI), Linear(BERNOULLI)],
                             ids=["entropic", "linear"])
    def test_overflow_raises_at_its_level(self, model, monkeypatch):
        # f / h overflows at level 1 for n = 3; no reduction of values may
        # return and carry the inf upward, only the probe's of zero rows
        returned = []
        inner = type(model).reduce

        def reduce(self, *args):
            out = inner(self, *args)
            returned.append(out)
            return out
        monkeypatch.setattr(type(model), "reduce", reduce)
        with pytest.raises(InputError, match="payoff must be finite at all "
                                             "required sample points"):
            brute_force_functional(model, FirstOrderAffine(),
                                   self.payoff(1e308), 3)
        assert [out.shape for out in returned] == [(0,)]

    @pytest.mark.parametrize("n", [0, -1, 2.5, 3.0, "3"])
    def test_steps_must_be_positive_integers(self, n):
        f = self.payoff()
        model = Entropic(BERNOULLI)
        for functional in (brute_force_functional, nonlinear_functional):
            with pytest.raises(InputError, match="n must be a positive integer"):
                functional(model, FirstOrderAffine(), f, n)
        with pytest.raises(InputError, match="n must be a positive integer"):
            clt_functional(Linear(BERNOULLI), f, n)

    def test_numpy_integer_steps(self):
        f = self.payoff()
        model = Entropic(BERNOULLI)
        for functional in (brute_force_functional, nonlinear_functional):
            assert functional(model, FirstOrderAffine(), f, np.int64(4)) \
                == functional(model, FirstOrderAffine(), f, 4)

    def test_two_dimensional_measure_rejected(self):
        mu = DiscreteMeasure(np.array([[0.0, 1.0], [1.0, 0.0]]),
                             np.array([0.5, 0.5]))
        with pytest.raises(InputError, match="one-dimensional"):
            brute_force_functional(Linear(mu), FirstOrderAffine(),
                                   self.payoff(), 2)

    def test_four_hundred_steps(self):
        # spacing 1/400 puts every reachable point on a node; 400 levels are
        # deeper than Python's default recursion limit
        f = GridFunction.sample(Grid(4.0, 3201),
                                lambda x: np.sin(1.3 * x) + 0.25 * x**2,
                                weight=GrowthWeight(1))
        model = Entropic(BERNOULLI)
        got = brute_force_functional(model, FirstOrderAffine(), f, 400)
        want = nonlinear_functional(model, FirstOrderAffine(), f, 400)
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("model", [
        Linear(THREE_ATOMS), Entropic(THREE_ATOMS), Shortfall(THREE_ATOMS, 2.0),
        ShiftSup(THREE_ATOMS, SHIFT_PENALTY, np.array([-0.5, 0.0, 0.5])),
        ShiftSup(THREE_ATOMS, SHIFT_PENALTY, np.array([0.0, 0.25, 0.5]), symmetric=True),
        centered(Entropic(BERNOULLI)), centered(Linear(BERNOULLI))],
        ids=["linear", "entropic", "shortfall", "shift_sup", "two_point_sup",
             "centered_entropic", "centered_linear"])
    def test_sample_points_do_not_follow_the_payoff(self, model):
        # the oracle's probe assumes it: the same points, in the same order
        # and calls, whatever the payoff's values and row count. The probe
        # itself has zero rows, which every model form reduces to shape (0,)
        rng = np.random.default_rng(5)

        def seen(rows, draw):
            points = []

            def payoff(y):
                points.append(y.tobytes())
                return draw((rows, y.shape[0]))
            return model.reduce(payoff, 0.25).shape, points
        shape, probed = seen(0, np.zeros)
        assert shape == (0,)
        assert probed == seen(1, np.zeros)[1] == seen(3, rng.standard_normal)[1]

    @pytest.mark.parametrize("n", [1, 3])
    def test_point_the_probe_did_not_reach(self, n):
        class Wandering(ExpectationModel):
            # a two-point average whose atoms move by 1/4 after its first call
            measure = BERNOULLI

            def __init__(self):
                self.calls = 0

            def reduce(self, payoff, t=1.0):
                self.calls += 1
                atoms = self.measure.atoms + (0.25 if self.calls > 1 else 0.0)
                return payoff(atoms) @ self.measure.weights
        with pytest.raises(InputError, match="did not reach"):
            brute_force_functional(Wandering(), FirstOrderAffine(), self.payoff(), n)

    def test_tells_time_step_error_from_grid_error(self):
        # the model and payoff of clt_two_point_gaussian. The payoff is
        # convex, so the widest shift, 1, wins every step; its step sqrt(1/n)
        # is a whole number of the grid's 1/128 spacings at n = 16 and 64,
        # and at n = 32 the grid iterate interpolates between nodes
        model = ShiftSup(DiscreteMeasure([0.0], [1.0]),
                         PenaltyFunction.indicator(1.0),
                         np.linspace(0.0, 1.0, 33), symmetric=True)
        f = GridFunction.sample(Grid(6.0, 1537),
                                lambda x: np.minimum(np.cosh(x), np.cosh(6.0)),
                                GrowthWeight(2))
        gap = {n: brute_force_functional(model, SecondOrder(), f, n)
               - nonlinear_functional(model, SecondOrder(), f, n)
               for n in (16, 32, 64)}
        assert abs(gap[16]) <= 1e-11 and abs(gap[64]) <= 1e-11
        assert abs(gap[32]) > 1e-4


class TestExactTails:
    def test_single_coin(self):
        probs = exact_tail_probabilities(BERNOULLI, 0.5, [1, 2, 3])
        assert probs[0] == pytest.approx(0.5)        # P(xi >= 0.5)
        assert probs[1] == pytest.approx(0.25)       # both +1
        assert probs[2] == pytest.approx(0.125)      # sum >= 1.5 -> all three heads

    def test_matches_binomial_formula(self):
        from math import comb
        n = 40
        p = exact_tail_probabilities(BERNOULLI, 0.5, [n])[0]
        want = sum(comb(n, k) for k in range(30, 41)) / 2**n
        assert p == pytest.approx(want, rel=1e-12)

    def test_matches_monte_carlo(self):
        n, trials = 100, 20000
        p = exact_tail_probabilities(BERNOULLI, 0.2, [n])[0]
        w = BERNOULLI.weights
        idx = np.random.default_rng(11).choice(len(w), n * trials, p=w)
        draws = BERNOULLI.atoms[idx, 0].reshape(trials, n)
        freq = float(np.mean(draws.mean(axis=1) >= 0.2))
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= 4 * se

    def test_nonlattice_atoms_rejected(self):
        mu = DiscreteMeasure(np.array([0.0, np.pi]), np.array([0.5, 0.5]))
        with pytest.raises(InputError):
            exact_tail_probabilities(mu, 1.0, [4])

    @pytest.mark.parametrize("n_grid", [[], [0, 2], [3, 3]])
    def test_n_grid_rejected(self, n_grid):
        with pytest.raises(InputError, match="n grid"):
            exact_tail_probabilities(BERNOULLI, 0.5, n_grid)


class TestLdRate:
    def test_bernoulli_bound_and_slope(self):
        report = ld_rate(BERNOULLI, 0.5, list(range(200, 2001, 200)))
        want = -(0.75 * np.log(1.5) + 0.25 * np.log(0.5))
        assert report.bound == pytest.approx(want, abs=1e-4)
        assert report.fitted_rate <= report.bound + 1e-3
        assert all(v <= report.bound + 1e-12 for v in report.values)
        assert report.passed

    def test_threshold_below_mean_gives_zero_bound(self):
        report = ld_rate(BERNOULLI, -0.5, [10, 20, 30])
        assert report.bound == 0.0
        assert report.passed

    def test_large_shift_radius_gives_zero_bound(self):
        report = ld_rate(BERNOULLI, 0.5, [10, 20, 30], shift_radius=0.6)
        assert report.bound == 0.0
        assert report.passed

    def test_impossible_event_rejected(self):
        with pytest.raises(InputError, match="probability zero for every n"):
            ld_rate(BERNOULLI, 1.5, [4, 8])

    def test_csv(self, tmp_path):
        report = ld_rate(BERNOULLI, 0.5, [100, 200, 300])
        p = tmp_path / "report.csv"
        report.to_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "n,value,fitted_rate,bound,pass"
        assert len(lines) == 4


class TestPolyRate:
    def test_bernoulli_p2(self):
        report = poly_rate(BERNOULLI, 2.0, 0.5, list(range(200, 2001, 200)))
        # shortfall conjugate at 0.5 is sqrt(5)/2 - 1
        want = (np.sqrt(5.0) / 2.0 - 1.0) ** -2
        assert report.bound == pytest.approx(want, rel=1e-3)
        assert report.passed

    def test_threshold_below_mean_gives_infinite_bound(self):
        report = poly_rate(BERNOULLI, 2.0, -0.5, [10, 20])
        assert report.bound == np.inf
        assert report.passed

    def test_bound_grows_with_power(self):
        # the shortfall conjugate at 0.5 decays roughly like 1/p while the
        # certificate raises it to the -p, so the bound weakens as p grows
        b = [poly_rate(BERNOULLI, p, 0.5, [50, 100]).bound for p in (2.0, 3.0)]
        assert b[1] > b[0]

    def test_power_out_of_range(self):
        with pytest.raises(InputError):
            poly_rate(BERNOULLI, 5.0, 0.5, [10])


class TestCltFunctional:
    def quad(self):
        g = Grid(8.0, 257)
        return GridFunction.sample(g, lambda x: np.minimum(x**2, 36.0),
                                   weight=GrowthWeight(2))

    def test_affine_payoff_vanishes(self):
        g = Grid(8.0, 257)
        f = GridFunction.sample(g, lambda x: 0.7 * x, weight=GrowthWeight(2))
        for n in (1, 4):
            assert clt_functional(Linear(BERNOULLI), f, n) == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_identity(self):
        for n in (1, 4, 16):
            assert clt_functional(Linear(BERNOULLI), self.quad(), n) \
                == pytest.approx(1.0, abs=1e-8)

    def test_uncentered_model_rejected(self):
        mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(InputError, match="needs a centered model"):
            clt_functional(Linear(mu), self.quad(), 4)

    def test_invariant_under_recentering(self):
        model = Linear(BERNOULLI)
        same = centered(model)
        f = self.quad()
        assert clt_functional(model, f, 4) == pytest.approx(
            clt_functional(same, f, 4), abs=1e-8)

    def test_two_point_sup_converges_to_gaussian(self):
        g = Grid(6.0, 769)
        f = GridFunction.sample(g, lambda x: np.minimum(np.cosh(x), np.cosh(6.0)),
                                weight=GrowthWeight(2))
        model = ShiftSup(
            DiscreteMeasure(np.array([0.0]), np.array([1.0])),
            PenaltyFunction.indicator(1.0), np.linspace(0, 1, 17), symmetric=True)
        v = clt_functional(model, f, 64)
        gx, gw = np.polynomial.hermite.hermgauss(96)
        want = float(gw @ np.cosh(np.sqrt(2.0) * gx) / np.sqrt(np.pi))
        assert v == pytest.approx(want, abs=2e-2)


class TestGeneratorCheck:
    def test_drift_family_on_sine(self):
        g = Grid(4.0, 1025)
        f = GridFunction.sample(g, np.sin)
        model = Linear(DiscreteMeasure(np.array([0.5]), np.array([1.0])))
        op = OneStepOperator(model, FirstOrderAffine())
        diag = generator_check(op, f, [1/8, 1/16, 1/32, 1/64], (-2.0, 2.0))
        # A f = m cos x; defect decays first order in h
        assert all(b <= a + 1e-12 for a, b in zip(diag.defects, diag.defects[1:]))
        assert diag.final_defect <= 1e-2
        i0 = np.argmin(np.abs(diag.nodes))
        assert diag.analytic[i0] == pytest.approx(0.5, abs=1e-4)

    def test_second_order_quadratic_exact(self):
        g = Grid(8.0, 2049)
        f = GridFunction.sample(g, lambda x: np.minimum(x**2, 36.0),
                                weight=GrowthWeight(2))
        op = OneStepOperator(Linear(BERNOULLI), SecondOrder())
        diag = generator_check(op, f, [1/4, 1/16, 1/64], (-2.0, 2.0))
        assert np.allclose(diag.analytic, 1.0, atol=1e-9)
        # true defect vanishes; measured one sits at the interpolation floor
        floor = f.grid.spacing**2 * 2 / (4 * (1/64))
        assert diag.final_defect <= floor + 1e-12

    def test_constant_payoff_zero_generator(self):
        g = Grid(4.0, 513)
        f = GridFunction.sample(g, lambda x: np.full_like(x, 3.0))
        op = OneStepOperator(Entropic(BERNOULLI), FirstOrderAffine())
        diag = generator_check(op, f, [1/8, 1/64], (-2.0, 2.0))
        assert diag.final_defect <= 1e-12
        assert np.allclose(diag.analytic, 0.0, atol=1e-12)

    @pytest.mark.parametrize("scaling", [FirstOrderAffine(), SecondOrder(),
                                         Perturbed(phi0=np.sin, lip=1.0)])
    def test_analytic_is_the_expectation_of_the_generator_payoff(self, scaling):
        # at every node of the box, the edges and their one-sided
        # differences included, against psi_0 and the differences by hand
        g = Grid(4.0, 129)
        f = GridFunction.sample(g, lambda x: np.sin(x) + 0.1 * x**3)
        op = OneStepOperator(Entropic(BERNOULLI), scaling)
        x = g.axis
        if isinstance(scaling, SecondOrder):
            c = 0.5 * f.fd_hessian()[:, None]
            want = op.model.reduce(lambda y: c * y[:, 0] ** 2)
        else:
            c = f.fd_gradient()[:, None]
            drift = 0.0 if scaling.drift is None else scaling.drift(x[:, None])
            want = op.model.reduce(lambda y: c * (drift + y[:, 0]))
        diag = generator_check(op, f, [0.5], (-4.0, 4.0))
        assert np.array_equal(diag.nodes, x) and np.array_equal(diag.analytic, want)

    def test_estimate_at_origin(self):
        g = Grid(4.0, 1025)
        f = GridFunction.sample(g, np.sin)
        model = Linear(DiscreteMeasure(np.array([0.5]), np.array([1.0])))
        op = OneStepOperator(model, FirstOrderAffine())
        diag = generator_check(op, f, [1/64], (-2.0, 2.0))
        assert diag.estimate_at(0.0) == pytest.approx(0.5, abs=1e-2)
