import numpy as np
import pytest

from chernofflab import (DiscreteMeasure, Entropic, FirstOrderAffine, Grid,
                         GridFunction, GrowthWeight, Linear, OneStepOperator,
                         PenaltyFunction, Perturbed, RateFunction, SecondOrder,
                         ShiftSup, SymmetricTwoPointSup, brute_force_functional,
                         clt_functional, exact_tail_probabilities,
                         generator_check, hopf_lax, ld_rate,
                         legendre, log_mgf, nonlinear_functional, one_step,
                         poly_rate, recursive_statistic, sample_iid, two_point)
from chernofflab.errors import (DegenerateSetError, InputError,
                                PreconditionError)
BERNOULLI = two_point()


class TestRecursiveStatistic:
    def test_affine_fold_is_scaled_sum(self):
        x = recursive_statistic(FirstOrderAffine(), 1.0 / 3.0, [1.0, 2.0, 3.0])
        assert x == pytest.approx(2.0)

    def test_trivial_perturbation_reduces_to_average(self):
        fam = Perturbed(phi0=lambda x: 0.0 * x, lip=0.0)
        x = recursive_statistic(fam, 0.25, [1.0, 2.0, 3.0, 4.0])
        assert x == pytest.approx(2.5)

    def test_two_step_hand_fold(self):
        fam = Perturbed(phi0=np.sin, lip=1.0)
        x = recursive_statistic(fam, 0.5, [0.0, 0.0])
        assert x == pytest.approx(0.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(InputError):
            recursive_statistic(FirstOrderAffine(), 1.0, [])


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
        lam = log_mgf(BERNOULLI, z)
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
        draws = sample_iid(BERNOULLI, n * trials, seed=11).reshape(trials, n)
        freq = float(np.mean(draws.mean(axis=1) >= 0.2))
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= 4 * se

    def test_nonlattice_atoms_rejected(self):
        mu = DiscreteMeasure(np.array([0.0, np.pi]), np.array([0.5, 0.5]))
        with pytest.raises(InputError):
            exact_tail_probabilities(mu, 1.0, [4])


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
        with pytest.raises(DegenerateSetError):
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
        f = GridFunction.sample(g, lambda x: 0.7 * x, extension="linear",
                                weight=GrowthWeight(2))
        for n in (1, 4):
            assert clt_functional(Linear(BERNOULLI), f, n) == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_identity(self):
        for n in (1, 4, 16):
            assert clt_functional(Linear(BERNOULLI), self.quad(), n) \
                == pytest.approx(1.0, abs=1e-8)

    def test_uncentered_model_rejected(self):
        mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(PreconditionError):
            clt_functional(Linear(mu), self.quad(), 4)

    def test_invariant_under_recentering(self):
        from chernofflab import centered
        model = Linear(BERNOULLI)
        same = centered(model)
        f = self.quad()
        assert clt_functional(model, f, 4) == pytest.approx(
            clt_functional(same, f, 4), abs=1e-8)

    def test_two_point_sup_converges_to_gaussian(self):
        g = Grid(6.0, 769)
        f = GridFunction.sample(g, lambda x: np.minimum(np.cosh(x), np.cosh(6.0)),
                                weight=GrowthWeight(2))
        model = SymmetricTwoPointSup(
            DiscreteMeasure(np.array([0.0]), np.array([1.0])),
            PenaltyFunction.indicator(1.0), np.linspace(0, 1, 17))
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
    def test_generator_values_index_the_nearest_node(self, scaling):
        # against a per-node argmin of the distance: nodes, points off the
        # nodes, exact midpoints (ties go to the lower node) and points
        # beyond the box
        from chernofflab.limits import generator_values
        g = Grid(4.0, 129)
        h = g.spacing
        f = GridFunction.sample(g, lambda x: np.sin(x) + 0.1 * x**3)
        rng = np.random.default_rng(7)
        x = np.concatenate([g.axis, g.axis[:-1] + 0.5 * h,
                            g.axis + rng.uniform(-0.49, 0.49, g.axis.size) * h,
                            [-9.0, -4.0 - 0.3 * h, 4.0 + 0.7 * h, 11.0]])
        op = OneStepOperator(Entropic(BERNOULLI), scaling)
        idx = [int(np.argmin(np.abs(g.axis - xk))) for xk in x]
        if isinstance(scaling, SecondOrder):
            c = 0.5 * f.fd_hessian()[idx][:, None]
            want = op.model.reduce(lambda y: c * y[:, 0] ** 2)
        else:
            c = f.fd_gradient()[idx][:, None]
            want = op.model.reduce(lambda y: c * scaling.psi0(x[:, None], y[:, 0]))
        assert np.array_equal(generator_values(op, f, x), want)

    def test_estimate_at_origin(self):
        g = Grid(4.0, 1025)
        f = GridFunction.sample(g, np.sin)
        model = Linear(DiscreteMeasure(np.array([0.5]), np.array([1.0])))
        op = OneStepOperator(model, FirstOrderAffine())
        diag = generator_check(op, f, [1/64], (-2.0, 2.0))
        assert diag.estimate_at(0.0) == pytest.approx(0.5, abs=1e-2)


class TestSampleIid:
    def test_point_mass_all_zero(self):
        mu = DiscreteMeasure(np.array([0.0]), np.array([1.0]))
        assert np.all(sample_iid(mu, 100, seed=0) == 0.0)

    def test_determinism(self):
        a = sample_iid(BERNOULLI, 1000, seed=42)
        b = sample_iid(BERNOULLI, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_mean_within_clt_band(self):
        n = 100_000
        draws = sample_iid(BERNOULLI, n, seed=3)
        assert abs(draws.mean()) <= 3.0 / np.sqrt(n)

    def test_frequencies_match_weights(self):
        mu = DiscreteMeasure(np.array([-1.0, 0.0, 2.0]),
                             np.array([0.2, 0.5, 0.3]))
        n = 100_000
        draws = sample_iid(mu, n, seed=4)
        for atom, w in zip(mu.atoms[:, 0], mu.weights):
            freq = np.mean(draws == atom)
            assert abs(freq - w) <= 4 * np.sqrt(w * (1 - w) / n)
