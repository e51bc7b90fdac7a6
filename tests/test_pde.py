import numpy as np
import pytest

from chernofflab import (DiscreteMeasure, Entropic, Grid, GridFunction, Hamiltonian1,
                         Hamiltonian2, Linear, PenaltyFunction, ShiftSup, Shortfall,
                         centered, gauss_hermite, solve_g_heat, solve_hj, two_point)
from chernofflab.errors import InputError


def sample(fn, R=4.0, N=513):
    return GridFunction.sample(Grid(R, N), fn)


class TestHamiltonian1:
    def test_from_model_quadratic(self):
        ham = Hamiltonian1.from_model(Entropic(gauss_hermite(64)),
                                      np.linspace(-6, 6, 241))
        assert ham(1.0) == pytest.approx(0.5, abs=1e-6)
        assert ham(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_convexity_enforced(self):
        p = np.linspace(-1, 1, 11)
        with pytest.raises(InputError):
            Hamiltonian1(p, -p**2)

    def test_max_slope(self):
        # the largest |H'| over the whole grid, |p| = 4 at its ends
        p = np.linspace(-4, 4, 801)
        ham = Hamiltonian1(p, p**2 / 2)
        assert ham.max_slope == pytest.approx(4.0, abs=1e-2)


class TestHamiltonian2:
    def test_positive_part_form(self):
        g2 = Hamiltonian2(np.linspace(0, 1, 11), np.zeros(11))
        assert g2(2.0) == pytest.approx(1.0)
        assert g2(-3.0) == pytest.approx(0.0)
        assert g2(0.0) == pytest.approx(0.0)

    def test_monotone_in_argument(self):
        g2 = Hamiltonian2(np.linspace(0, 1, 11), np.zeros(11), sigma2=0.5)
        a = np.linspace(-3, 3, 41)
        vals = g2(a)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_needs_zero_cost_entry(self):
        with pytest.raises(InputError):
            Hamiltonian2(np.array([0.0, 1.0]), np.array([0.5, 1.0]))

    def test_linear_model_gives_the_heat_equation(self):
        g2 = Hamiltonian2.from_model(Linear(two_point()))
        assert g2.lam_grid.tolist() == [0.0] and g2.costs.tolist() == [0.0]
        assert g2.sigma2 == 1.0
        assert g2(2.0) == 1.0

    def test_shift_model_gives_its_shifts_and_costs(self):
        # the same bytes as G built by hand from the shift grid and penalty
        measure = DiscreteMeasure([0.0], [1.0])
        penalty, lam = PenaltyFunction.indicator(1.0), np.linspace(0.0, 1.0, 33)
        g2 = Hamiltonian2.from_model(ShiftSup(measure, penalty, lam, symmetric=True))
        want = Hamiltonian2(lam, np.asarray(penalty(np.abs(lam)), dtype=float),
                            float(measure.mean_and_cov()[1][0, 0]))
        assert g2.lam_grid.tobytes() == want.lam_grid.tobytes()
        assert g2.costs.tobytes() == want.costs.tobytes()
        assert np.float64(g2.sigma2).tobytes() == np.float64(want.sigma2).tobytes()

    @pytest.mark.parametrize("model", [Entropic(two_point()), Shortfall(two_point()),
                                       centered(Linear(two_point()))],
                             ids=["entropic", "shortfall", "centered"])
    def test_model_without_a_known_g_raises(self, model):
        with pytest.raises(InputError, match="no known second-order G"):
            Hamiltonian2.from_model(model)


class TestSolveHJ:
    def test_zero_hamiltonian_identity(self):
        f = sample(np.sin)
        ham = Hamiltonian1(np.linspace(-5, 5, 101), np.zeros(101))
        u = solve_hj(ham, f, 1.0)
        assert np.allclose(u.values, f.values, atol=1e-12)

    def test_time_zero_identity(self):
        f = sample(np.sin)
        ham = Hamiltonian1(np.linspace(-5, 5, 101), np.abs(np.linspace(-5, 5, 101)))
        assert solve_hj(ham, f, 0.0) is f

    def test_eikonal_cone_solution(self):
        # u_t = |u_x| from -|x| spreads the kink: u(1, x) = -max(|x| - 1, 0)
        f = sample(lambda x: -np.abs(x), R=4.0, N=1025)
        p = np.linspace(-3, 3, 601)
        ham = Hamiltonian1(p, np.abs(p))
        u = solve_hj(ham, f, 1.0)
        g = f.grid
        mask = np.abs(g.axis) <= 2.0
        want = -np.maximum(np.abs(g.axis[mask]) - 1.0, 0.0)
        err = np.max(np.abs(u.values[mask] - want))
        assert err <= 1.2 * np.sqrt(g.spacing)

    def test_quadratic_hamiltonian_matches_closed_form(self):
        f = sample(lambda x: -(x - 1.0)**2, R=4.0, N=2049)
        p = np.linspace(-12, 12, 971)
        ham = Hamiltonian1(p, p**2 / 2)
        u = solve_hj(ham, f, 1.0)
        assert u.values[f.grid.origin_index] == pytest.approx(-1.0 / 3.0, abs=5e-2)

    def test_nonuniform_gradient_grid(self):
        # H = p^2/2 sampled densely near p = 0: the march reads H through
        # the interpolant of Hamiltonian1 on any strictly increasing grid
        f = sample(lambda x: -(x - 1.0)**2, N=257)
        s = np.linspace(-1.0, 1.0, 481)
        p_uniform = 12.0 * s
        p_graded = 12.0 * s * np.sqrt(np.abs(s))
        uniform = solve_hj(Hamiltonian1(p_uniform, p_uniform**2 / 2), f, 1.0)
        ham = Hamiltonian1(p_graded, p_graded**2 / 2)
        graded = solve_hj(ham, f, 1.0)
        mask = f.grid.within(-2.0, 2.0)
        assert np.max(np.abs(graded.values - uniform.values)[mask]) <= 1e-3
        # the plain march, with the solver's step and dissipation
        h = f.grid.spacing
        alpha = ham.max_slope
        steps = int(np.ceil(1.0 / (0.5 * h / (2.0 * alpha))))
        dt = 1.0 / steps
        u = f.values.copy()
        for _ in range(steps):
            unew = u.copy()
            lap = u[3:-1] - 2.0 * u[2:-2] + u[1:-3]
            unew[2:-2] = (u[2:-2] + dt * ham((u[3:-1] - u[1:-3]) / (2.0 * h))
                          + alpha * dt / (2.0 * h) * lap)
            u = unew
        assert np.max(np.abs(graded.values - u)) <= 1e-12 * np.max(np.abs(u))

    def test_comparison_principle(self):
        rng = np.random.default_rng(7)
        g = Grid(4.0, 257)
        base = np.sin(g.axis)
        a = GridFunction(g, base)
        b = GridFunction(g, base + rng.uniform(0.0, 0.5, size=257))
        p = np.linspace(-4, 4, 161)
        ham = Hamiltonian1(p, p**2 / 2)
        ua = solve_hj(ham, a, 0.5)
        ub = solve_hj(ham, b, 0.5)
        assert np.all(ua.values <= ub.values + 1e-12)

    def test_constants_invariant(self):
        f = sample(lambda x: np.full_like(x, 2.0))
        p = np.linspace(-3, 3, 121)
        ham = Hamiltonian1(p, p**2 / 2)
        u = solve_hj(ham, f, 1.0)
        assert np.allclose(u.values, 2.0, atol=1e-12)

    def test_consistency_order(self):
        # halving h reduces the error against the closed form by >= 1.4x
        p = np.linspace(-12, 12, 971)
        ham = Hamiltonian1(p, p**2 / 2)
        errs = []
        for N in (1025, 2049):
            f = sample(lambda x: -(x - 1.0)**2, R=4.0, N=N)
            u = solve_hj(ham, f, 1.0)
            errs.append(abs(u.values[f.grid.origin_index] + 1.0 / 3.0))
        assert errs[0] / max(errs[1], 1e-15) >= 1.4

    def test_generator_consistency(self):
        # one explicit step: (u - f) / dt ~ H(f') at interior nodes
        f = sample(np.sin, R=4.0, N=513)
        p = np.linspace(-3, 3, 601)
        ham = Hamiltonian1(p, p**2 / 2)
        g = f.grid
        alpha = ham.max_slope  # the solver's dissipation bound
        dt = 0.25 * g.spacing / (2 * alpha)
        u = solve_hj(ham, f, dt)
        mask = np.abs(g.axis) <= 2.0
        quot = (u.values[mask] - f.values[mask]) / dt
        want = ham(f.fd_gradient()[mask])
        # the Lax-Friedrichs defect is dominated by its dissipation alpha h/2 |u_xx|
        assert np.max(np.abs(quot - want)) <= 1.3 * alpha * g.spacing / 2 + 1e-6

    def test_2d_rejected(self):
        g = Grid(2.0, 17, dimension=2)
        f = GridFunction.sample(g, lambda x, y: x + y)
        ham = Hamiltonian1(np.linspace(-2, 2, 41), np.abs(np.linspace(-2, 2, 41)))
        with pytest.raises(InputError):
            solve_hj(ham, f, 0.1)


    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        ham = Hamiltonian1(np.linspace(-2, 2, 41), np.linspace(-2, 2, 41) ** 2)
        with pytest.raises(InputError, match="finite"):
            solve_hj(ham, sample(np.sin, N=129), t)


class TestSolveGHeat:
    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        g2 = Hamiltonian2(np.array([0.0, 1.0]), np.array([0.0, 0.0]), sigma2=0.0)
        with pytest.raises(InputError, match="finite"):
            solve_g_heat(g2, sample(np.sin, N=129), t)

    def test_linear_heat_of_quadratic(self):
        # u_t = u_xx / 2 sends x^2 to x^2 + t on interior compacts
        f = sample(lambda x: np.minimum(x**2, 36.0), R=8.0, N=513)
        g2 = Hamiltonian2(np.array([0.0, 1.0]), np.array([0.0, 0.0]), sigma2=0.0)
        # lam grid {0, 1} with zero cost: G(a) = max(a, 0)/2 = a/2 for convex data
        u = solve_g_heat(g2, f, 0.5)
        mask = np.abs(f.grid.axis) <= 2.0
        assert np.allclose(u.values[mask], f.grid.axis[mask]**2 + 0.5, atol=2e-3)

    def test_convex_payoff_saturates_max_variance(self):
        # for convex f the flow is the sigma-bar heat flow: Gaussian integral
        f = sample(lambda x: np.minimum(np.cosh(x), np.cosh(6.0)), R=6.0, N=769)
        lam = np.linspace(0.0, 1.0, 17)
        g2 = Hamiltonian2(lam, np.zeros(17))
        u = solve_g_heat(g2, f, 1.0)
        gx, gw = np.polynomial.hermite.hermgauss(96)
        want = float(gw @ np.cosh(np.sqrt(2.0) * gx) / np.sqrt(np.pi))
        assert u.values[f.grid.origin_index] == pytest.approx(want, abs=5e-3)

    def test_affine_data_invariant(self):
        f = sample(lambda x: 2 * x + 1, R=4.0, N=257)
        g2 = Hamiltonian2(np.linspace(0, 1, 9), np.zeros(9))
        u = solve_g_heat(g2, f, 0.5)
        mask = np.abs(f.grid.axis) <= 2.0
        assert np.allclose(u.values[mask], f.values[mask], atol=1e-10)

    def test_comparison_principle(self):
        rng = np.random.default_rng(8)
        g = Grid(4.0, 257)
        a = GridFunction(g, np.cos(g.axis))
        b = GridFunction(g, np.cos(g.axis) + rng.uniform(0, 0.5, 257))
        g2 = Hamiltonian2(np.linspace(0, 1, 9), np.zeros(9), sigma2=0.3)
        ua = solve_g_heat(g2, a, 0.3)
        ub = solve_g_heat(g2, b, 0.3)
        assert np.all(ua.values <= ub.values + 1e-12)

    def test_constants_invariant(self):
        f = sample(lambda x: np.full_like(x, -1.0))
        g2 = Hamiltonian2(np.linspace(0, 1, 9), np.zeros(9))
        u = solve_g_heat(g2, f, 1.0)
        assert np.allclose(u.values, -1.0, atol=1e-12)

    def test_consistency_order(self):
        g2 = Hamiltonian2(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        errs = []
        for N in (193, 385):
            f = sample(lambda x: np.minimum(np.cosh(x), np.cosh(6.0)), R=6.0, N=N)
            u = solve_g_heat(g2, f, 1.0)
            gx, gw = np.polynomial.hermite.hermgauss(96)
            want = float(gw @ np.cosh(np.sqrt(2.0) * gx) / np.sqrt(np.pi))
            errs.append(abs(u.values[f.grid.origin_index] - want))
        assert errs[0] / max(errs[1], 1e-15) >= 1.4

    def test_generator_consistency(self):
        f = sample(lambda x: np.cos(x), R=4.0, N=513)
        g2 = Hamiltonian2(np.linspace(0, 1, 17), np.zeros(17), sigma2=0.2)
        h = f.grid.spacing
        dt = 0.25 * h * h / (2 * g2.max_diffusion)
        u = solve_g_heat(g2, f, dt)
        mask = np.abs(f.grid.axis) <= 2.0
        quot = (u.values[mask] - f.values[mask]) / dt
        want = g2(f.fd_hessian()[mask])
        assert np.max(np.abs(quot - want)) <= 1e-3
