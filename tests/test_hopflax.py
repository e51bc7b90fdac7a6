import numpy as np
import pytest

from chernofflab import (DiscreteMeasure, Entropic, FirstOrderAffine, Grid,
                         GridFunction, GrowthWeight, Linear, OneStepOperator,
                         PenaltyFunction, RateFunction, ShiftSup,
                         chernoff_limit, conjugate_rate, envelope,
                         gauss_hermite, hopf_lax, legendre,
                         semigroup_defect, two_point)
from chernofflab import _kernels as K
from chernofflab import hopflax
from chernofflab.errors import GridTooSmallError, InputError


def indicator_rate(at=0.0):
    # 0 at `at`, effectively +inf at every other grid point
    y = np.array([at - 1.0, at - 1e-9, at, at + 1e-9, at + 1.0])
    v = np.array([np.inf, np.inf, 0.0, np.inf, np.inf])
    return RateFunction(y, v)


class TestRateFunction:
    def test_negative_rate_rejected(self):
        with pytest.raises(InputError):
            RateFunction(np.array([0.0, 1.0]), np.array([-1.0, 0.0]))

    def test_csv_bytes(self, tmp_path):
        # the rate.csv layout: a y,phi header, %.12g numbers, the token inf
        r = RateFunction(np.array([-1.0, 0.0, 0.5]), np.array([np.inf, 0.0, 1 / 3]))
        p = tmp_path / "rate.csv"
        r.to_csv(p)
        assert p.read_text() == "y,phi\n-1,inf\n0,0\n0.5,0.333333333333\n"


class TestConjugateRate:
    def test_point_mass_rate_is_indicator_at_mean(self):
        model = Linear(DiscreteMeasure(np.array([0.5]), np.array([1.0])))
        z = np.linspace(-8, 8, 321)
        y = np.linspace(-3, 3, 241)
        rate = conjugate_rate(model, z, y)
        i = np.argmin(np.abs(y - 0.5))
        assert rate.values[i] == pytest.approx(0.0, abs=1e-9)
        # steep growth away from the mean: slope ~ z-grid radius
        assert rate.values[-1] >= 8.0 * (3.0 - 0.5) - 1e-6

    def test_entropic_gaussian_rate_is_half_square(self):
        model = Entropic(gauss_hermite(64))
        z = np.linspace(-8, 8, 1601)
        y = np.linspace(-3, 3, 601)
        rate = conjugate_rate(model, z, y)
        assert np.allclose(rate.values, y**2 / 2, atol=2e-4)

    def test_sublinear_sup_model_rate_is_indicator_interval(self):
        # E[z xi] = max_{|s|<=1} z s = |z| via the indicator shift supremum
        model = ShiftSup(DiscreteMeasure(np.array([0.0]), np.array([1.0])),
                         PenaltyFunction.indicator(1.0),
                         np.linspace(-1, 1, 201))
        z = np.linspace(-8, 8, 801)
        y = np.linspace(-2, 2, 161)
        rate = conjugate_rate(model, z, y)
        inside = np.abs(y) <= 1.0
        assert np.allclose(rate.values[inside], 0.0, atol=1e-9)
        assert rate.values[0] >= 7.9  # steep outside [-1, 1]

    def test_missing_zero_in_grid_rejected(self):
        model = Linear(two_point())
        with pytest.raises(InputError):
            conjugate_rate(model, np.linspace(-7.7, 8.1, 100), np.linspace(-1, 1, 11))

    def test_too_small_dual_grid_detected(self):
        model = Linear(DiscreteMeasure(np.array([3.0]), np.array([1.0])))
        z = np.linspace(-8, 8, 321)
        with pytest.raises(GridTooSmallError):
            conjugate_rate(model, z, np.linspace(-1, 1, 41))


class TestHopfLax:
    def test_indicator_rate_identity(self):
        f = GridFunction.sample(Grid(4.0, 257), np.sin)
        u = hopf_lax(f, 1.0, indicator_rate())
        assert np.allclose(u.values, f.values, atol=1e-12)

    def test_time_zero_identity(self):
        f = GridFunction.sample(Grid(4.0, 257), np.sin)
        rate = RateFunction(np.linspace(-2, 2, 41), np.linspace(-2, 2, 41) ** 2)
        assert hopf_lax(f, 0.0, rate) is f

    def test_concave_quadratic_value(self):
        g = Grid(8.0, 1025)
        f = GridFunction.sample(g, lambda x: -(x - 1.0)**2)
        y = np.linspace(-6, 6, 4801)
        rate = RateFunction(y, y**2 / 2)
        u = hopf_lax(f, 1.0, rate)
        # tolerance: payoff interpolation quantum h^2 |f''| / 8 plus y-grid bias
        assert u.values[g.origin_index] == pytest.approx(-1.0 / 3.0, abs=1e-4)

    def test_flat_rate_is_windowed_maximum(self):
        g = Grid(4.0, 257)
        f = GridFunction.sample(g, np.sin)
        y = np.linspace(-1, 1, 201)
        rate = RateFunction(y, np.zeros_like(y))
        u = hopf_lax(f, 1.0, rate)
        i0 = g.origin_index
        want = np.max(f.eval(np.linspace(-1, 1, 201)))
        assert u.values[i0] == pytest.approx(want, abs=1e-9)

    def test_monotone_and_constant_preserving(self):
        g = Grid(4.0, 129)
        rate = RateFunction(np.linspace(-2, 2, 41), np.linspace(-2, 2, 41) ** 2)
        c = GridFunction.sample(g, lambda x: np.full_like(x, 2.0))
        assert np.allclose(hopf_lax(c, 0.7, rate).values, 2.0, atol=1e-9)
        rng = np.random.default_rng(6)
        a = GridFunction(g, rng.normal(size=129))
        b = a.replace_values(a.values + rng.uniform(0, 1, 129))
        ua, ub = hopf_lax(a, 0.5, rate), hopf_lax(b, 0.5, rate)
        assert np.all(ua.values <= ub.values + 1e-12)

    def test_dominates_shift_by_argmin(self):
        g = Grid(4.0, 257)
        f = GridFunction.sample(g, np.sin)
        y = np.linspace(-2, 2, 81)
        rate = RateFunction(y, (y - 0.5) ** 2)
        t = 0.5
        u = hopf_lax(f, t, rate)
        shifted = f.shift(t * y[np.argmin(rate.values)])
        interior = np.abs(g.axis) <= 2.0
        assert np.all(u.values[interior] >= shifted.values[interior] - 1e-12)

    @pytest.mark.parametrize("t", [0.3, 1.0])
    @pytest.mark.parametrize("extension", ["constant", "linear"])
    def test_1d_matches_per_point_gather(self, extension, t):
        # the shift stencil against interp1 at every node and candidate; the
        # candidates t * y reach beyond the box [-4, 4] on both sides, span
        # more than one chunk and include infinite (skipped) rate entries
        g = Grid(4.0, 129)
        f = GridFunction.sample(g, lambda x: np.sin(2.0 * x) + 0.1 * x**2,
                                extension=extension)
        y = np.linspace(-12.0, 12.0, 601)
        phi = 0.05 * y**2
        phi[::7] = np.inf
        got = hopf_lax(f, t, RateFunction(y, phi)).values
        fin = np.isfinite(phi)
        gathered = K.interp1(f.values, -g.half_width, g.spacing,
                             g.axis[:, None] + t * y[fin], extension == "constant")
        want = (gathered - t * phi[fin]).max(axis=1)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("extension", ["constant", "linear"])
    def test_2d_matches_per_chunk_eval(self, extension):
        # against a plain per-chunk eval of the candidates, bit for bit;
        # 528 finite candidates make three chunks and reach beyond the box
        g = Grid(2.0, 17, dimension=2)
        f = GridFunction.sample(g, lambda x, y: np.sin(x) * np.cos(2 * y) + 0.1 * x * y,
                                extension=extension)
        r = np.linspace(0.0, 3.0, 33)
        rate = RateFunction(r, r**2 / 2, radial=True, directions=16)
        t = 0.7
        ys, phis = hopflax._candidates(rate)
        assert ys.shape[0] > 2 * hopflax._CHUNK
        nodes = g.nodes()
        best = np.full(nodes.shape[0], -np.inf)
        for k0 in range(0, ys.shape[0], hopflax._CHUNK):
            yy = ys[k0:k0 + hopflax._CHUNK]
            pp = phis[k0:k0 + hopflax._CHUNK]
            vals = f.eval(nodes[:, None, :] + t * yy[None, :, :]) - t * pp[None, :]
            np.maximum(best, vals.max(axis=1), out=best)
        got = hopf_lax(f, t, rate).values
        assert got.tobytes() == best.reshape(f.values.shape).tobytes()

    def test_radial_2d_matches_1d_on_axis_payoff(self):
        g2 = Grid(4.0, 65, dimension=2)
        f2 = GridFunction.sample(g2, lambda x, y: -(x - 1.0)**2 - y**2)
        r = np.linspace(0, 3, 121)
        rate = RateFunction(r, r**2 / 2, radial=True, directions=16)
        u = hopf_lax(f2, 0.5, rate)
        mid = g2.points_per_axis // 2
        # compare against a dense direct 2D maximization
        yy = np.linspace(-3, 3, 301)
        Y1, Y2 = np.meshgrid(yy, yy, indexing="ij")
        vals = (-(0.5 * Y1 - 1.0)**2 - (0.5 * Y2)**2
                - 0.5 * (Y1**2 + Y2**2) / 2)
        assert u.values[mid, mid] == pytest.approx(vals.max(), abs=5e-3)


class TestEnvelope:
    def test_equal_bounds_identical_outputs(self):
        g = Grid(6.0, 513)
        f = GridFunction.sample(g, np.sin)
        z = np.linspace(-6, 6, 601)
        lam = z**2 / 2
        lo, hi = envelope(f, 1.0, z, lam, lam, np.linspace(-8, 8, 1601))
        assert np.allclose(lo.values, hi.values, atol=1e-12)

    def test_constants_pass_through(self):
        # bounds vanishing at zero with convex hull zero: rates keep min 0,
        # so both envelope flows fix constants
        g = Grid(6.0, 257)
        f = GridFunction.sample(g, lambda x: np.full_like(x, -4.0))
        z = np.linspace(-6, 6, 601)
        lam = z**2 / 2
        h_minus = 0.5 * np.maximum(np.abs(z) - 0.1, 0.0) ** 2
        lo, hi = envelope(f, 1.0, z, h_minus, lam + 0.1 * np.abs(z),
                          np.linspace(-8, 8, 1601))
        assert np.allclose(lo.values, -4.0, atol=1e-9)
        assert np.allclose(hi.values, -4.0, atol=1e-9)

    def test_shifted_conjugates_formula(self):
        # (Lambda + L |z|)* (y) = inf_{|u|<=L} Lambda*(y + u) for Lambda = z^2/2
        L = 0.1
        z = np.linspace(-8, 8, 3201)
        y = np.linspace(-3, 3, 601)
        star = legendre(z, z**2 / 2 + L * np.abs(z), y)
        want = 0.5 * np.maximum(np.abs(y) - L, 0.0) ** 2
        assert np.allclose(star, want, atol=1e-4)

    def test_misordered_bounds_rejected(self):
        g = Grid(6.0, 257)
        f = GridFunction.sample(g, np.sin)
        z = np.linspace(-6, 6, 601)
        lam = z**2 / 2
        with pytest.raises(InputError):
            envelope(f, 1.0, z, lam + 0.2, lam, np.linspace(-8, 8, 1601))

    def test_chernoff_limit_between_envelopes(self):
        # unperturbed entropic flow must sit inside any widened sandwich
        g = Grid(8.0, 513)
        f = GridFunction.sample(g, np.sin, weight=GrowthWeight(1))
        model = Entropic(gauss_hermite(32))
        op = OneStepOperator(model, FirstOrderAffine())
        u, _ = chernoff_limit(op, 1.0, f, [16, 32, 64], tol=1e-2)
        z = np.linspace(-8, 8, 1601)
        lam = np.array([model.expect_linear(zz) for zz in z])
        lo, hi = envelope(f, 1.0, z, lam - 0.1 * np.abs(z), lam + 0.1 * np.abs(z),
                          np.linspace(-10, 10, 2001))
        mask = np.abs(g.axis) <= 2.0
        # slack covers the n = 64 truncation bias of the iterate; the sharp
        # version with a fine grid and schedule lives in the acceptance suite
        assert np.all(u.values[mask] <= hi.values[mask] + 2e-2)
        assert np.all(u.values[mask] >= lo.values[mask] - 2e-2)


class TestSemigroupDefect:
    def test_zero_time_exact(self):
        g = Grid(6.0, 257)
        f = GridFunction.sample(g, np.sin)
        y = np.linspace(-3, 3, 121)
        rate = RateFunction(y, y**2 / 2)
        assert semigroup_defect(f, 0.0, 0.7, rate, (-2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_indicator_rate_exact(self):
        g = Grid(6.0, 257)
        f = GridFunction.sample(g, np.sin)
        assert semigroup_defect(f, 0.5, 0.5, indicator_rate(), (-2, 2)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_defect_decays_under_refinement(self):
        y = np.linspace(-4, 4, 321)
        rate = RateFunction(y, y**2 / 2)
        defects = []
        for N in (257, 513):
            f = GridFunction.sample(Grid(8.0, N), lambda x: np.sin(x) - 0.05 * x**2)
            defects.append(semigroup_defect(f, 0.5, 0.5, rate, (-2, 2)))
        assert defects[0] / max(defects[1], 1e-15) >= 1.5

    def test_biconjugation_restores_linear_expectation(self):
        # conjugate twice: back to z -> E[z xi] on interior z nodes
        model = Entropic(gauss_hermite(64))
        z = np.linspace(-6, 6, 1201)
        y = np.linspace(-8, 8, 3201)
        rate = conjugate_rate(model, z, y)
        back = legendre(y, rate.values, z)
        lam = np.array([model.expect_linear(zz) for zz in z])
        inner = np.abs(z) <= 3.0
        assert np.allclose(back[inner], lam[inner], atol=1e-3)
