import numpy as np
import pytest

from chernofflab import (DiscreteMeasure, Entropic, FirstOrderAffine, Grid,
                         GridFunction, GrowthWeight, Linear, OneStepOperator,
                         PenaltyFunction, RateFunction, ShiftSup,
                         chernoff_limit, conjugate_rate, envelope,
                         gauss_hermite, hopf_lax, legendre, two_point)
from chernofflab import _kernels as K
from chernofflab import hopflax
from chernofflab.cli import run_config_text
from chernofflab.configs import BUILTINS
from chernofflab.errors import InputError


def indicator_rate(at=0.0):
    # 0 at `at`, effectively +inf at every other grid point
    y = np.array([at - 1.0, at - 1e-9, at, at + 1e-9, at + 1.0])
    v = np.array([np.inf, np.inf, 0.0, np.inf, np.inf])
    return RateFunction(y, v)


def exhaustive_hopf_lax(f, t, rate):
    """Every finite candidate gathered at once, as ``hopf_lax`` gathers
    them, then the max: the Hopf-Lax values with nothing dropped."""
    ys, phis = hopflax._candidates(rate)
    if f.grid.dimension == 1:
        gathered = f.stencil().columns(t * ys)(f.values).T
    else:
        nodes = f.grid.nodes()
        gathered = f.eval(nodes[:, None, :] + t * ys[None, :, :])
    return (gathered - t * phis[None, :]).max(axis=1).reshape(f.values.shape)


@pytest.fixture
def gathered_columns(monkeypatch):
    """A one-entry list counting the columns every 1D shift stencil's column
    plans gather, at each apply."""
    count = [0]
    columns = K.ShiftStencil.columns

    def plan(self, c):
        apply = columns(self, c)

        def gather(values):
            count[0] += c.size
            return apply(values)
        return gather
    monkeypatch.setattr(K.ShiftStencil, "columns", plan)
    return count


def quadratic_rate_with_gaps():
    # phi = 0.2 + (y - 0.3)^2 / 2: min phi is neither 0 nor at y = 0; the
    # candidates t y reach past the box [-4, 4]; every seventh entry is +inf
    y = np.linspace(-12.0, 12.0, 601)
    phi = 0.2 + 0.5 * (y - 0.3) ** 2
    phi[::7] = np.inf
    return RateFunction(y, phi)


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
        with pytest.raises(InputError, match="enlarge the y-grid"):
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

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        f = GridFunction.sample(Grid(4.0, 129), np.sin)
        with pytest.raises(InputError, match="finite"):
            hopf_lax(f, t, indicator_rate())

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
        x = t * y[np.argmin(rate.values)]
        shifted = f.replace_values(f.eval(g.axis + x))
        interior = np.abs(g.axis) <= 2.0
        assert np.all(u.values[interior] >= shifted.values[interior] - 1e-12)

    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_1d_matches_per_point_gather(self, t):
        # the shift stencil against interp1 at every node and candidate; the
        # candidates t * y reach beyond the box [-4, 4] on both sides, span
        # more than one chunk and include infinite (skipped) rate entries
        g = Grid(4.0, 129)
        f = GridFunction.sample(g, lambda x: np.sin(2.0 * x) + 0.1 * x**2)
        y = np.linspace(-12.0, 12.0, 601)
        phi = 0.05 * y**2
        phi[::7] = np.inf
        got = hopf_lax(f, t, RateFunction(y, phi)).values
        fin = np.isfinite(phi)
        gathered = K.interp1(f.values, -g.half_width, g.spacing,
                             g.axis[:, None] + t * y[fin], True)
        want = (gathered - t * phi[fin]).max(axis=1)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_2d_matches_per_chunk_eval(self):
        # against a plain per-block eval of the candidates, bit for bit;
        # 528 finite candidates make five blocks of at most 113 (the value
        # budget over 289 nodes) and reach beyond the box
        g = Grid(2.0, 17, dimension=2)
        f = GridFunction.sample(g, lambda x, y: np.sin(x) * np.cos(2 * y) + 0.1 * x * y)
        r = np.linspace(0.0, 3.0, 33)
        rate = RateFunction(r, r**2 / 2, radial=True, directions=16)
        t = 0.7
        ys, phis = hopflax._candidates(rate)
        block = K.WINDOW_BLOCK_VALUES // g.points_per_axis ** 2
        assert ys.shape[0] > 4 * block
        nodes = g.nodes()
        best = np.full(nodes.shape[0], -np.inf)
        for k0 in range(0, ys.shape[0], block):
            yy = ys[k0:k0 + block]
            pp = phis[k0:k0 + block]
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


class TestHopfLaxPruning:
    """hopf_lax drops the candidates that cannot attain the supremum; the
    values stay those of the exhaustive max."""

    # the step's winners near x = 0 pay t (phi - min phi) up to its range
    PAYOFFS = {"sine": np.sin,
               "quadratic": lambda x: 0.1 * (x - 1.0) ** 2,
               "constant": lambda x: np.full_like(x, 1.3),
               "step": lambda x: np.where(x > 0.0, 1.0, -1.0)}

    @pytest.mark.parametrize("t", [0.125, 1.0, 3.0])
    @pytest.mark.parametrize("payoff", PAYOFFS)
    def test_1d_constant_extension_matches_exhaustive(self, payoff, t,
                                                      gathered_columns):
        f = GridFunction.sample(Grid(4.0, 129), self.PAYOFFS[payoff])
        rate = quadratic_rate_with_gaps()
        want = exhaustive_hopf_lax(f, t, rate)
        gathered_columns[0] = 0
        got = hopf_lax(f, t, rate).values
        assert got.tobytes() == want.tobytes()
        assert gathered_columns[0] < np.isfinite(rate.values).sum()

    @pytest.mark.parametrize("t", [0.125, 1.0, 3.0])
    def test_2d_radial_constant_extension_matches_exhaustive(self, t):
        g = Grid(2.0, 17, dimension=2)
        f = GridFunction.sample(g, lambda x, y: np.sin(x) * np.cos(2 * y) + 0.1 * x * y)
        r = np.linspace(0.0, 3.0, 33)
        phi = r**2 / 2
        phi[-4:] = np.inf
        rate = RateFunction(r, phi, radial=True, directions=16)
        got = hopf_lax(f, t, rate).values
        assert got.tobytes() == exhaustive_hopf_lax(f, t, rate).tobytes()

    def test_winner_on_the_bound(self):
        # y = -2 costs t (phi - min phi) = 1.3 - 0.3 = max f - min f exactly,
        # and at x = 4 it scores 1.3 - (1.3 - 0.3), one ulp above the 0.3 of
        # the minimiser y = 0: the winner sits on the bound
        v = np.full(9, 0.3)
        v[6] = 1.3
        f = GridFunction(Grid(4.0, 9), v)
        rate = RateFunction(np.array([-2.0, 0.0]), np.array([1.3 - 0.3, 0.0]))
        assert rate.values[0] - rate.values[1] == v.max() - v.min()
        want = exhaustive_hopf_lax(f, 1.0, rate)
        assert want[8] > 0.3
        assert hopf_lax(f, 1.0, rate).values.tobytes() == want.tobytes()

    def test_winner_past_the_bound_by_rounding(self):
        # on a constant 1.3 the interpolant at offset -0.215 rounds up by
        # one ulp, so y = -0.215 wins every node although its cost puts it
        # 1e-300 past max f - min f = 0: only the slack keeps it
        f = GridFunction(Grid(4.0, 9), np.full(9, 1.3))
        rate = RateFunction(np.array([-0.215, 0.0]), np.array([1e-300, 0.0]))
        want = exhaustive_hopf_lax(f, 1.0, rate)
        assert np.all(want > 1.3)
        assert hopf_lax(f, 1.0, rate).values.tobytes() == want.tobytes()

    def test_envelope_perturbed_gathers_a_quarter(self, tmp_path, gathered_columns,
                                                  monkeypatch):
        # the built-in's two Hopf-Lax calls, each against its finite
        # candidates
        calls, flow = [], hopflax.hopf_lax

        def counted(f, t, rate):
            before = gathered_columns[0]
            out = flow(f, t, rate)
            calls.append((gathered_columns[0] - before,
                          hopflax._candidates(rate)[1].size))
            return out
        monkeypatch.setattr(hopflax, "hopf_lax", counted)
        run_config_text(BUILTINS["envelope_perturbed"][1], str(tmp_path))
        assert len(calls) == 2
        for gathered, finite in calls:
            assert gathered <= 0.25 * finite


class TestHopfLaxBlocks:
    """The candidates are scanned in blocks of ``Grid.columns_per_block``;
    the max is exact, so the bytes are the same for any value budget."""

    @staticmethod
    def scans(f, t, rate, monkeypatch):
        """hopf_lax under one candidate per block, the default budget and one
        block for every candidate, with the columns of each 1D column plan,
        one per block."""
        widths, columns = [], K.ShiftStencil.columns

        def plan(self, c):
            widths[-1].append(c.size)
            return columns(self, c)
        monkeypatch.setattr(K.ShiftStencil, "columns", plan)
        n, total = f.values.size, hopflax._candidates(rate)[1].size
        out = []
        for budget in (n, K.WINDOW_BLOCK_VALUES, n * total):
            monkeypatch.setattr(K, "WINDOW_BLOCK_VALUES", budget)
            widths.append([])
            out.append(hopf_lax(f, t, rate).values.tobytes())
        return out, widths

    @pytest.mark.parametrize("t", [0.125, 1.0, 3.0])
    def test_1d_block_size_keeps_the_bytes(self, t, monkeypatch):
        f = GridFunction.sample(Grid(4.0, 129), lambda x: np.sin(x) + 0.3 * x)
        rate = quadratic_rate_with_gaps()
        want = exhaustive_hopf_lax(f, t, rate).tobytes()
        block = f.grid.columns_per_block
        out, widths = self.scans(f, t, rate, monkeypatch)
        assert out == [want] * 3
        kept = sum(widths[0])
        assert widths[0] == [1] * kept
        assert widths[1] == [block] * (kept // block) + [kept % block][:kept % block]
        assert widths[2] == [kept]

    def test_2d_radial_block_size_keeps_the_bytes(self, monkeypatch):
        g = Grid(2.0, 17, dimension=2)
        f = GridFunction.sample(g, lambda x, y: np.sin(x) * np.cos(2 * y) + 0.1 * x * y)
        r = np.linspace(0.0, 3.0, 33)
        phi = r**2 / 2
        phi[-4:] = np.inf
        rate = RateFunction(r, phi, radial=True, directions=16)
        out, _ = self.scans(f, 0.7, rate, monkeypatch)
        assert out == [exhaustive_hopf_lax(f, 0.7, rate).tobytes()] * 3

    def test_pruned_below_one_block(self, monkeypatch):
        # a payoff range of 0.02 keeps 9 of the 515 finite candidates, fewer
        # than the 254 of one default block
        f = GridFunction.sample(Grid(4.0, 129), lambda x: 0.01 * np.sin(x))
        rate = quadratic_rate_with_gaps()
        want = exhaustive_hopf_lax(f, 1.0, rate).tobytes()
        block = f.grid.columns_per_block
        out, widths = self.scans(f, 1.0, rate, monkeypatch)
        assert out == [want] * 3
        kept = sum(widths[0])
        assert 1 < kept < block
        assert widths[1] == widths[2] == [kept]


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
        u, _ = chernoff_limit(op, 1.0, f, [16, 32, 64])
        z = np.linspace(-8, 8, 1601)
        lam = np.array([model.expect_linear(zz) for zz in z])
        lo, hi = envelope(f, 1.0, z, lam - 0.1 * np.abs(z), lam + 0.1 * np.abs(z),
                          np.linspace(-10, 10, 2001))
        mask = np.abs(g.axis) <= 2.0
        # slack covers the n = 64 truncation bias of the iterate; the sharp
        # version with a fine grid and schedule lives in the acceptance suite
        assert np.all(u.values[mask] <= hi.values[mask] + 2e-2)
        assert np.all(u.values[mask] >= lo.values[mask] - 2e-2)


def flow_defect(f, s, t, rate, compact=(-2, 2)):
    """sup norm on the compact of S(s + t) f - S(s) S(t) f for Hopf-Lax flows."""
    nested = hopf_lax(hopf_lax(f, t, rate), s, rate)
    direct = hopf_lax(f, s + t, rate)
    return direct.replace_values(direct.values - nested.values).sup_norm_on(compact)


class TestSemigroupDefect:
    def test_zero_time_exact(self):
        g = Grid(6.0, 257)
        f = GridFunction.sample(g, np.sin)
        y = np.linspace(-3, 3, 121)
        rate = RateFunction(y, y**2 / 2)
        assert flow_defect(f, 0.0, 0.7, rate) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("s, t", [(np.nan, 0.5), (0.5, np.inf)])
    def test_non_finite_times_rejected(self, s, t):
        f = GridFunction.sample(Grid(4.0, 129), np.sin)
        with pytest.raises(InputError, match="finite"):
            flow_defect(f, s, t, indicator_rate())

    def test_indicator_rate_exact(self):
        g = Grid(6.0, 257)
        f = GridFunction.sample(g, np.sin)
        assert flow_defect(f, 0.5, 0.5, indicator_rate()) == pytest.approx(0.0, abs=1e-12)

    def test_defect_decays_under_refinement(self):
        y = np.linspace(-4, 4, 321)
        rate = RateFunction(y, y**2 / 2)
        defects = []
        for N in (257, 513):
            f = GridFunction.sample(Grid(8.0, N), lambda x: np.sin(x) - 0.05 * x**2)
            defects.append(flow_defect(f, 0.5, 0.5, rate))
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
