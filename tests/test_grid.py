import numpy as np
import pytest

from chernofflab import Grid, GridFunction, GrowthWeight
from chernofflab.errors import InputError


def make(fn, R=4.0, N=257, **kw):
    return GridFunction.sample(Grid(R, N), fn, **kw)


class TestGrid:
    def test_spacing_and_origin(self):
        g = Grid(8.0, 513)
        assert g.spacing == pytest.approx(16.0 / 512)
        assert g.axis[g.origin_index] == 0.0

    @pytest.mark.parametrize("n", [2, 4, 256])
    def test_even_points_rejected(self, n):
        with pytest.raises(InputError):
            Grid(1.0, n)

    def test_minimum_size(self):
        with pytest.raises(InputError):
            Grid(1.0, 1)

    @pytest.mark.parametrize("half_width", [1e308, np.inf])
    def test_box_whose_spacing_overflows_rejected(self, half_width):
        # 2R overflows: the spacing and every node coordinate would be infinite
        with pytest.raises(InputError, match="half_width"):
            Grid(half_width, 5)


class TestWithin:
    def test_equals_the_inline_masks(self):
        g = Grid(4.0, 129)
        ax, h = g.axis, g.spacing
        # bounds on nodes, just inside and just outside the 1e-12 slack
        boxes = [(-2.0, 2.0), (-1.0, 0.5), (0.0, np.pi), (-4.0, 4.0),
                 (-2.0 + 0.9e-12, 2.0 - 0.9e-12), (-2.0 + 1.1e-12, 2.0 - 1.1e-12),
                 (ax[40] + 0.5 * h, ax[90] - 0.5 * h)]
        for lo, hi in boxes:
            want = (ax >= lo - 1e-12) & (ax <= hi + 1e-12)
            assert np.array_equal(g.within(lo, hi), want)
            # the generator's curvature window, widened by a reach
            for reach in (0.5, 1.0):
                want = (ax >= lo - reach - 1e-12) & (ax <= hi + reach + 1e-12)
                assert np.array_equal(g.within(lo - reach, hi + reach), want)
        # the envelope runner's symmetric mask
        for c in (2.0, 2.0 - 0.9e-12, 2.0 - 1.1e-12, 1.0 + 0.5 * h, 0.0):
            assert np.array_equal(g.within(-c, c), np.abs(ax) <= c + 1e-12)

    def test_2d_sup_norm_equals_the_inline_masks(self):
        g = Grid(2.0, 33, dimension=2)
        v = np.random.default_rng(5).normal(size=(33, 33))
        f = GridFunction(g, v)
        ax = g.axis
        for (lo1, hi1), (lo2, hi2) in [((-1.0, 1.0), (-0.5, 2.0)),
                                       ((0.0, 0.0), (-2.0, 2.0))]:
            m1 = (ax >= lo1 - 1e-12) & (ax <= hi1 + 1e-12)
            m2 = (ax >= lo2 - 1e-12) & (ax <= hi2 + 1e-12)
            want = float(np.max(np.abs(v[np.ix_(m1, m2)])))
            assert f.sup_norm_on(((lo1, hi1), (lo2, hi2))) == want


class TestEval:
    def test_constant_everywhere(self):
        f = make(lambda x: np.full_like(x, 3.0))
        assert f.eval(7.2) == 3.0
        assert f.eval(0.17) == 3.0

    def test_midpoint_is_mean_of_neighbours(self):
        f = make(lambda x: x)
        g = f.grid
        mid = g.axis[10] + g.spacing / 2
        assert f.eval(mid) == pytest.approx(0.5 * (g.axis[10] + g.axis[11]), abs=1e-14)

    def test_quadratic_offnode_second_order(self):
        f = make(lambda x: x**2, R=4.0, N=257)
        h = f.grid.spacing
        assert abs(f.eval(1.3) - 1.69) <= h**2

    def test_nodes_reproduced_exactly(self):
        f = make(np.sin)
        assert np.array_equal(f.eval(f.grid.axis), f.values)

    def test_constant_continuation(self):
        f = make(lambda x: x, R=2.0, N=5)
        assert f.eval(10.0) == 2.0
        assert f.eval(-10.0) == -2.0

    def test_nonfinite_point_rejected(self):
        f = make(np.sin)
        with pytest.raises(InputError):
            f.eval(np.nan)

    def test_nonfinite_values_rejected(self):
        g = Grid(1.0, 5)
        with pytest.raises(InputError):
            GridFunction(g, np.array([0.0, 1.0, np.inf, 1.0, 0.0]))

    def test_bilinear_reproduces_affine(self):
        g = Grid(2.0, 33, dimension=2)
        f = GridFunction.sample(g, lambda x, y: 2 * x - 3 * y + 1)
        pts = np.array([[0.3, 0.7], [-1.2, 0.5], [1.99, -1.99]])
        want = 2 * pts[:, 0] - 3 * pts[:, 1] + 1
        assert np.allclose(f.eval(pts), want, atol=1e-12)


def translate(f, x):
    # (tau_x f)(y) = f(x + y), resampled on the same grid: what the one-step
    # operators and the Hopf-Lax tests read through eval
    g = f.grid
    if g.dimension == 1:
        return f.replace_values(f.eval(g.axis + x))
    return f.replace_values(f.eval(g.nodes() + np.asarray(x)).reshape(f.values.shape))


class TestTranslation:
    def test_affine_translated_exactly(self):
        f = make(lambda x: x, R=4.0, N=129)
        g = translate(f, 1.0)
        interior = np.abs(f.grid.axis) <= 2.0
        assert np.allclose(g.values[interior], f.grid.axis[interior] + 1.0, atol=1e-12)

    @pytest.mark.parametrize("cells", [-5, -1, 1, 5])
    def test_whole_cells_move_the_nodes(self, cells):
        f = make(lambda x: np.sin(x) + 0.1 * x, R=4.0, N=129)
        g = translate(f, cells * f.grid.spacing)
        k = abs(cells)
        got, want = (g.values[:-k], f.values[k:]) if cells > 0 else \
            (g.values[k:], f.values[:-k])
        assert np.allclose(got, want, atol=1e-12)

    def test_aligned_translations_compose(self):
        f = make(lambda x: np.sin(x) + 0.1 * x, R=4.0, N=129)
        h = f.grid.spacing
        lhs = translate(translate(f, 3 * h), 5 * h)
        rhs = translate(f, 8 * h)
        interior = np.abs(f.grid.axis) <= 2.0
        assert np.allclose(lhs.values[interior], rhs.values[interior], atol=1e-12)

    def test_generic_translations_compose_to_second_order(self):
        f = make(np.sin, R=4.0, N=513)
        h = f.grid.spacing
        lhs = translate(translate(f, 0.13), 0.29)
        rhs = translate(f, 0.42)
        interior = np.abs(f.grid.axis) <= 2.0
        assert np.max(np.abs(lhs.values - rhs.values)[interior]) <= h**2

    def test_aligned_translation_is_an_isometry_on_the_interior(self):
        f = make(np.sin, R=4.0, N=257)
        h = f.grid.spacing
        assert translate(f, 8 * h).sup_norm_on((-2.0, 2.0)) == pytest.approx(
            f.sup_norm_on((-2.0 + 8 * h, 2.0 + 8 * h)), abs=1e-12)

    def test_2d_aligned_translation(self):
        g = Grid(2.0, 33, dimension=2)
        f = GridFunction.sample(g, lambda x, y: x + 2 * y)
        s = translate(f, (g.spacing, -g.spacing))
        mid = g.points_per_axis // 2
        assert s.values[mid, mid] == pytest.approx(g.spacing - 2 * g.spacing)

    def test_order_preserved(self):
        rng = np.random.default_rng(3)
        a = GridFunction(Grid(4.0, 257), rng.normal(size=257))
        b = a.replace_values(a.values + rng.uniform(0, 1, size=257))
        for x in (0.013, -0.7, 2.9, 5.0):
            assert np.all(translate(a, x).values <= translate(b, x).values)

    def test_commutes_with_constants(self):
        f = make(np.sin, R=4.0, N=257)
        lhs = translate(f.replace_values(f.values + 3.0), 0.37)
        rhs = translate(f, 0.37).values + 3.0
        assert np.allclose(lhs.values, rhs, atol=1e-12)

    def test_constant_extension_stays_within_the_input_range(self):
        f = make(lambda x: np.sin(3 * x), R=4.0, N=257)
        for x in (0.011, -1.3, 3.7, -9.0):
            v = translate(f, x).values
            assert v.min() >= f.values.min() and v.max() <= f.values.max()


class TestNorms:
    def test_weighted_norm_constant_one(self):
        f = make(lambda x: np.ones_like(x), weight=GrowthWeight(1))
        assert f.weighted_norm() == pytest.approx(1.0)

    def test_weighted_norm_zero(self):
        f = make(np.zeros_like)
        assert f.weighted_norm() == 0.0

    def test_weighted_norm_matches_growth(self):
        f = make(lambda x: 1.0 + np.abs(x), weight=GrowthWeight(1))
        assert f.weighted_norm() == pytest.approx(1.0, abs=1e-12)

    def test_weighted_norm_triangle_and_homogeneity(self):
        rng = np.random.default_rng(0)
        g = Grid(4.0, 65)
        w = GrowthWeight(1)
        a = GridFunction(g, rng.normal(size=65), weight=w)
        b = GridFunction(g, rng.normal(size=65), weight=w)
        s = a.replace_values(a.values + b.values)
        assert s.weighted_norm() <= a.weighted_norm() + b.weighted_norm() + 1e-12
        c = a.replace_values(-2.5 * a.values)
        assert c.weighted_norm() == pytest.approx(2.5 * a.weighted_norm())

    def test_sup_norm_identity_payoff(self):
        f = make(lambda x: x, R=2.0, N=5)
        assert f.sup_norm_on((-1.0, 1.0)) == 1.0

    def test_sup_norm_constant(self):
        f = make(lambda x: np.full_like(x, -7.0))
        assert f.sup_norm_on((-1.0, 1.0)) == 7.0

    def test_sup_norm_sine_on_half_period(self):
        f = make(np.sin, R=4.0, N=513)
        h = f.grid.spacing
        assert abs(f.sup_norm_on((0.0, np.pi)) - 1.0) <= h**2

    def test_sup_norm_outside_box_rejected(self):
        f = make(np.sin, R=2.0, N=5)
        with pytest.raises(InputError):
            f.sup_norm_on((-3.0, 1.0))


class TestFiniteDifferences:
    def test_gradient_exact_on_affine(self):
        f = make(lambda x: 2.0 * x + 1.0)
        assert np.allclose(f.fd_gradient(), 2.0, atol=1e-12)

    def test_hessian_exact_on_quadratic(self):
        f = make(lambda x: x**2)
        assert np.allclose(f.fd_hessian()[1:-1], 2.0, atol=1e-9)

    def test_sine_gradient_second_order(self):
        f = make(np.sin, R=4.0, N=257)
        h = f.grid.spacing
        i0 = f.grid.origin_index
        assert abs(f.fd_gradient()[i0] - 1.0) <= h**2

    def test_central_gradient_exact_on_quadratic(self):
        f = make(lambda x: x**2 - 3.0 * x)
        assert np.allclose(f.fd_gradient()[1:-1], 2.0 * f.grid.axis[1:-1] - 3.0,
                           atol=1e-10)

    def test_gradient_one_sided_at_the_edges(self):
        f = make(lambda x: x**2, R=2.0, N=9)
        v, h = f.values, f.grid.spacing
        d = f.fd_gradient()
        assert d[0] == (v[1] - v[0]) / h and d[-1] == (v[-1] - v[-2]) / h

    def test_hessian_edges_take_their_neighbours(self):
        f = make(lambda x: x**3, R=2.0, N=17)
        d = f.fd_hessian()
        assert d[0] == d[1] and d[-1] == d[-2]

    def test_sine_hessian_second_order(self):
        f = make(np.sin, R=4.0, N=257)
        h = f.grid.spacing
        interior = np.abs(f.grid.axis) <= 3.0
        err = np.abs(f.fd_hessian() + np.sin(f.grid.axis))[interior]
        assert np.max(err) <= h**2

    def test_2d_rejected(self):
        g = Grid(2.0, 65, dimension=2)
        f = GridFunction.sample(g, lambda x, y: x**2 + x * y + 2 * y**2)
        for fd in (f.fd_gradient, f.fd_hessian):
            with pytest.raises(InputError, match="one-dimensional"):
                fd()


class TestSerialization:
    def test_csv_bytes(self, tmp_path):
        # the artifact layout: a metadata header, a column line, %.12g rows
        f = GridFunction(Grid(2.5, 3), np.array([1.0, 0.0, 1 / 3]), GrowthWeight(1))
        path = tmp_path / "f.csv"
        f.to_csv(path)
        assert path.read_text() == (
            "# R=2.5 N=3 d=1 extension=constant weight=1\n"
            "x,value\n-2.5,1\n0,0\n2.5,0.333333333333\n")

    def test_csv_bytes_2d(self, tmp_path):
        # x runs slowest: one row per node in C order of values[i, j]
        f = GridFunction(Grid(1.0, 3, dimension=2), np.arange(9.0).reshape(3, 3))
        path = tmp_path / "f2.csv"
        f.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# R=1 N=3 d=2 extension=constant weight=0", "x,y,value"]
        assert lines[2:5] == ["-1,-1,0", "-1,0,1", "-1,1,2"]
        assert lines[-1] == "1,1,8"
        assert len(lines) == 11

    def test_values_immutable(self):
        f = make(np.sin)
        with pytest.raises(ValueError):
            f.values[0] = 1.0
