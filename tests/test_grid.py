import numpy as np
import pytest

from chernofflab import Grid, GridFunction, GrowthWeight, MollifierSpec
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

    def test_linear_continuation(self):
        f = make(lambda x: x, R=2.0, N=5, extension="linear")
        assert f.eval(10.0) == pytest.approx(10.0)
        assert f.eval(-3.5) == pytest.approx(-3.5)

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


class TestShift:
    def test_zero_shift_identity(self):
        f = make(np.cos)
        assert np.array_equal(f.shift(0.0).values, f.values)

    def test_affine_shift(self):
        f = make(lambda x: x, R=4.0, N=129)
        g = f.shift(1.0)
        interior = np.abs(f.grid.axis) <= 2.0
        assert np.allclose(g.values[interior], f.grid.axis[interior] + 1.0, atol=1e-12)

    def test_shift_composition_on_aligned_offsets(self):
        rng = np.random.default_rng(1)
        f = make(lambda x: np.sin(x) + 0.1 * x, R=4.0, N=129)
        h = f.grid.spacing
        a, b = 3 * h, 5 * h
        lhs = f.shift(a).shift(b)
        rhs = f.shift(a + b)
        interior = np.abs(f.grid.axis) <= 2.0
        assert np.allclose(lhs.values[interior], rhs.values[interior], atol=1e-12)

    def test_shift_composition_generic_second_order(self):
        f = make(np.sin, R=4.0, N=513)
        h = f.grid.spacing
        lhs = f.shift(0.13).shift(0.29)
        rhs = f.shift(0.42)
        interior = np.abs(f.grid.axis) <= 2.0
        assert np.max(np.abs(lhs.values - rhs.values)[interior]) <= h**2

    def test_shift_isometry_interior(self):
        f = make(np.sin, R=4.0, N=257)
        h = f.grid.spacing
        shifted = f.shift(8 * h)
        assert shifted.sup_norm_on((-2.0, 2.0)) == pytest.approx(
            f.sup_norm_on((-2.0 + 8 * h, 2.0 + 8 * h)), abs=1e-12)

    def test_shift_2d(self):
        g = Grid(2.0, 33, dimension=2)
        f = GridFunction.sample(g, lambda x, y: x + 2 * y)
        s = f.shift((g.spacing, -g.spacing))
        mid = g.points_per_axis // 2
        assert s.values[mid, mid] == pytest.approx(g.spacing - 2 * g.spacing)


class TestMollify:
    def test_constant_preserved(self):
        f = make(lambda x: np.full_like(x, 2.5))
        m = f.mollify(MollifierSpec(radius=1.0, scale=2))
        assert np.allclose(m.values, 2.5, atol=1e-14)

    def test_step_becomes_monotone_ramp(self):
        f = make(lambda x: (x >= 0).astype(float), R=4.0, N=257)
        m = f.mollify(MollifierSpec(radius=1.0, scale=2))
        assert np.all(np.diff(m.values) >= -1e-14)
        assert m.values[0] == pytest.approx(0.0, abs=1e-12)
        assert m.values[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [4, 8, 16])
    def test_lipschitz_distance_bound(self, scale):
        f = make(np.abs, R=4.0, N=1025)
        spec = MollifierSpec(radius=1.0, scale=scale)
        m = f.mollify(spec)
        diff = m.replace_values(m.values - f.values)
        assert diff.sup_norm_on((-2.0, 2.0)) <= spec.radius / scale + 1e-12

    def test_extrema_within_input_range(self):
        rng = np.random.default_rng(2)
        f = make(lambda x: np.sin(3 * x), R=4.0, N=257)
        m = f.mollify(MollifierSpec(radius=0.5, scale=1))
        assert m.values.min() >= f.values.min() - 1e-12
        assert m.values.max() <= f.values.max() + 1e-12

    def test_order_preserved(self):
        g = Grid(4.0, 257)
        rng = np.random.default_rng(3)
        a = GridFunction(g, rng.normal(size=257))
        b = a.replace_values(a.values + rng.uniform(0, 1, size=257))
        spec = MollifierSpec(radius=1.0, scale=2)
        assert np.all(a.mollify(spec).values <= b.mollify(spec).values + 1e-14)

    def test_commutes_with_constants(self):
        f = make(np.sin, R=4.0, N=257)
        spec = MollifierSpec(radius=0.5, scale=1)
        lhs = f.replace_values(f.values + 3.0).mollify(spec)
        rhs = f.mollify(spec).replace_values(f.mollify(spec).values + 3.0)
        assert np.allclose(lhs.values, rhs.values, atol=1e-12)

    @pytest.mark.parametrize("extension", ["constant", "linear"])
    def test_1d_matches_np_convolve(self, extension):
        # against np.convolve over the same pad: same terms, another
        # summation order
        f = make(lambda x: np.sin(3 * x) + 0.2 * x**2, R=4.0, N=257,
                 extension=extension)
        v = f.values
        for spec in (MollifierSpec(radius=1.0, scale=1), MollifierSpec(0.5, 4),
                     MollifierSpec(radius=0.01, scale=1)):
            h = f.grid.spacing
            m = max(int(np.floor(spec.support / h)), 0)
            offs = h * np.arange(-m, m + 1)
            w = (1.0 - (offs * spec.scale / spec.radius) ** 2) ** 2
            w[np.abs(offs) > spec.support] = 0.0
            w /= w.sum()
            if not m:
                want = v
            elif extension == "constant":
                pad = np.concatenate([np.full(m, v[0]), v, np.full(m, v[-1])])
                want = np.convolve(pad, w, mode="valid")
            else:
                pad = np.concatenate([v[0] + (v[1] - v[0]) * np.arange(-m, 0), v,
                                      v[-1] + (v[-1] - v[-2]) * np.arange(1, m + 1)])
                want = np.convolve(pad, w, mode="valid")
            err = np.max(np.abs(f.mollify(spec).values - want))
            assert err <= 1e-15 * np.max(np.abs(want))

    def test_support_too_large_rejected(self):
        f = make(np.sin, R=2.0, N=65)
        with pytest.raises(InputError):
            f.mollify(MollifierSpec(radius=1.0, scale=1))


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
        assert abs(f.fd_gradient(i0) - 1.0) <= h**2

    def test_2d_hessian_on_quadratic_form(self):
        g = Grid(2.0, 65, dimension=2)
        f = GridFunction.sample(g, lambda x, y: x**2 + x * y + 2 * y**2)
        mid = g.points_per_axis // 2
        hess = f.fd_hessian((mid, mid))
        assert np.allclose(hess, [[2.0, 1.0], [1.0, 4.0]], atol=1e-8)


class TestSerialization:
    def test_csv_bytes(self, tmp_path):
        # the artifact layout: a metadata header, a column line, %.12g rows
        f = GridFunction(Grid(2.5, 3), np.array([1.0, 0.0, 1 / 3]), "linear",
                         GrowthWeight(1))
        path = tmp_path / "f.csv"
        f.to_csv(path)
        assert path.read_text() == (
            "# R=2.5 N=3 d=1 extension=linear weight=1\n"
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
