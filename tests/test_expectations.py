import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chernofflab import (DiscreteMeasure, Entropic, FirstOrderAffine, Grid,
                         GridFunction, Hamiltonian1, Hamiltonian2, Linear,
                         OneStepOperator, PenaltyFunction, Perturbed,
                         RateFunction, ShiftSup, Shortfall, centered,
                         gauss_hermite, legendre, one_step, two_point)
from chernofflab.errors import InputError
from chernofflab.expectations import shortfall_root

BERNOULLI = two_point()


def all_variants():
    shifts = np.linspace(-3.0, 3.0, 61)
    pen = PenaltyFunction.quadratic(3.0, 61)
    return [
        Linear(BERNOULLI),
        Entropic(BERNOULLI),
        Shortfall(BERNOULLI, 2.0),
        ShiftSup(BERNOULLI, pen, shifts),
        ShiftSup(BERNOULLI, pen, shifts, symmetric=True),
    ]


class TestDiscreteMeasure:
    def test_weight_normalization_enforced(self):
        with pytest.raises(InputError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([-0.5, 1.5]))

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [0.5, np.nan]])
    def test_nan_weight_rejected(self, weights):
        # a nan weight passes both a `< 0` test and a `|sum - 1|` test
        with pytest.raises(InputError):
            DiscreteMeasure(np.array([-1.0, 1.0]), np.array(weights))

    def test_mean_and_cov_point_mass_zero(self):
        m, s = DiscreteMeasure(np.array([0.0]), np.array([1.0])).mean_and_cov()
        assert m[0] == 0.0 and s[0, 0] == 0.0

    def test_mean_and_cov_bernoulli(self):
        m, s = BERNOULLI.mean_and_cov()
        assert m[0] == pytest.approx(0.0)
        assert s[0, 0] == pytest.approx(1.0)

    def test_mean_and_cov_point_mass(self):
        m, s = DiscreteMeasure(np.array([1.5]), np.array([1.0])).mean_and_cov()
        assert m[0] == pytest.approx(1.5)
        assert s[0, 0] == pytest.approx(2.25)

    def test_gauss_hermite_moments(self):
        mu = gauss_hermite(64)
        m, s = mu.mean_and_cov()
        assert abs(m[0]) < 1e-12
        assert s[0, 0] == pytest.approx(1.0, abs=1e-10)


class TestPenaltyFunction:
    def test_quadratic_valid(self):
        pen = PenaltyFunction.quadratic(2.0, 33)
        assert pen(0.0) == 0.0
        assert pen(1.0) == pytest.approx(1.0)

    def test_indicator_inf_beyond_radius(self):
        pen = PenaltyFunction.indicator(1.0)
        assert pen(0.5) == 0.0
        assert pen(2.0) == np.inf

    def test_origin_required(self):
        with pytest.raises(InputError):
            PenaltyFunction(np.array([0.5, 1.0]), np.array([0.0, 1.0]))

    def test_convexity_required(self):
        with pytest.raises(InputError):
            PenaltyFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 3.0]))


class TestExpect:
    @pytest.mark.parametrize("model", all_variants(),
                             ids=lambda m: type(m).__name__ + str(getattr(m, "symmetric", "")))
    def test_constant_preservation(self, model):
        assert model.expect(lambda y: np.full(np.shape(y), 5.0)) == pytest.approx(5.0, abs=1e-9)

    def test_entropic_logcosh(self):
        e = Entropic(BERNOULLI)
        assert e.expect(lambda y: y) == pytest.approx(np.log(np.cosh(1.0)), abs=1e-12)

    def test_shortfall_closed_form(self):
        # half (2 - m)^2 = 1 at the root, so E[x -> x] = 2 - sqrt(2)
        s = Shortfall(BERNOULLI, 2.0)
        assert s.expect(lambda y: y) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-9)

    def test_shiftsup_linear_payoff(self):
        pen = PenaltyFunction.quadratic(3.0, 121)
        model = ShiftSup(BERNOULLI, pen, np.linspace(-3, 3, 241))
        # sup_s (z s - s^2) = z^2 / 4 on the shift grid, mean term vanishes
        z = 1.0
        assert model.expect_linear(z) == pytest.approx(0.25, abs=1e-3)

    def test_symmetric_two_point_centered(self):
        pen = PenaltyFunction.indicator(1.0)
        model = ShiftSup(DiscreteMeasure(np.array([0.0]), np.array([1.0])),
                         pen, np.linspace(0, 1, 11), symmetric=True)
        assert model.expect_linear(3.0) == pytest.approx(0.0, abs=1e-12)
        # quadratic payoff saturates the shift budget
        assert model.expect(lambda y: y**2) == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_payoff_rejected(self):
        with pytest.raises(InputError):
            Linear(BERNOULLI).expect(lambda y: np.where(y > 0, np.inf, 0.0))

    def test_entropic_and_shortfall_reduce_to_linear_on_point_mass(self):
        point = DiscreteMeasure(np.array([1.7]), np.array([1.0]))
        payoff = lambda y: np.sin(y) + 0.3 * y
        want = Linear(point).expect(payoff)
        assert Entropic(point).expect(payoff) == pytest.approx(want, abs=1e-12)
        assert Shortfall(point, 2.0).expect(payoff) == pytest.approx(want, abs=1e-9)


# the quotient payoff / t of Entropic and Shortfall: a three-atom measure
# with unequal weights, and payoff entries that hold signed zeros,
# subnormals and values near the largest float among ordinary floats
QUOTIENT_MEASURE = DiscreteMeasure(np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))
QUOTIENT_MODELS = [Entropic(QUOTIENT_MEASURE), Shortfall(QUOTIENT_MEASURE, 2.0)]
EDGE_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.2250738585072014e-308,
                                1.7976931348623157e308, -1.7976931348623157e308, 1e308,
                                -8.98846567431158e307])
PAYOFFS = arrays(float, st.tuples(st.integers(1, 4), st.just(3)),
                 elements=EDGE_ENTRIES | st.floats(allow_nan=False, allow_infinity=False))
# rows where payoff * (1 / t) and payoff / t give other values at 0.75 2^-7
# and at 1/3, in both models
SPLIT_ROWS = np.array([[2.1, -1.1, -0.4], [1.5, -1.5, -2.5], [-1.3, 0.6, -0.8],
                       [2.9, 0.9, -1.1]])


def quotient_reference(model, payoff, t, quotient):
    """``model.reduce`` written out with ``quotient(payoff, t)`` for payoff / t
    and numpy's functions, or None where it leaves the float range."""
    with np.errstate(all="ignore"):
        g = quotient(payoff, t)
        if isinstance(model, Shortfall):
            try:
                return t * shortfall_root(g, model.measure.weights, model.power)
            except InputError:
                return None
        g = g + np.log(model.measure.weights)
        m = np.max(g, axis=1, keepdims=True)
        out = t * (np.squeeze(m, 1) + np.log(np.sum(np.exp(g - m), axis=1)))
    return out if np.all(np.isfinite(out)) else None


def reduce_or_none(model, payoff, t):
    try:
        return model.reduce(lambda y: payoff, t)
    except InputError:
        return None


class TestQuotient:
    @settings(max_examples=300, deadline=None)
    @given(payoff=PAYOFFS, k=st.integers(0, 1074))
    @pytest.mark.parametrize("model", QUOTIENT_MODELS, ids=lambda m: type(m).__name__)
    def test_power_of_two_time_gives_the_division_bit_for_bit(self, model, payoff, k):
        # t = 2^-k multiplies by 1 / t, which must round as payoff / t does;
        # a quotient beyond the float range raises InputError either way.
        # Below 2^-1022, where 1 / t overflows from 2^-1024 on, t divides
        t = 2.0 ** -k
        want = quotient_reference(model, payoff, t, np.divide)
        got = reduce_or_none(model, payoff, t)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [0.75 * 2.0 ** -7, 1.0 / 3.0])
    @pytest.mark.parametrize("model", QUOTIENT_MODELS, ids=lambda m: type(m).__name__)
    def test_other_times_divide(self, model, t):
        want = quotient_reference(model, SPLIT_ROWS, t, np.divide)
        product = quotient_reference(model, SPLIT_ROWS, t, lambda p, t: p * (1.0 / t))
        assert product.tobytes() != want.tobytes()
        assert model.reduce(lambda y: SPLIT_ROWS, t).tobytes() == want.tobytes()


# a (rows, 3) payoff held by its caller, signed zeros included, for models
# on QUOTIENT_MEASURE's three atoms; ShiftSup's clouds have three points too
HELD_ROWS = np.concatenate([SPLIT_ROWS, [[0.0, -0.0, 1e-300]]])
READ_ONLY_MODELS = [Linear(QUOTIENT_MEASURE), *QUOTIENT_MODELS,
                    ShiftSup(QUOTIENT_MEASURE, PenaltyFunction.quadratic(1.0, 9),
                             np.linspace(-1.0, 1.0, 5)),
                    centered(Entropic(QUOTIENT_MEASURE))]
READ_ONLY_IDS = ["Linear", "Entropic", "Shortfall", "ShiftSup", "centered_Entropic"]


class TestScratch:
    """Only a payoff marked ``scratch`` (a one-step's gather) hands its
    matrix over; every other payoff's matrix is the caller's, and a model
    may only read it."""

    @pytest.mark.parametrize("t", [1.0, 2.0 ** -8, 1.0 / 3.0])
    @pytest.mark.parametrize("model", READ_ONLY_MODELS, ids=READ_ONLY_IDS)
    def test_reduce_leaves_the_callers_matrix(self, model, t):
        held = HELD_ROWS.copy()
        model.reduce(lambda y: held, t)
        assert held.tobytes() == HELD_ROWS.tobytes()

    @pytest.mark.parametrize("model", READ_ONLY_MODELS, ids=READ_ONLY_IDS)
    def test_expect_and_expect_linear_leave_the_callers_arrays(self, model):
        held = HELD_ROWS.copy()
        model.expect(lambda y: held[0])
        model.expect_linear(held)
        model.expect_linear(held[:, 0])
        assert held.tobytes() == HELD_ROWS.tobytes()

    @pytest.mark.parametrize("t", [2.0 ** -6, 0.75 * 2.0 ** -7])
    @pytest.mark.parametrize("scaling", ["first_order", "perturbed"])
    @pytest.mark.parametrize("kind", [Entropic, Shortfall])
    def test_scratch_step_gives_the_bytes_of_a_fresh_quotient(self, kind, scaling, t):
        # a one-step's gather is scratch, so Entropic and Shortfall write
        # payoff / t into it: a grid-aligned stencil step (the LLN's) and a
        # per-point step must give the bytes of the written-out reduction of
        # the same gather, laid out (nodes, k) column-major as one_step's
        model = kind(gauss_hermite(16))
        scaling = FirstOrderAffine() if scaling == "first_order" else Perturbed(
            phi0=lambda x: 0.3 * np.sin(x), lip=0.3)
        f = GridFunction.sample(Grid(4.0, 129), lambda x: np.sin(x) + 0.2 * x ** 2)
        y = model.measure.atoms
        if isinstance(scaling, FirstOrderAffine):
            gathered = f.stencil().columns(scaling.scale(t) * y[:, 0])(f.values).T
        else:
            gathered = f.gather_plan(scaling.map(t, f.grid.axis, y))(f.values).copy().T
        want = quotient_reference(model, gathered, t, np.divide)
        got = one_step(OneStepOperator(model, scaling), t, f).values
        assert got.tobytes() == want.tobytes()


class TestCentered:
    def test_identity_when_already_centered(self):
        base = Linear(BERNOULLI)
        tilde = centered(base)
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = rng.normal(size=3)
            payoff = lambda y: c[0] + c[1] * y + c[2] * np.sin(y)
            assert tilde.expect(payoff) == pytest.approx(base.expect(payoff), abs=1e-9)

    def test_probe_linears_vanish(self):
        base = Entropic(BERNOULLI)  # E[a xi] = log cosh a > 0
        tilde = centered(base)
        for a in (1.0, -1.0, 2.0, -2.0):
            assert abs(tilde.expect_linear(a)) <= 1e-6

    def test_negative_mean_rejected(self):
        mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(InputError, match="centering requires"):
            centered(Linear(mu))


class TestLogMgf:
    def test_zero_argument(self):
        assert Entropic(BERNOULLI).expect_linear(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_logcosh(self):
        assert Entropic(BERNOULLI).expect_linear(1.0) == pytest.approx(np.log(np.cosh(1.0)))

    def test_point_mass_linear(self):
        mu = DiscreteMeasure(np.array([2.5]), np.array([1.0]))
        assert Entropic(mu).expect_linear(3.0) == pytest.approx(7.5)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-2, 2, 7)
        vec = Entropic(BERNOULLI).expect_linear(xs)
        assert np.allclose(vec, [Entropic(BERNOULLI).expect_linear(float(x)) for x in xs])

    def test_large_argument_stable(self):
        assert np.isfinite(Entropic(BERNOULLI).expect_linear(800.0))

    def test_convex_in_its_argument(self):
        mu = DiscreteMeasure(np.array([-1.0, 0.0, 2.0]), np.array([0.2, 0.5, 0.3]))
        lam = Entropic(mu).expect_linear(np.linspace(-4.0, 4.0, 81))
        assert np.all(lam[:-2] + lam[2:] - 2.0 * lam[1:-1] >= -1e-12)

    def test_slope_at_zero_is_the_mean(self):
        mu = DiscreteMeasure(np.array([-1.0, 0.0, 2.0]), np.array([0.2, 0.5, 0.3]))
        e = 1e-6
        lam = Entropic(mu).expect_linear(np.array([-e, e]))
        assert (lam[1] - lam[0]) / (2 * e) == pytest.approx(0.4, abs=1e-8)

    def test_between_the_mean_and_the_largest_atom(self):
        # Jensen below, the largest atom above: m x <= log E[e^{xY}] <= max(xY)
        mu = DiscreteMeasure(np.array([-1.0, 0.0, 2.0]), np.array([0.2, 0.5, 0.3]))
        x = np.linspace(-5.0, 5.0, 41)
        lam = Entropic(mu).expect_linear(x)
        assert np.all(0.4 * x <= lam + 1e-12)
        assert np.all(lam <= np.maximum(-x, 2.0 * x) + 1e-12)

    def test_translated_atoms_add_a_linear_term(self):
        x = np.linspace(-3.0, 3.0, 13)
        moved = DiscreteMeasure(BERNOULLI.atoms + 1.5, BERNOULLI.weights)
        assert np.allclose(Entropic(moved).expect_linear(x),
                           Entropic(BERNOULLI).expect_linear(x) + 1.5 * x,
                           atol=1e-12)

    @pytest.mark.parametrize("mu, x", [
        (gauss_hermite(16), 0.7),
        (gauss_hermite(16), np.linspace(-3.0, 3.0, 13)),
        (gauss_hermite(16), np.linspace(-3.0, 3.0, 12).reshape(3, 4)),
        (DiscreteMeasure(np.array([[0.0, 1.0], [1.0, -0.5], [-2.0, 0.25]]),
                         np.array([0.5, 0.3, 0.2])), np.array([0.4, -1.5]))])
    def test_is_the_entropic_expectation_bit_for_bit(self, mu, x):
        # Entropic.expect_linear, and in 2D Entropic.expect of y @ x, is the
        # max-shifted log-sum-exp written out
        a = mu.atoms
        if a.shape[1] > 1:
            got, e = Entropic(mu).expect(lambda y: y @ x), a @ x
        else:
            got, e = Entropic(mu).expect_linear(x), np.multiply.outer(x, a[:, 0])
        e = e + np.log(mu.weights)
        m = e.max(axis=-1)
        assert np.array_equal(got, m + np.log(np.exp(e - m[..., None]).sum(axis=-1)))
        assert np.ndim(got) == np.ndim(x) - (a.shape[1] > 1)

    def test_reads_the_first_coordinate_in_2d(self):
        # one value per coefficient, in its shape, on the first coordinate's
        # marginal: a 2D measure gives the bytes of its 1D marginal
        mu = DiscreteMeasure(np.array([[0.0, 1.0], [1.0, -0.5], [-2.0, 0.25]]),
                             np.array([0.5, 0.3, 0.2]))
        marginal = DiscreteMeasure(mu.atoms[:, 0], mu.weights)
        for x in (0.7, np.array([0.4, -1.5]), np.linspace(-1.0, 1.0, 6).reshape(2, 3)):
            got = Entropic(mu).expect_linear(x)
            assert np.shape(got) == np.shape(x)
            assert np.array_equal(got, Entropic(marginal).expect_linear(x))


class TestLegendre:
    def test_self_conjugate_quadratic(self):
        z = np.linspace(-8, 8, 1601)
        y = np.linspace(-3, 3, 121)
        star = legendre(z, z**2 / 2, y)
        assert np.allclose(star, y**2 / 2, atol=1e-2)

    def test_absolute_value_conjugate(self):
        z = np.linspace(-8, 8, 1601)
        y = np.linspace(-0.9, 0.9, 37)
        star = legendre(z, np.abs(z), y)
        assert np.allclose(star, 0.0, atol=1e-12)
        outside = legendre(z, np.abs(z), np.array([2.0]))
        assert outside[0] == pytest.approx(8.0)  # steep truncated growth

    def test_binary_entropy_point(self):
        z = np.linspace(-8, 8, 3201)
        lam = Entropic(BERNOULLI).expect_linear(z)
        star = legendre(z, lam, np.array([0.5]))
        want = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        assert star[0] == pytest.approx(want, abs=1e-5)

    def test_infinite_entries_skipped(self):
        z = np.array([-1.0, 0.0, 1.0])
        g = np.array([np.inf, 0.0, 1.0])
        star = legendre(z, g, np.array([0.0, 2.0]))
        assert star[0] == pytest.approx(0.0)
        assert star[1] == pytest.approx(1.0)  # max(0, 2 - 1)

    def test_all_infinite_rejected(self):
        with pytest.raises(InputError):
            legendre(np.array([0.0, 1.0]), np.array([np.inf, np.inf]),
                     np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nan_and_minus_infinity_rejected(self, bad):
        # the hull scan skips non-finite entries: a -inf entry, whose
        # conjugate is +inf everywhere, once gave finite values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="NaN or -inf"):
                legendre(np.array([-1.0, 0.0, 1.0]), np.array([1.0, bad, 1.0]),
                         np.array([0.0]))

    def test_matches_bruteforce_on_random_convex(self):
        rng = np.random.default_rng(4)
        z = np.linspace(-5, 5, 501)
        slopes = np.sort(rng.normal(size=8))
        inters = rng.normal(size=8)
        g = np.max(slopes[:, None] * z[None, :] - inters[:, None], axis=0)
        y = np.linspace(-4, 4, 333)
        fast = legendre(z, g, y)
        brute = np.max(y[:, None] * z[None, :] - g[None, :], axis=1)
        assert np.allclose(fast, brute, atol=1e-12)

    def test_nonconvex_input_conjugated_through_its_hull(self):
        # a dented input must conjugate like its convex envelope; the scan
        # may not stall at the local maximum flanking the dent
        z = np.linspace(-8, 8, 1601)
        g = z**2 / 2 - 0.1 * np.abs(z)
        y = np.linspace(-3, 3, 1201)
        star = legendre(z, g, y)
        brute = np.max(y[:, None] * z[None, :] - g[None, :], axis=1)
        assert np.allclose(star, brute, atol=1e-12)
        assert np.allclose(star, 0.5 * (np.abs(y) + 0.1) ** 2, atol=1e-4)

    def test_biconjugation_exact_with_slope_grid(self):
        # with the dual grid containing every difference quotient the
        # biconjugate restores a convex input exactly at the grid points
        z = np.linspace(-4, 4, 101)
        g = np.cosh(z)
        slopes = np.diff(g) / np.diff(z)
        y = np.unique(np.concatenate([slopes, [slopes.min() - 1, slopes.max() + 1]]))
        star = legendre(z, g, y)
        back = legendre(y, star, z)
        assert np.allclose(back, g, atol=1e-9)
        assert np.all(back <= g + 1e-12)


# each value object: a builder from fresh caller arrays, and the array
# fields it keeps; the caller's arrays are overwritten after construction
CONSTRUCTORS = {
    "DiscreteMeasure": (lambda: (np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
                        DiscreteMeasure, ("atoms", "weights")),
    "PenaltyFunction": (lambda: (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5) ** 2),
                        PenaltyFunction, ("grid", "values")),
    "ShiftSup": (lambda: (np.linspace(0.0, 1.0, 5),),
                 lambda s: ShiftSup(BERNOULLI, PenaltyFunction.quadratic(2.0, 9), s),
                 ("shifts",)),
    "RateFunction": (lambda: (np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5) ** 2),
                     RateFunction, ("grid", "values")),
    "Hamiltonian1": (lambda: (np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5) ** 2),
                     Hamiltonian1, ("p_grid", "values")),
    "Hamiltonian2": (lambda: (np.array([0.0, 1.0]), np.array([0.0, 0.25])),
                     Hamiltonian2, ("lam_grid", "costs")),
    "GridFunction": (lambda: (np.linspace(-1.0, 1.0, 5),),
                     lambda v: GridFunction(Grid(1.0, 5), v), ("values",)),
}


class TestConstructorContract:
    @pytest.mark.parametrize("name", list(CONSTRUCTORS))
    def test_fields_are_read_only_copies(self, name):
        arrays, make, fields = CONSTRUCTORS[name]
        given = arrays()
        obj = make(*given)
        kept = {field: getattr(obj, field).copy() for field in fields}
        for a in given:
            a[...] = 7.0
        for field in fields:
            assert np.array_equal(getattr(obj, field), kept[field])
            with pytest.raises(ValueError):
                getattr(obj, field)[0] = 7.0

    @pytest.mark.parametrize("make", [PenaltyFunction, RateFunction, Hamiltonian1])
    @pytest.mark.parametrize("grid, values", [
        ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]),   # repeated point
        ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0]),   # decreasing
        ([0.0, 1.0, 2.0], [0.0, 1.0]),        # one value short
        ([[0.0, 1.0, 2.0]], [[0.0, 1.0, 2.0]]),   # not 1D
        ([0.0], [0.0]),                       # one point
    ])
    def test_sampled_grids_are_checked(self, make, grid, values):
        make(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
        with pytest.raises(InputError):
            make(np.array(grid), np.array(values))
