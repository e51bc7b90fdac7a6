"""The library's argument contract: a malformed call raises ``InputError``
naming the argument it broke, with no other exception, no warning and no
NaN in what it returns.

``MALFORMED`` tables calls that once ended otherwise: in an ``IndexError``,
a ``ZeroDivisionError``, numpy's own error or warning, a NaN, a loop that
never returns, or a run on a silently changed argument. Every ``__all__``
name has a row there, named by its id's prefix, or an entry in ``EXEMPT``
with its reason. ``EXACT`` tables calls at the edge of a rule that return
an exact value with no warning. The hypothesis tests draw the inputs of
the shared rules ``errors.nonnegative`` (a time), ``errors.step_time`` (a
one-step's time) and ``errors.steps`` (step counts), nan, +-inf, zero,
negative values, empty lists, bools, fractional counts and wrong shapes
among them, and send them through each rule and through the callables that
take it. The valid times drawn cover [0, 1], subnormals included, and a
few beyond 1; the valid counts are at most 12. They also send every draw,
a time, a count or any float, through each scalar field of a constructor
(``FIELDS``): the field builds its object with no warning and no NaN, or
raises InputError naming itself, as its own rule says.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chernofflab
from chernofflab import (Entropic, FirstOrderAffine, Grid, GridFunction, GrowthWeight,
                         Hamiltonian1, Hamiltonian2, Linear, OneStepOperator,
                         Partition, PenaltyFunction, Perturbed, RateFunction,
                         SecondOrder, ShiftSup, Shortfall, brute_force_functional,
                         centered, chernoff, chernoff_limit, clt_functional,
                         conjugate_rate, envelope, exact_tail_probabilities,
                         gauss_hermite, generator_check, hopf_lax, iterate, ld_rate,
                         legendre, nonlinear_functional, one_step, poly_rate,
                         solve_g_heat, solve_hj, two_point,
                         upper_lipschitz_certificate)
from chernofflab.errors import (MAX_POINTS, MAX_STEPS, MIN_TIME, InputError, nonnegative,
                                probes, step_time, steps, whole)
from chernofflab.expectations import RADIUS_MAX, DiscreteMeasure

BERNOULLI = two_point()
GRID = Grid(2.0, 17)
F = GridFunction.sample(GRID, np.sin)
OP = OneStepOperator(Entropic(BERNOULLI))
K = (-1.0, 1.0)
RATE = RateFunction(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9) ** 2)
HAM = Hamiltonian1(np.linspace(-2.0, 2.0, 9), np.linspace(-2.0, 2.0, 9) ** 2)
G2 = Hamiltonian2(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
NAN = np.nan
PLANE = DiscreteMeasure(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
# a payoff above t times the largest float at t = 1e-300
HUGE = GridFunction.sample(GRID, lambda x: 1e10 * np.sin(x))
# atoms near the largest float, whose steps read the edge values of EXP
EDGES = DiscreteMeasure([-1e308, 1e308], [0.5, 0.5])
EXP = GridFunction.sample(GRID, np.exp)
EDGE_MEAN = np.full(17, np.exp(np.array([-2.0, 2.0])) @ [0.5, 0.5])
# a drift of 1e308, whose bases and queries pass the largest float
BIG_DRIFT = Perturbed(lambda x: np.full_like(x, 1e308), 0.0)
# the models and scalings of the one-step time rows
MODELS = {"Linear": Linear(BERNOULLI), "Entropic": Entropic(BERNOULLI),
          "Shortfall": Shortfall(BERNOULLI, 2.0),
          "ShiftSup": ShiftSup(BERNOULLI, PenaltyFunction.quadratic(1.0, 9),
                               np.linspace(-1.0, 1.0, 5))}
SCALINGS = {"FirstOrderAffine": FirstOrderAffine(), "Perturbed": Perturbed(np.sin, 1.0),
            "SecondOrder": SecondOrder()}


def step_at(t, model, scaling):
    return lambda: one_step(OneStepOperator(MODELS[model], SCALINGS[scaling]), t, F)


def outcome(call):
    """``call()`` with every warning raised as an error; an InputError is
    returned, any other exception propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except InputError as err:
            return err


# (id, call, the argument its message names)
MALFORMED = [
    ("chernoff_limit-empty", lambda: chernoff_limit(OP, 1.0, F, []), "schedule"),
    ("chernoff_limit-zero", lambda: chernoff_limit(OP, 1.0, F, [0, 2]), "schedule"),
    ("chernoff_limit-fractional", lambda: chernoff_limit(OP, 1.0, F, [1.5, 2.5]),
     "schedule"),
    ("chernoff_limit-bool", lambda: chernoff_limit(OP, 1.0, F, [True, 2]), "schedule"),
    ("chernoff_limit-decreasing", lambda: chernoff_limit(OP, 1.0, F, [4, 2]),
     "schedule must be strictly increasing"),
    ("chernoff_limit-above-MAX_STEPS",
     lambda: chernoff_limit(OP, 1.0, F, [MAX_STEPS + 1]), "schedule"),
    ("chernoff_limit-nan-t", lambda: chernoff_limit(OP, NAN, F, [1, 2]), "t must"),
    ("chernoff_limit-nan-compact",
     lambda: chernoff_limit(OP, 1.0, F, [1, 2], compact=(NAN, 1.0)), "box"),
    ("Partition-nan", lambda: Partition(NAN, 0.5), "horizon"),
    ("Partition-inf", lambda: Partition(np.inf, 0.5), "horizon"),
    ("Partition-1e300", lambda: Partition(1e300, 0.5), "horizon"),
    ("Partition-subnormal-step", lambda: Partition(1.0, 5e-324), "step"),
    ("Partition-bool-step", lambda: Partition(1.0, True), "step"),
    ("nonlinear_functional-bool",
     lambda: nonlinear_functional(Entropic(BERNOULLI), FirstOrderAffine(), F, True),
     "n must"),
    ("brute_force_functional-bool",
     lambda: brute_force_functional(Entropic(BERNOULLI), FirstOrderAffine(), F, True),
     "n must"),
    ("gauss_hermite-fractional", lambda: gauss_hermite(3.5), "n_nodes"),
    ("gauss_hermite-bool", lambda: gauss_hermite(True), "n_nodes"),
    ("exact_tail_probabilities-nan-threshold",
     lambda: exact_tail_probabilities(BERNOULLI, NAN, [2, 4]), "threshold"),
    ("exact_tail_probabilities-fractional",
     lambda: exact_tail_probabilities(BERNOULLI, 0.5, [1.5, 4]), "n grid"),
    ("generator_check-zero-probe", lambda: generator_check(OP, F, [0.0], K), "h_grid"),
    ("generator_check-no-probe", lambda: generator_check(OP, F, [], K), "h_grid"),
    ("generator_check-empty-box", lambda: generator_check(OP, F, [0.1], (1.0, -1.0)),
     "box"),
    ("generator_check-2d-grid",
     lambda: generator_check(OneStepOperator(Linear(PLANE)),
                             GridFunction.sample(Grid(2.0, 5, dimension=2),
                                                 lambda x, y: x + y), [0.5], K),
     "one-dimensional"),
    ("upper_lipschitz_certificate-no-probe",
     lambda: upper_lipschitz_certificate(OP, F, []), "probe_times"),
    ("ld_rate-negative-radius",
     lambda: ld_rate(BERNOULLI, 0.5, [2, 4], shift_radius=-1), "shift_radius"),
    ("ld_rate-nan-radius",
     lambda: ld_rate(BERNOULLI, 0.5, [2, 4], shift_radius=NAN), "shift_radius"),
    ("one_step-negative-t", lambda: one_step(OP, -0.5, F), "t must"),
    ("hopf_lax-bool-t", lambda: hopf_lax(F, True, RATE), "t must"),
    ("solve_hj-nan-t", lambda: solve_hj(HAM, F, NAN), "t must"),
    # a NaN grid point passed the strictly-increasing test
    ("PenaltyFunction-nan-grid",
     lambda: PenaltyFunction([0.0, NAN, 1.0], [0.0, 0.5, 1.0]), "penalty"),
    ("RateFunction-nan-grid", lambda: RateFunction([0.0, NAN, 1.0], [0.0, 0.5, 1.0]),
     "rate function"),
    ("Hamiltonian1-nan-grid", lambda: Hamiltonian1([0.0, NAN, 1.0], [0.0, 0.5, 1.0]),
     "Hamiltonian"),
    ("legendre-nan-dual-grid",
     lambda: legendre([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], [NAN, 1.0]), "dual grid"),
    ("legendre-nan-grid",
     lambda: legendre([0.0, NAN, 2.0], [0.0, 1.0, 4.0], [0.5]), "legendre"),
    # a box that holds no node
    ("sup_norm_on-empty-box", lambda: F.sup_norm_on((1.0, 0.5)), "box"),
    ("conjugate_rate-empty-y-grid",
     lambda: conjugate_rate(Entropic(BERNOULLI), np.linspace(-1.0, 1.0, 5), []), "y-grid"),
    # marches of 5.6e11, 5.6e301 and 3.2e11 steps on 17 nodes, each of which
    # ran for hours; each fails before its first step
    ("solve_hj-above-MAX_MARCH_WORK", lambda: solve_hj(HAM, F, 1e10), "MAX_MARCH_WORK"),
    ("solve_hj-1e300", lambda: solve_hj(HAM, F, 1e300), "MAX_MARCH_WORK"),
    ("solve_g_heat-above-MAX_MARCH_WORK", lambda: solve_g_heat(G2, F, 1e10),
     "MAX_MARCH_WORK"),
    # scalars that were built or compared as nan
    ("Hamiltonian2-nan-sigma2",
     lambda: Hamiltonian2(np.array([0.0, 1.0]), np.array([0.0, 0.0]), sigma2=NAN), "sigma2"),
    ("Hamiltonian2-negative-sigma2",
     lambda: Hamiltonian2(np.array([0.0, 1.0]), np.array([0.0, 0.0]), sigma2=-5), "sigma2"),
    ("Perturbed-nan-lip", lambda: Perturbed(np.sin, NAN), "lip"),
    ("poly_rate-nan-tol",
     lambda: poly_rate(BERNOULLI, 2.0, 0.5, [200, 400, 600], tol=NAN), "tol"),
    # payoff / t of 1e300 leaves shortfall_root no bracket; a bare assert
    # caught it, and nothing under python -O
    ("Shortfall-unbracketable-payoff",
     lambda: one_step(OneStepOperator(Shortfall(BERNOULLI, 2.0)), 1e-300, F),
     "too large to bracket"),
    # a bracket too wide to bisect: its iteration count overflowed, with a
    # warning and then an OverflowError
    ("Shortfall-overflowing-bracket",
     lambda: Shortfall(BERNOULLI, 2.0).expect(lambda y: 1e300 * y), "too large to bracket"),
    # brackets the bisection overflowed on, with numpy's warning: the width
    # to the power p (squared at 1e160, cubed at 1e110), the width itself
    # at 1e308, and the midpoint sum lo + hi of two ends near the largest
    # float, at a power close enough to 1 that the width's power fits
    ("Shortfall-power-overflow-p2",
     lambda: Shortfall(BERNOULLI, 2.0).expect(lambda y: 1e160 * y), "too large to bracket"),
    ("Shortfall-power-overflow-p3",
     lambda: Shortfall(BERNOULLI, 3.0).expect(lambda y: 1e110 * y), "too large to bracket"),
    ("Shortfall-width-overflow",
     lambda: Shortfall(BERNOULLI, 2.0).expect(lambda y: 1e308 * y), "too large to bracket"),
    ("Shortfall-midpoint-overflow",
     lambda: Shortfall(BERNOULLI, 1.05).expect(lambda y: 1.7e308 + 1e293 * y),
     "too large to bracket"),
    # node and point counts: a fractional or oversized one was built, and a
    # bool dimension or a float or bool exponent reached each to_csv header
    # as d=True, weight=1.0 or weight=True
    ("Grid-fractional", lambda: Grid(1.0, 5.5), "points_per_axis"),
    ("Grid-bool", lambda: Grid(1.0, True), "points_per_axis"),
    ("Grid-above-MAX_POINTS", lambda: Grid(1.0, 10 ** 30 + 1), "MAX_POINTS"),
    ("Grid-2d-above-MAX_POINTS", lambda: Grid(1.0, 1001, 2), "MAX_POINTS"),
    # (2^63 - 1)^2 wraps around to 1 in int64
    ("Grid-2d-int64-wraparound", lambda: Grid(1.0, np.int64(2 ** 63 - 1), 2), "MAX_POINTS"),
    ("Grid-bool-dimension", lambda: Grid(1.0, 5, True), "dimension"),
    ("GrowthWeight-float", lambda: GrowthWeight(1.0), "exponent"),
    ("GrowthWeight-bool", lambda: GrowthWeight(True), "exponent"),
    ("PenaltyFunction.quadratic-fractional",
     lambda: PenaltyFunction.quadratic(2.0, 5.5), "n must"),
    ("PenaltyFunction.quadratic-above-MAX_POINTS",
     lambda: PenaltyFunction.quadratic(2.0, 10 ** 12), "MAX_POINTS"),
    # radial rates that were built, then failed in numpy at the first
    # Hopf-Lax step, or were built and spread over no direction
    ("RateFunction-zero-directions",
     lambda: RateFunction([0.0, 1.0], [0.0, 1.0], radial=True, directions=0), "directions"),
    ("RateFunction-negative-directions",
     lambda: RateFunction([0.0, 1.0], [0.0, 1.0], radial=True, directions=-3), "directions"),
    # a radial flag that was no bool: 2 built a radial rate, which hopf_lax
    # then refused on a 2D grid, and "no" applied the radial rule radius >= 0
    ("RateFunction-int-radial",
     lambda: RateFunction([0.0, 1.0], [0.0, 1.0], radial=2), "radial"),
    ("RateFunction-string-radial",
     lambda: RateFunction([0.0, 1.0], [0.0, 1.0], radial="no"), "radial"),
    ("hopf_lax-radial-rate-on-1d-grid",
     lambda: hopf_lax(F, 0.5, RateFunction([0.0, 1.0], [0.0, 1.0], radial=True)), "radial"),
    # constructor arguments that were built and broke a later call: a NaN
    # shift dropped as if it cost +inf, a power whose 2^p overflows every
    # shortfall bracket, radii that warned in numpy, a bool or numpy
    # half-width (the bool printed R=1 in every CSV header, the numpy one
    # overflowed its spacing), a zero spacing, a weight per atom given as a
    # column and a 3D atom array
    ("ShiftSup-nan-shift",
     lambda: ShiftSup(BERNOULLI, PenaltyFunction.quadratic(1.0, 9), [0.0, NAN]), "shifts"),
    ("Shortfall-inf-power", lambda: Shortfall(BERNOULLI, np.inf), "power"),
    ("Shortfall-power-1024", lambda: Shortfall(BERNOULLI, 1024), "power"),
    ("Shortfall-power-1025", lambda: Shortfall(BERNOULLI, 1025.0), "power"),
    ("PenaltyFunction.quadratic-inf-radius",
     lambda: PenaltyFunction.quadratic(np.inf), "radius"),
    ("PenaltyFunction.indicator-inf-radius",
     lambda: PenaltyFunction.indicator(np.inf), "radius"),
    ("PenaltyFunction.quadratic-1e308-radius",
     lambda: PenaltyFunction.quadratic(1e308), "radius"),
    ("Grid-bool-half-width", lambda: Grid(True, 5), "half_width"),
    ("Grid-numpy-half-width-overflow", lambda: Grid(np.float64(1.7e308), 5), "half_width"),
    ("Grid-zero-spacing", lambda: Grid(5e-324, 5), "half_width"),
    ("DiscreteMeasure-column-weights",
     lambda: DiscreteMeasure([0.0, 1.0], [[0.5], [0.5]]), "weights"),
    ("DiscreteMeasure-3d-atoms",
     lambda: DiscreteMeasure(np.zeros((2, 2, 2)), [0.5, 0.5]), "atoms"),
    # a one-step on a grid of another dimension than its measure ran: a 2D
    # measure on its first coordinate, a 1D one along the diagonal
    ("OneStepOperator-2d-measure-on-1d-grid",
     lambda: one_step(OneStepOperator(Linear(PLANE)), 0.5, F), "dimension"),
    ("OneStepOperator-1d-measure-on-2d-grid",
     lambda: one_step(OneStepOperator(Linear(BERNOULLI)), 0.5,
                      GridFunction.sample(Grid(2.0, 5, 2), lambda x, y: x + y)), "dimension"),
    # one-step times at the extremes: t = 1e308 overflowed the sample
    # points of the first-order scalings, and a subnormal t overflowed
    # payoff / t, directly or through a partition's step
    *[(f"one_step-1e308-{model}-{scaling}", step_at(1e308, model, scaling), "t must")
      for model in MODELS for scaling in ("FirstOrderAffine", "Perturbed")],
    *[(f"one_step-5e-324-{model}-{scaling}", step_at(5e-324, model, scaling), "t must")
      for model in ("Entropic", "Shortfall") for scaling in SCALINGS],
    ("iterate-subnormal-step", lambda: iterate(OP, Partition(1e-310, 1e-310), F), "step"),
    # a payoff above t times the largest float at an accepted time: payoff
    # / t warned "overflow encountered in divide" (Shortfall raised its
    # bracket error after the warning), at a t that divides and at a power
    # of two that multiplies
    *[(f"one_step-payoff-over-t-overflow-{model}-{kind}",
       lambda model=model, t=t: one_step(OneStepOperator(MODELS[model]), t, HUGE),
       "payoff / t") for model in ("Entropic", "Shortfall")
      for kind, t in (("divides", 1e-300), ("multiplies", 2.0 ** -996))],
    # a weight that is not a GrowthWeight: weighted_norm ended in a TypeError
    ("GridFunction-int-weight", lambda: GridFunction(GRID, np.zeros(17), 2), "weight"),
    # a row for each export that had none
    ("GridFunction-nan-value", lambda: GridFunction(GRID, np.full(17, NAN)), "values"),
    ("Linear-nan-payoff", lambda: Linear(BERNOULLI).expect(lambda y: NAN * y), "payoff"),
    ("Entropic-inf-coefficient", lambda: Entropic(BERNOULLI).expect_linear(np.inf),
     "payoff"),
    # the four rules that raised an InputError subclass of their own: an
    # uncentered model, given to centered or to clt_functional, a dual grid
    # too small for the rate's minimum and a tail event that is empty
    ("centered-negative-mean",
     lambda: centered(Linear(DiscreteMeasure([1.0, 2.0], [0.5, 0.5]))), "centering"),
    ("envelope-crossed-bounds",
     lambda: envelope(F, 1.0, np.linspace(-1.0, 1.0, 5), np.ones(5), np.zeros(5),
                      np.linspace(-1.0, 1.0, 5)), "H_- <= H_+"),
    ("clt_functional-uncentered", lambda: clt_functional(Entropic(BERNOULLI), F, 4),
     "centered"),
    ("conjugate_rate-too-small-y-grid",
     lambda: conjugate_rate(Linear(DiscreteMeasure([3.0], [1.0])), np.linspace(-8.0, 8.0, 321),
                            np.linspace(-1.0, 1.0, 41)), "y-grid"),
    ("ld_rate-empty-event", lambda: ld_rate(BERNOULLI, 1.5, [4, 8]), "threshold"),
    # constructor arguments that were built: a penalty with a finite value
    # after +inf, whose ShiftSup kept shift 2 at cost 4 and dropped 0.5 to
    # 1.5, or with a NaN value; a std that overflowed the atoms with a
    # warning, a NaN one that named the atoms, a negative or bool one; and
    # a symmetric flag that was no bool and built the symmetric model
    ("PenaltyFunction-finite-after-inf",
     lambda: PenaltyFunction([0.0, 1.0, 2.0], [0.0, np.inf, 4.0]), "first +inf"),
    ("PenaltyFunction-nan-value",
     lambda: PenaltyFunction([0.0, 1.0, 2.0], [0.0, NAN, 4.0]), "NaN"),
    ("gauss_hermite-overflowing-std", lambda: gauss_hermite(4, std=1e308), "std"),
    ("gauss_hermite-nan-std", lambda: gauss_hermite(4, std=NAN), "std"),
    ("gauss_hermite-negative-std", lambda: gauss_hermite(4, std=-1), "std"),
    ("gauss_hermite-bool-std", lambda: gauss_hermite(4, std=True), "std"),
    ("ShiftSup-string-symmetric",
     lambda: ShiftSup(BERNOULLI, PenaltyFunction.quadratic(1.0, 9), [0.0, 1.0],
                      symmetric="no"), "symmetric"),
    # a radius or count whose penalty grid is not strictly increasing
    # failed naming the penalty, not its argument
    ("PenaltyFunction.quadratic-subnormal-radius",
     lambda: PenaltyFunction.quadratic(5e-324, 9), "radius"),
    ("PenaltyFunction.indicator-subnormal-radius",
     lambda: PenaltyFunction.indicator(1e-320), "radius"),
    ("PenaltyFunction.quadratic-one-point", lambda: PenaltyFunction.quadratic(2.0, 1),
     "n must"),
]

# the __all__ names with no MALFORMED row, and why
EXEMPT = (
    ("FirstOrderAffine", "takes no arguments"),
    ("SecondOrder", "takes no arguments"),
    ("two_point", "takes no arguments"),
    ("NUMBA_ENABLED", "a constant, not a callable"),
    ("RateReport", "a record of checked values, built by ld_rate and poly_rate"),
)

# (id, call, the value it returns exactly)
EXACT = [
    # a zero weight's log is -inf: numpy warned "divide by zero"
    ("Entropic-zero-weight",
     lambda: Entropic(DiscreteMeasure([0.0, 1.0], [0.0, 1.0])).expect(np.sin), np.sin(1.0)),
    # a finite shift whose norm overflows costs +inf and is dropped: numpy
    # warned "overflow encountered in multiply"
    ("ShiftSup-shift-norm-overflow",
     lambda: ShiftSup(BERNOULLI, PenaltyFunction.quadratic(1.0, 9), [0.0, 1e200]).shifts,
     [[0.0]]),
    ("PenaltyFunction.quadratic-largest-radius",
     lambda: PenaltyFunction.quadratic(RADIUS_MAX).values[-1], RADIUS_MAX ** 2),
    # atoms near the largest float step to the box edges, the constant
    # continuation: c / spacing of the shift stencil and (queries - origin)
    # / spacing of the per-point plan warned "overflow encountered in
    # divide", and a drift-perturbed base x + drift or query x + drift + y
    # "in add"
    ("one_step-atoms-near-largest-float-stencil",
     lambda: one_step(OneStepOperator(Linear(EDGES)), 1.0, EXP).values, EDGE_MEAN),
    ("one_step-atoms-near-largest-float-per-point",
     lambda: one_step(OneStepOperator(Linear(EDGES), Perturbed(np.sin, 1.0)), 1.0,
                      EXP).values, EDGE_MEAN),
    ("one_step-atoms-near-largest-float-2d",
     lambda: one_step(OneStepOperator(Linear(DiscreteMeasure([[1e308, 1e308], [-1e308, -1e308]],
                                                             [0.5, 0.5]))), 1.0,
                      GridFunction.sample(Grid(2.0, 9, 2), lambda x, y: np.exp(x + y))).values,
     np.full((9, 9), np.exp(np.array([-4.0, 4.0])) @ [0.5, 0.5])),
    ("one_step-drift-base-beyond-largest-float",
     lambda: one_step(OneStepOperator(Linear(BERNOULLI), BIG_DRIFT), 1.0,
                      GridFunction.sample(Grid(8e307, 17), np.tanh)).values, np.ones(17)),
    ("one_step-drift-query-beyond-largest-float",
     lambda: one_step(OneStepOperator(Linear(EDGES), BIG_DRIFT), 1.0, EXP).values,
     np.full(17, np.exp(np.array([0.0, 2.0])) @ [0.5, 0.5])),
]


@pytest.mark.parametrize("call, name", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_call_raises_input_error_naming_its_argument(call, name):
    err = outcome(call)
    assert isinstance(err, InputError), err
    assert name in str(err)


@pytest.mark.parametrize("call, want", [case[1:] for case in EXACT],
                         ids=[case[0] for case in EXACT])
def test_call_at_the_edge_of_a_rule_returns_the_exact_value(call, want):
    assert np.array_equal(outcome(call), want)


def test_every_export_has_a_row_or_an_exemption():
    # a row's id starts with the name it covers, up to "-" or "."
    covered = {case[0].split("-")[0].split(".")[0] for case in MALFORMED}
    exempt = [name for name, _ in EXEMPT]
    assert [n for n in chernofflab.__all__ if n not in covered and n not in exempt] == []
    # an exemption names an export that has no row
    assert [n for n in exempt if n in covered or n not in chernofflab.__all__] == []


def test_shortfall_bracket_below_the_overflow_still_solves():
    # width 2e150, squared 4e300: still bisected, with no warning
    got = outcome(lambda: Shortfall(BERNOULLI, 2.0).expect(lambda y: 1e150 * y))
    assert got == pytest.approx(1e150, rel=1e-12)


def test_penalty_with_a_nan_grid_point_is_not_built():
    # it was built, and evaluated to nan between its grid points
    with pytest.raises(InputError):
        PenaltyFunction([0.0, NAN, 1.0], [0.0, 0.5, 1.0])(0.7)


def test_staggered_partition_of_the_largest_schedule_is_built(monkeypatch):
    # the partitions chernoff_limit builds for a last entry of MAX_STEPS,
    # built and not iterated
    built = []

    def record(op, partition, f):
        built.append(partition)
        return f
    monkeypatch.setattr(chernoff, "iterate", record)
    chernoff_limit(OP, 1.0, F, [1, MAX_STEPS])
    uniform, staggered = built[1], built[2]
    assert uniform.full_steps + (uniform.remainder > 0) == MAX_STEPS
    assert 0 < staggered.full_steps <= MAX_STEPS
    # the staggered mesh stays dyadic at its cap: 0.75 * 2^-19
    assert chernoff.STAGGERED_MAX_LEVEL == 19
    assert staggered.step == chernoff.STAGGERED_BASE * 2.0 ** -19 == 0.75 * 2.0 ** -19


def test_chernoff_limit_on_a_2d_grid_takes_its_default_box():
    # the default box was 1D, and sup_norm_on failed to unpack it
    measure = DiscreteMeasure(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
    f = GridFunction.sample(Grid(2.0, 9, dimension=2), lambda x, y: x + y)
    _, diag = outcome(lambda: chernoff_limit(OneStepOperator(Linear(measure)), 1.0, f,
                                             [1, 2]))
    assert np.isfinite(diag.cauchy_gap) and np.isfinite(diag.cross_schedule_gap)


# ---------------------------------------------------------------------------
# the shared rules under hypothesis
# ---------------------------------------------------------------------------

WRONG = [None, "0.5", [0.5], (0.5,), np.array([0.5]), np.array(0.5),
         np.array([[0.5]]), {}]
TIMES = st.one_of(
    st.sampled_from([NAN, np.inf, -np.inf, 0, 0.0, -0.0, -1, -0.5, -1e-300, True,
                     False, np.bool_(True), np.float64(NAN), np.float32(0.5),
                     np.int64(1), 5e-324, 1e-310, MIN_TIME, np.nextafter(MIN_TIME, 0.0),
                     np.nextafter(1.0, 2.0), 1.5, 2] + WRONG),
    st.floats(max_value=0.0), st.floats(0.0, 1.0), st.integers(-3, 1))
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
COUNT = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([0, True, False, 2.5, 3.0, NAN, np.inf, -np.inf, np.int64(4),
                     np.float64(4.0), np.bool_(True), MAX_STEPS + 1, "3", None, [2]]))
COUNTS = st.one_of(
    st.lists(COUNT, max_size=4),
    st.sampled_from([4, 2.5, None, "12", np.array([[1, 2]]), np.array([1, 2]),
                     np.array([1.0, 2.0]), (1, 2), range(1, 4), np.array(3),
                     [1, [2, 3]], {}, [2, 2], [3, 1]]))


def is_time(x):
    return (isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, bool) and 0 <= x < np.inf)


def is_step_time(t):
    return is_time(t) and (t == 0 or MIN_TIME <= t <= 1)


def is_count(n):
    return (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
            and 1 <= n <= MAX_STEPS)


def are_counts(ns):
    if isinstance(ns, np.ndarray):
        ns = list(ns) if ns.ndim == 1 else []
    elif not isinstance(ns, (list, tuple, range)):
        return False
    return (len(ns) > 0 and all(is_count(n) for n in ns)
            and all(a < b for a, b in zip(ns, ns[1:])))


def no_nan(value):
    """True when ``value`` holds no NaN: a grid function's values, a
    partition's steps, a report's fields or a plain number."""
    if isinstance(value, GridFunction):
        return not np.any(np.isnan(value.values))
    if isinstance(value, Partition):
        return not np.isnan(value.remainder)
    if hasattr(value, "values") and hasattr(value, "bound"):
        return not np.any(np.isnan([*value.values, value.bound, value.fitted_rate]))
    return not np.any(np.isnan(value))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(TIMES, ANY_FLOAT))
def test_nonnegative_takes_exactly_the_finite_times(x):
    got = outcome(lambda: nonnegative(x, "x"))
    if is_time(x):
        assert got is x
    else:
        assert isinstance(got, InputError) and "x must be" in str(got)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(COUNTS)
def test_steps_takes_exactly_the_step_counts(ns):
    got = outcome(lambda: steps(ns, "ns"))
    if are_counts(ns):
        assert got == [int(n) for n in ns] and all(type(n) is int for n in got)
    else:
        assert isinstance(got, InputError) and "ns must be" in str(got)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(TIMES, ANY_FLOAT))
def test_step_time_takes_exactly_the_one_step_times(t):
    got = outcome(lambda: step_time(t, "t"))
    if is_step_time(t):
        assert got is t
    else:
        assert isinstance(got, InputError) and "t must be" in str(got)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(TIMES)
def test_a_time_through_every_callable_that_takes_one(t):
    probe = is_step_time(t) and t > 0
    calls = [
        ("t must", lambda: one_step(OP, t, F), is_step_time(t)),
        ("t must", lambda: hopf_lax(F, t, RATE), is_time(t)),
        ("t must", lambda: solve_hj(HAM, F, t), is_time(t)),
        ("t must", lambda: solve_g_heat(G2, F, t), is_time(t)),
        ("horizon", lambda: Partition(t, 0.5), is_time(t)),
        ("step", lambda: Partition(0.5, t), probe and 0.5 < (MAX_STEPS + 1) * t),
        ("shift_radius", lambda: ld_rate(BERNOULLI, 0.5, [2, 4], shift_radius=t),
         is_time(t)),
        ("probe_times", lambda: upper_lipschitz_certificate(OP, F, [t]), probe),
        ("h_grid", lambda: generator_check(OP, F, [t], K).defects, probe),
        ("h_grid", lambda: probes([0.5, t], "h_grid"), probe),
    ]
    for name, call, valid in calls:
        got = outcome(call)
        if valid:
            assert not isinstance(got, InputError), (name, got)
            assert no_nan(got), name
        else:
            assert isinstance(got, InputError) and name in str(got), (name, got)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(COUNTS, COUNT)
def test_counts_through_every_callable_that_takes_them(ns, n):
    for call, valid in [
            (lambda: exact_tail_probabilities(BERNOULLI, 0.5, ns), are_counts(ns)),
            (lambda: chernoff_limit(OP, 1.0, F, ns)[1].values_at_origin, are_counts(ns)),
            (lambda: nonlinear_functional(Entropic(BERNOULLI), FirstOrderAffine(), F, n),
             is_count(n)),
            (lambda: gauss_hermite(n).weights, is_count(n) and n <= 256)]:
        got = outcome(call)
        if valid:
            assert not isinstance(got, InputError), got
            assert no_nan(got)
        else:
            assert isinstance(got, InputError), got


# (the name its error gives, the field's constructor, whether it takes x):
# each scalar field has its own range. A bound compares with float(x),
# since a float32 x casts a Python float bound to float32, which
# overflows with a warning
FLOAT_MAX = np.finfo(float).max
FIELDS = [
    ("half_width", lambda x: Grid(x, 5).axis,
     lambda x: is_time(x) and 0 < 2.0 * x / 4 and x <= FLOAT_MAX / 2),
    ("exponent", lambda x: GrowthWeight(x).exponent, lambda x: whole(x) and x in (0, 1, 2)),
    ("power", lambda x: Shortfall(BERNOULLI, x).power, lambda x: is_time(x) and 1 < x < 1024),
    ("radius", lambda x: PenaltyFunction.quadratic(x, 9).values,
     lambda x: is_time(x) and MIN_TIME <= float(x) <= RADIUS_MAX),
    ("n must", lambda x: PenaltyFunction.quadratic(2.0, x).values,
     lambda x: whole(x) and 2 <= x <= MAX_POINTS),
    ("radius", lambda x: PenaltyFunction.indicator(x).values,
     lambda x: is_time(x) and MIN_TIME <= float(x) <= RADIUS_MAX),
    ("std", lambda x: gauss_hermite(4, x).atoms, lambda x: is_time(x) and float(x) <= RADIUS_MAX),
    ("lip", lambda x: Perturbed(np.sin, x).lip, is_time),
    ("sigma2", lambda x: Hamiltonian2(np.array([0.0, 1.0]), np.array([0.0, 0.0]),
                                      sigma2=x).sigma2, is_time),
]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(TIMES, COUNT, ANY_FLOAT,
                 st.sampled_from([RADIUS_MAX, np.nextafter(RADIUS_MAX, np.inf), 1e308,
                                  FLOAT_MAX / 2, 1023.5, 1024, 1e-320])))
def test_a_scalar_through_every_constructor_field(x):
    for name, build, valid in FIELDS:
        got = outcome(lambda: build(x))
        if valid(x):
            assert not isinstance(got, InputError), (name, got)
            assert no_nan(got), name
        else:
            assert isinstance(got, InputError) and name in str(got), (name, got)
