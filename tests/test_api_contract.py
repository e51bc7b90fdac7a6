"""The library's argument contract: a malformed call raises ``InputError``
naming the argument it broke, with no other exception, no warning and no
NaN in what it returns.

``MALFORMED`` tables calls that once ended otherwise: in an ``IndexError``,
a ``ZeroDivisionError``, numpy's own error or warning, a NaN, a loop that
never returns, or a run on a silently changed argument. The hypothesis
tests draw the inputs of the shared rules ``errors.nonnegative`` (a time)
and ``errors.steps`` (step counts), nan, +-inf, zero, negative values, empty
lists, bools, fractional counts and wrong shapes among them, and send them
through each rule and through the callables that take it. The valid times
drawn are ordinary ones, in [1e-3, 1]; the valid counts are at most 12.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernofflab import (Entropic, FirstOrderAffine, Grid, GridFunction,
                         Hamiltonian1, Hamiltonian2, Linear, OneStepOperator,
                         Partition, PenaltyFunction, RateFunction,
                         brute_force_functional, chernoff, chernoff_limit,
                         conjugate_rate, exact_tail_probabilities, gauss_hermite,
                         generator_check, hopf_lax, ld_rate, legendre,
                         nonlinear_functional, one_step, semigroup_defect,
                         solve_g_heat, solve_hj, two_point,
                         upper_lipschitz_certificate)
from chernofflab.errors import MAX_STEPS, InputError, nonnegative, probes, steps
from chernofflab.expectations import DiscreteMeasure

BERNOULLI = two_point()
GRID = Grid(2.0, 17)
F = GridFunction.sample(GRID, np.sin)
OP = OneStepOperator(Entropic(BERNOULLI))
K = (-1.0, 1.0)
RATE = RateFunction(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9) ** 2)
HAM = Hamiltonian1(np.linspace(-2.0, 2.0, 9), np.linspace(-2.0, 2.0, 9) ** 2)
G2 = Hamiltonian2(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
NAN = np.nan


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
    ("chernoff_limit-zero-dyadic_base",
     lambda: chernoff_limit(OP, 1.0, F, [1, 2], dyadic_base=0.0), "dyadic_base"),
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
     lambda: generator_check(OneStepOperator(Linear(DiscreteMeasure(
         np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5])))),
         GridFunction.sample(Grid(2.0, 5, dimension=2), lambda x, y: x + y), [0.5], K),
     "one-dimensional"),
    ("upper_lipschitz_certificate-no-probe",
     lambda: upper_lipschitz_certificate(OP, F, []), "probe_times"),
    ("ld_rate-negative-radius",
     lambda: ld_rate(BERNOULLI, 0.5, [2, 4], shift_radius=-1), "shift_radius"),
    ("ld_rate-nan-radius",
     lambda: ld_rate(BERNOULLI, 0.5, [2, 4], shift_radius=NAN), "shift_radius"),
    ("one_step-negative-t", lambda: one_step(OP, -0.5, F), "t must"),
    ("hopf_lax-bool-t", lambda: hopf_lax(F, True, RATE), "t must"),
    ("semigroup_defect-negative-s", lambda: semigroup_defect(F, -1.0, 2.0, RATE, K),
     "s must"),
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
]


@pytest.mark.parametrize("call, name", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_call_raises_input_error_naming_its_argument(call, name):
    err = outcome(call)
    assert isinstance(err, InputError), err
    assert name in str(err)


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
    for base in (0.75, 1.0, 0.5, 1e-3, 3.0):
        built.clear()
        chernoff_limit(OP, 1.0, F, [1, MAX_STEPS], dyadic_base=base)
        uniform, staggered = built[1], built[2]
        assert uniform.full_steps + (uniform.remainder > 0) == MAX_STEPS
        assert 0 < staggered.full_steps <= MAX_STEPS
    # at the default base the staggered mesh stays dyadic: 0.75 * 2^-19
    built.clear()
    chernoff_limit(OP, 1.0, F, [MAX_STEPS])
    assert built[1].step == 0.75 * 2.0 ** -19


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
                     np.int64(1)] + WRONG),
    st.floats(max_value=0.0), st.floats(1e-3, 1.0), st.integers(-3, 1))
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


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(TIMES)
def test_a_time_through_every_callable_that_takes_one(t):
    probe = is_time(t) and 0 < t <= 1
    calls = [
        ("t must", lambda: one_step(OP, t, F), is_time(t)),
        ("t must", lambda: hopf_lax(F, t, RATE), is_time(t)),
        ("t must", lambda: solve_hj(HAM, F, t), is_time(t)),
        ("t must", lambda: solve_g_heat(G2, F, t), is_time(t)),
        ("s must", lambda: semigroup_defect(F, t, 0.25, RATE, K), is_time(t)),
        ("horizon", lambda: Partition(t, 0.5), is_time(t)),
        ("step", lambda: Partition(0.5, t), probe),
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
