"""Convex expectation functionals on finitely supported payoff samples.

Four model variants are provided, all constant-preserving, monotone and
convex on evaluations:

* ``Linear``          plain weighted average against a reference measure,
* ``Entropic``        log-integral of the exponential (entropic certainty
                      equivalent),
* ``Shortfall``       utility-shortfall value solved by bisection,
* ``ShiftSup``        penalized supremum over deterministic shifts of the
                      reference measure; with ``symmetric=True``, over
                      symmetric two-point mixtures of shifts, the
                      second-order analogue.

Each model implements ``reduce(payoff, t)``, returning t * E[payoff / t]
for every row of a payoff matrix: ``payoff`` maps the sample points the
model needs, shape (k, d), to a (rows, k) matrix. One row is a scalar
expectation (``expect``), one row per coefficient a is ``expect_linear``
(E[a xi_1], xi_1 the first coordinate, in any dimension), and one row per
grid node is a step of the one-step operator. Zero rows give
shape (0,) and reduce nothing, which is how a caller learns the points
without a reduction (``limits.brute_force_functional``'s probe). Each model
queries exactly the points it needs, so all expectations are finite sums.
``Linear`` and ``ShiftSup`` also give the lines of their G
(``second_order_lines``).

A payoff may also carry an optional entry ``mean(points, weights)``: for
points of shape (L, m, d) it returns the (L, rows) matrix whose row l is
``payoff(points[l]) @ weights``. The grid-aligned gather of a one-step
provides it (one banded matrix product), and ``ShiftSup`` then takes all of
its atom means in one call; for payoffs without it, ``ShiftSup`` calls the
payoff once per shift and stacks the means. Either way it subtracts the
penalties from one (shifts, rows) matrix and takes one max over the shifts.
A payoff whose attribute ``scratch`` is true hands over the matrices it
returns: a model may overwrite them, and ``Entropic`` and ``Shortfall``
write payoff / t into them. Any other payoff's matrix is only read.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import MIN_TIME, InputError, freeze, nonnegative, points, sampled, steps

SHORTFALL_TOL = 1e-10
# the widest bracket shortfall_root bisects: its iteration count divides the
# width by SHORTFALL_TOL, which must stay finite
_FLOAT_MAX = np.finfo(float).max
SHORTFALL_WIDEST = _FLOAT_MAX * SHORTFALL_TOL
CENTERING_PROBES = (1.0, -1.0, 2.0, -2.0)
CENTERING_GRID = np.arange(-80, 81) / 20.0
CENTERING_GRID.flags.writeable = False
# the most Gauss-Hermite atoms: numpy's hermgauss weights underflow to
# subnormals near 370 atoms and turn to NaN after that (numpy 2.4), and its
# companion matrix grows as the square of the count
GAUSS_HERMITE_MAX = 256
# the largest penalty radius or Gaussian std: c^2 and std^2 are finite on
# [0, RADIUS_MAX]
RADIUS_MAX = float(np.sqrt(_FLOAT_MAX))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on R^d, built in code or from a
    config spec (``gauss_hermite``, ``atoms``, ``point``): k finite atoms,
    shape (k,) or (k, d), and k nonnegative weights that sum to one."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_1d(np.asarray(self.atoms, dtype=float))
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 2 or weights.shape != atoms.shape[:1]:
            raise InputError("atoms must have shape (k,) or (k, d) and weights (k,)")
        if not np.all(weights >= 0):
            raise InputError("weights must be nonnegative numbers")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise InputError("weights must sum to one")
        if not np.all(np.isfinite(atoms)):
            raise InputError("atoms must be finite")
        freeze(self, atoms=atoms, weights=weights)

    @property
    def dimension(self):
        return self.atoms.shape[1]

    def mean_and_cov(self):
        """First moment and raw second-moment matrix (m, Sigma)."""
        m = self.weights @ self.atoms
        sigma = (self.atoms * self.weights[:, None]).T @ self.atoms
        return m, sigma


def gauss_hermite(n_nodes, std=1.0):
    """Gaussian N(0, std^2) as Gauss-Hermite quadrature atoms, 1 to
    ``GAUSS_HERMITE_MAX`` of them, a count that :func:`errors.steps` takes;
    the std is in [0, ``RADIUS_MAX``] (:func:`_scale`)."""
    if steps([n_nodes], "n_nodes")[0] > GAUSS_HERMITE_MAX:
        raise InputError(f"gauss_hermite takes 1 to {GAUSS_HERMITE_MAX} atoms, got {n_nodes}")
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    return DiscreteMeasure(_scale(std, "std", 0.0) * np.sqrt(2.0) * x, w / np.sqrt(np.pi))


def two_point():
    """The symmetric Bernoulli measure (delta_{-1} + delta_{+1}) / 2."""
    return DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


@dataclass(frozen=True)
class PenaltyFunction:
    """Convex nondecreasing penalty on a parameter grid, with inf markers.

    The grid has at least two strictly increasing points and starts at 0,
    where ``phi(0) = 0``. The values are nonnegative numbers, no NaN, and
    +inf from the first +inf on, as a convex nondecreasing penalty is;
    evaluation between grid points is linear and becomes infinite as soon
    as an infinite neighbour is involved. Configs spell penalties as the
    specs ``quadratic`` and ``indicator``.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        c, v = sampled("penalty", self.grid, self.values)
        if c[0] != 0.0 or v[0] != 0.0:
            raise InputError("penalty must have phi(0) = 0 with 0 the first grid point")
        if not np.all(v >= 0):
            raise InputError("penalty values must be nonnegative numbers, not NaN")
        fin = np.isfinite(v)
        # a finite value after a +inf: True > False
        if np.any(fin[1:] > fin[:-1]):
            raise InputError("penalty values must be +inf from the first +inf on")
        if np.any(np.diff(v[fin]) < -1e-12):
            raise InputError("penalty must be nondecreasing")
        vf = v[fin]
        cf = c[fin]
        if vf.shape[0] >= 3:
            slopes = np.diff(vf) / np.diff(cf)
            if np.any(np.diff(slopes) < -1e-9):
                raise InputError("penalty must be convex along its grid")
        freeze(self, grid=c, values=v)

    def __call__(self, c):
        c = np.abs(np.asarray(c, dtype=float))
        out = np.interp(c, self.grid, self.values)
        out = np.where(c > self.grid[-1], np.inf, out)
        return out if out.ndim else float(out)

    @classmethod
    def quadratic(cls, radius=4.0, n=129):
        """c^2 on [0, radius], n grid points, a count from 2 that
        :func:`errors.points` takes; the radius is in [``MIN_TIME``,
        ``RADIUS_MAX``] (:func:`_scale`). The one home of the default
        count, which a config's ``quadratic(r)`` takes."""
        c = np.linspace(0.0, _scale(radius, "radius"), points(n, "n", 2))
        return cls(c, c**2)

    @classmethod
    def indicator(cls, radius=1.0):
        """0 on 65 points of [0, radius], +inf beyond; the radius is in
        [``MIN_TIME``, ``RADIUS_MAX``] (:func:`_scale`)."""
        radius = _scale(radius, "radius")
        grid = np.append(np.linspace(0.0, radius, 65), radius * (1 + 1e-9))
        vals = np.append(np.zeros(65), np.inf)
        return cls(grid, vals)


def _scale(x, what, least=MIN_TIME):
    """``x`` as a Python float if :func:`errors.nonnegative` takes it and it
    is in [``least``, ``RADIUS_MAX``], else InputError naming ``what``. A
    penalty radius starts at ``MIN_TIME``, the least normal float: from
    there on its grid of up to ``MAX_POINTS`` points and the indicator's
    marker at radius (1 + 1e-9) are strictly increasing, as they are not at
    5e-324. A numpy float32 would cast the bound to float32, which
    overflows with a warning, and round its marker to the radius."""
    if not least <= float(nonnegative(x, what)) <= RADIUS_MAX:
        raise InputError(f"{what} must be in [{least:.4g}, RADIUS_MAX = {RADIUS_MAX:.4g}], "
                         f"got {x!r}")
    return float(x)


# ---------------------------------------------------------------------------
# expectation models
# ---------------------------------------------------------------------------

def _finite(vals):
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InputError("payoff must be finite at all required sample points")
    return vals


class ExpectationModel:
    """Base class; subclasses implement ``reduce``, and ``expect`` and
    ``expect_linear`` call it.

    A reduction may depend on its whole batch of rows in the last bits
    (``Linear``'s matrix product follows how BLAS blocks the rows, and
    ``Shortfall``'s bisection count follows the widest row), so a one-step
    reduces all of its nodes in one call.
    """

    measure: DiscreteMeasure

    def reduce(self, payoff, t=1.0):
        """t * E[payoff / t] per row.

        ``payoff`` maps sample points of shape (k, d) to a (rows, k) matrix;
        the result has shape (rows,), (0,) for zero rows. ``Entropic`` and
        ``Shortfall`` take payoff / t, and raise InputError where it leaves
        the float range: a |payoff| above t times the largest float.
        The matrix is only read unless ``payoff.scratch`` is true, as it is
        for ``chernoff.one_step``'s gathers, whose matrices the next gather
        refills or drops: then the model may overwrite it.
        """
        raise NotImplementedError

    def second_order_lines(self):
        """The lines (lam, cost) of G(a) = max_l (lam_l^2 a / 2 - cost_l) +
        sigma^2 a / 2, this model's generator under the second-order scaling."""
        raise InputError(f"{type(self).__name__} has no known second-order G")

    def expect(self, g):
        """E[g] for a payoff callable on sample points ((k,) in 1D, else (k, d))."""
        if not callable(g):
            raise InputError("payoffs must be callables on sample points")
        one_d = self.measure.dimension == 1

        def row(y):
            return _finite(g(y[:, 0] if one_d else y)).reshape(1, -1)
        return float(self.reduce(row)[0])

    def expect_linear(self, a):
        """E[a xi_1] per coefficient a, with xi_1 the first coordinate of xi:
        a float for a scalar, else an array in the shape of ``a``."""
        a = _finite(a)
        vals = self.reduce(lambda y: np.multiply.outer(a.ravel(), y[:, 0]))
        return vals.reshape(a.shape) if a.ndim else float(vals[0])


@dataclass(frozen=True)
class Linear(ExpectationModel):
    measure: DiscreteMeasure

    def reduce(self, payoff, t=1.0):
        return payoff(self.measure.atoms) @ self.measure.weights

    def second_order_lines(self):
        return np.zeros(1), np.zeros(1)  # the heat equation sigma^2 a / 2


@dataclass(frozen=True)
class Entropic(ExpectationModel):
    measure: DiscreteMeasure

    def __post_init__(self):
        # a zero weight's log is -inf, exactly, and _logsumexp takes it
        with np.errstate(divide="ignore"):
            freeze(self, _logw=np.log(self.measure.weights))

    def reduce(self, payoff, t=1.0):
        g = payoff(self.measure.atoms)
        # a quotient beyond the float range turns its row's value to +inf
        # or NaN, so one test of the rows finds it; a -inf beside a finite
        # quotient adds exp(-inf) = 0, as the exact quotient would
        with np.errstate(over="ignore", invalid="ignore"):
            g = _quotient(g, t, g if getattr(payoff, "scratch", False) else None)
            g += self._logw
            out = t * _logsumexp(g, axis=1)
        if not np.isfinite(out).all():
            raise InputError("entropic payoff / t leaves the float range: each |payoff| "
                             "must be at most t times the largest float")
        return out


@dataclass(frozen=True)
class Shortfall(ExpectationModel):
    """E[g] = inf{m : sum_i w_i ((1 + g_i - m)^+)^p <= 1}, p in (1, 1024):
    above, 2^p overflows, and no bracket of shortfall_root fits, not even
    the [-1, 1] of a zero payoff."""

    measure: DiscreteMeasure
    power: float = 2.0

    def __post_init__(self):
        if not 1 < nonnegative(self.power, "power") < 1024:
            raise InputError(f"shortfall power must be in (1, 1024), got {self.power!r}")

    def reduce(self, payoff, t=1.0):
        vals = payoff(self.measure.atoms)
        # a quotient beyond the float range is +-inf, which widens its
        # bracket beyond any that shortfall_root takes
        with np.errstate(over="ignore"):
            vals = _quotient(vals, t, vals if getattr(payoff, "scratch", False) else None)
        return t * shortfall_root(vals, self.measure.weights, self.power)


@dataclass(frozen=True)
class ShiftSup(ExpectationModel):
    """E[g] = max over shifts s of (sum_i w_i g(a_i + s) - phi(|s|)); with
    ``symmetric``, g(a_i + s) is replaced by (g(a_i + s) + g(a_i - s)) / 2,
    the symmetric two-point variant of the second-order scaling. The shifts
    must be finite; a shift whose cost is +inf is dropped."""

    measure: DiscreteMeasure
    penalty: PenaltyFunction
    shifts: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        if not isinstance(self.symmetric, bool):
            raise InputError(f"symmetric must be a bool, got {self.symmetric!r}")
        s = np.atleast_1d(np.asarray(self.shifts, dtype=float))
        if s.ndim == 1:
            s = s[:, None]
        if s.shape[1] != self.measure.dimension:
            raise InputError("shift grid dimension must match the measure")
        if not np.all(np.isfinite(s)):
            raise InputError("shifts must be finite")
        # a norm above the largest float is +inf, which costs +inf
        with np.errstate(over="ignore"):
            cost = self.penalty(np.linalg.norm(s, axis=1))
        keep = np.isfinite(cost)
        if not np.any(keep):
            raise InputError("penalty is infinite on the whole shift grid")
        freeze(self, shifts=s[keep], _costs=cost[keep])
        # whether reduce subtracts the costs: not when every shift costs
        # +0.0, since x - t * 0.0 is x bit for bit for t > 0, signed zeros
        # included; -0.0 is paid, as -0.0 - (-0.0) is +0.0
        object.__setattr__(self, "_paid", bool(np.any(cost[keep] != 0)
                                               or np.any(np.signbit(cost[keep]))))
        # the atom cloud of each shift, (shifts, signs x atoms, d), and the
        # weights of its mean: both signs of the symmetric variant in one row
        signs = (1.0, -1.0) if self.symmetric else (1.0,)
        a, w = self.measure.atoms, self.measure.weights
        freeze(self, _clouds=np.concatenate(
            [a[None] + sign * self.shifts[:, None] for sign in signs], axis=1),
            _cloud_weights=np.tile(w / len(signs), len(signs)))

    def reduce(self, payoff, t=1.0):
        # every atom mean at once, (shifts, rows): from the payoff's linear
        # mean entry when it has one, else one payoff call per shift. The
        # rows skip t * cost when every shift costs +0.0 (the indicator
        # penalty of the sublinear models; see _paid)
        if hasattr(payoff, "mean"):
            best = payoff.mean(self._clouds, self._cloud_weights)
        else:
            best = np.stack([payoff(cloud) @ self._cloud_weights for cloud in self._clouds])
        if self._paid:
            best -= t * self._costs[:, None]
        return best.max(axis=0)

    def second_order_lines(self):
        return self.shifts[:, 0], self._costs


@dataclass(frozen=True)
class Centered(ExpectationModel):
    """Mean-centering transform: E~[g] = min over a of E[g + a . xi], with a
    on ``CENTERING_GRID`` (-4 to 4 in steps of 0.05)."""

    base: ExpectationModel

    def __post_init__(self):
        object.__setattr__(self, "measure", self.base.measure)
        for probe in CENTERING_PROBES:
            if self.base.expect_linear(probe) < -1e-9:
                raise InputError(f"centering requires E[a xi] >= 0; probe a={probe} fails")

    def reduce(self, payoff, t=1.0):
        # the payoff does not depend on a: gather it once per base-model
        # call and stack one block of rows per a, so one base reduction
        # covers the whole a-grid (it holds a-grid x rows x points values)
        ta = t * CENTERING_GRID

        def stacked(y):
            vals = payoff(y)
            return (vals + ta[:, None, None] * y[:, 0]).reshape(-1, vals.shape[1])
        return self.base.reduce(stacked, t).reshape(ta.shape[0], -1).min(axis=0)


def centered(model):
    """The mean-centered model :class:`Centered` of ``model``."""
    return Centered(model)


# ---------------------------------------------------------------------------
# scalar transforms
# ---------------------------------------------------------------------------

def _quotient(payoff, t, out=None):
    """payoff / t, written into ``out`` when given (``payoff`` itself for a
    scratch payoff, an in-place pass) and else into a new array. For t a
    power of two of at least ``MIN_TIME``, 1 / t is exact, so payoff *
    (1 / t) is the same real number as payoff / t and rounds to the same
    float for every input, signed zeros, subnormals, NaN and overflow
    included; the product costs less. Any other t divides. ``math.frexp``
    tests the power of two in a tenth of the time ``np.frexp`` takes."""
    if math.frexp(t)[0] == 0.5 and t >= MIN_TIME:
        return np.multiply(payoff, 1.0 / t, out=out)
    return np.divide(payoff, t, out=out)


def _logsumexp(x, axis=None):
    """log sum exp of ``x`` along ``axis``; overwrites ``x``, which the
    caller owns, so a one-step allocates no (rows, k) temporary here. The
    ndarray methods run the same reductions as ``np.max`` and ``np.sum``
    without their Python wrappers."""
    m = x.max(axis=axis, keepdims=True)
    x -= m
    np.exp(x, out=x)
    return m.squeeze(axis) + np.log(x.sum(axis=axis))


def shortfall_root(vals, weights, power):
    """Vectorized bisection for the shortfall level, rows = payoff vectors.

    The defining map m -> sum w ((1 + v - m)^+)^p is strictly decreasing, so
    the bracket [min v - 1, max v + 1] always contains the root. A row
    whose bracket rounds to a point, or is wider than ``SHORTFALL_WIDEST``,
    raises ``InputError`` (payoff / t too large either way), and so does a
    bracket on which the bisection would overflow: one whose width to the
    power p is above the largest float, which bounds every
    ((1 + v - m)^+)^p, or one with an end beyond half the largest float,
    which bounds every midpoint sum lo + hi. The bisection
    stops once the bracket is below ``SHORTFALL_TOL``, after a count of
    iterations set by the widest row.
    Zero rows give no levels and run no iteration. ``1 + v`` is formed
    once, before the loop: ``1 + v - m`` evaluates left to right, so each
    iterate keeps its bits.
    """
    vals = np.asarray(vals, dtype=float)
    lo = vals.min(axis=1) - 1.0
    if lo.size == 0:
        return lo
    hi = vals.max(axis=1) + 1.0
    # the test runs before any bisection arithmetic; the width and its
    # power may overflow to inf here, or be NaN for a row of infinite
    # values (inf - inf), and either fails it
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
        widest = width.max()
        if not (width.min() > 0 and widest <= SHORTFALL_WIDEST
                and widest ** power <= _FLOAT_MAX
                and -lo.min() <= _FLOAT_MAX / 2 and hi.max() <= _FLOAT_MAX / 2):
            raise InputError("shortfall payoff / t is too large to bracket: "
                             "[min - 1, max + 1] rounds to a point, is wider than "
                             "SHORTFALL_WIDEST, its width to the power p overflows, "
                             "or an end lies beyond half the largest float")
    shifted = 1.0 + vals
    for _ in range(int(np.ceil(np.log2(widest / SHORTFALL_TOL))) + 2):
        mid = 0.5 * (lo + hi)
        s = (np.maximum(shifted - mid[:, None], 0.0) ** power) @ weights
        high = s > 1.0
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    return 0.5 * (lo + hi)


def legendre(z_grid, values, y_grid):
    """Discrete convex conjugate g*(y) = max_z (y z - g(z)) on the dual grid.

    Entries of ``values`` may be +inf (skipped); NaN and -inf raise
    ``InputError``. The grid z is one that :func:`errors.sampled` takes, and
    the dual grid y is finite and strictly increasing. Conjugates the lower
    convex hull of the finite values: one sweep over z, then one
    ``searchsorted`` of the dual grid into the hull's chord slopes
    (``_kernels.legendre_scan``).
    """
    z, g = sampled("legendre", z_grid, values)
    y = np.atleast_1d(np.asarray(y_grid, dtype=float))
    if not (np.all(np.diff(y) > 0) and np.all(np.isfinite(y))):
        raise InputError("legendre's dual grid must be finite and strictly increasing")
    if not np.all(np.isfinite(g) | (g == np.inf)):
        raise InputError("legendre values must be finite or +inf, not NaN or -inf")
    if np.count_nonzero(np.isfinite(g)) < 2:
        raise InputError("legendre needs at least two finite values")
    return _kernels.legendre_scan(z, g, y)
