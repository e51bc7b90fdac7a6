"""Convex expectation functionals on finitely supported payoff samples.

Five model variants are provided, all constant-preserving, monotone and
convex on evaluations:

* ``Linear``          plain weighted average against a reference measure,
* ``Entropic``        log-integral of the exponential (entropic certainty
                      equivalent),
* ``Shortfall``       utility-shortfall value solved by bisection,
* ``ShiftSup``        penalized supremum over deterministic shifts of the
                      reference measure,
* ``SymmetricTwoPointSup``  penalized supremum over symmetric two-point
                      mixtures of shifts, the second-order analogue.

Each model implements ``reduce(payoff, t)``, returning t * E[payoff / t]
for every row of a payoff matrix: ``payoff`` maps the sample points the
model needs, shape (k, d), to a (rows, k) matrix. One row is a scalar
expectation (``expect``), one row per coefficient is ``expect_linear``, and
one row per grid node is a step of the one-step operator. Zero rows give
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
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError, PreconditionError, freeze, sampled, steps

SHORTFALL_TOL = 1e-10
CENTERING_PROBES = (1.0, -1.0, 2.0, -2.0)
CENTERING_GRID = np.arange(-80, 81) / 20.0
CENTERING_GRID.flags.writeable = False
# the most Gauss-Hermite atoms: numpy's hermgauss weights underflow to
# subnormals near 370 atoms and turn to NaN after that (numpy 2.4), and its
# companion matrix grows as the square of the count
GAUSS_HERMITE_MAX = 256


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on R^d, built in code or from a
    config spec (``gauss_hermite``, ``atoms``, ``point``)."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_1d(np.asarray(self.atoms, dtype=float))
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        weights = np.asarray(self.weights, dtype=float)
        if atoms.shape[0] != weights.shape[0]:
            raise InputError("atoms and weights must have matching lengths")
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

    @classmethod
    def from_pairs(cls, pairs):
        atoms, weights = zip(*pairs)
        return cls(np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float))


def gauss_hermite(n_nodes, mean=0.0, std=1.0):
    """Gaussian N(mean, std^2) as Gauss-Hermite quadrature atoms, 1 to
    ``GAUSS_HERMITE_MAX`` of them, a count that :func:`errors.steps` takes."""
    if steps([n_nodes], "n_nodes")[0] > GAUSS_HERMITE_MAX:
        raise InputError(f"gauss_hermite takes 1 to {GAUSS_HERMITE_MAX} atoms, got {n_nodes}")
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    return DiscreteMeasure(mean + std * np.sqrt(2.0) * x, w / np.sqrt(np.pi))


def two_point():
    """The symmetric Bernoulli measure (delta_{-1} + delta_{+1}) / 2."""
    return DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


@dataclass(frozen=True)
class PenaltyFunction:
    """Convex nondecreasing penalty on a parameter grid, with inf markers.

    The grid has at least two strictly increasing points and starts at 0,
    where ``phi(0) = 0``; evaluation between grid points is linear and
    becomes infinite as soon as an infinite neighbour is involved. Configs
    spell penalties as the specs ``quadratic`` and ``indicator``.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        c, v = sampled("penalty", self.grid, self.values)
        if c[0] != 0.0 or v[0] != 0.0:
            raise InputError("penalty must have phi(0) = 0 with 0 the first grid point")
        if np.any(v < 0):
            raise InputError("penalty values must be nonnegative")
        fin = np.isfinite(v)
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
        out = np.interp(c, self.grid, np.where(np.isfinite(self.values),
                                               self.values, np.inf))
        out = np.where(c > self.grid[-1], np.inf, out)
        return out if out.ndim else float(out)

    @classmethod
    def quadratic(cls, radius=4.0, n=129):
        """c^2 on [0, radius], n grid points."""
        c = np.linspace(0.0, radius, n)
        return cls(c, c**2)

    @classmethod
    def indicator(cls, radius=1.0):
        """0 on 65 points of [0, radius], +inf beyond."""
        c = np.linspace(0.0, radius, 65)
        grid = np.append(c, radius * (1 + 1e-9))
        vals = np.append(np.zeros(65), np.inf)
        return cls(grid, vals)


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
        the result has shape (rows,), (0,) for zero rows.
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
        """E[a xi] per coefficient, with xi the first coordinate.

        A scalar gives a float, an array of scalars one value per entry, in
        its shape. In 2D a coefficient vector gives the single value
        E[a . xi].
        """
        a = _finite(a)
        if a.ndim == 1 and self.measure.dimension > 1:
            return self.expect(lambda y: y @ a)
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
        freeze(self, _logw=np.log(self.measure.weights))

    def reduce(self, payoff, t=1.0):
        g = payoff(self.measure.atoms) / t
        g += self._logw
        return t * _logsumexp(g, axis=1)


@dataclass(frozen=True)
class Shortfall(ExpectationModel):
    """E[g] = inf{m : sum_i w_i ((1 + g_i - m)^+)^p <= 1}, p > 1."""

    measure: DiscreteMeasure
    power: float = 2.0

    def __post_init__(self):
        if not self.power > 1:
            raise InputError("shortfall power must exceed 1")

    def reduce(self, payoff, t=1.0):
        vals = payoff(self.measure.atoms) / t
        return t * shortfall_root(vals, self.measure.weights, self.power)


@dataclass(frozen=True)
class ShiftSup(ExpectationModel):
    """E[g] = max over shifts s of (sum_i w_i g(a_i + s) - phi(|s|))."""

    measure: DiscreteMeasure
    penalty: PenaltyFunction
    shifts: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.shifts, dtype=float))
        if s.ndim == 1:
            s = s[:, None]
        if s.shape[1] != self.measure.dimension:
            raise InputError("shift grid dimension must match the measure")
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


def SymmetricTwoPointSup(measure, penalty, shifts):
    """Symmetric two-point shift supremum (second-order scaling analogue)."""
    return ShiftSup(measure, penalty, shifts, symmetric=True)


@dataclass(frozen=True)
class Centered(ExpectationModel):
    """Mean-centering transform: E~[g] = min over a of E[g + a . xi], with a
    on ``CENTERING_GRID`` (-4 to 4 in steps of 0.05)."""

    base: ExpectationModel

    def __post_init__(self):
        object.__setattr__(self, "measure", self.base.measure)
        for probe in CENTERING_PROBES:
            if self.base.expect_linear(probe) < -1e-9:
                raise PreconditionError(
                    f"centering requires E[a xi] >= 0; probe a={probe} fails")

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

def _logsumexp(x, axis=None):
    """log sum exp of ``x`` along ``axis``; overwrites ``x``, which the
    caller owns, so a one-step allocates no (rows, k) temporary here."""
    m = np.max(x, axis=axis, keepdims=True)
    x -= m
    np.exp(x, out=x)
    return np.squeeze(m, axis) + np.log(np.sum(x, axis=axis))


def shortfall_root(vals, weights, power):
    """Vectorized bisection for the shortfall level, rows = payoff vectors.

    The defining map m -> sum w ((1 + v - m)^+)^p is strictly decreasing, so
    the bracket [min v - 1, max v + 1] always contains the root; the
    bisection stops once the bracket is below ``SHORTFALL_TOL``, after a
    count of iterations set by the widest row. Zero rows give no levels
    and run no iteration. ``1 + v`` is formed once, before the loop:
    ``1 + v - m`` evaluates left to right, so each iterate keeps its bits.
    """
    vals = np.asarray(vals, dtype=float)
    lo = vals.min(axis=1) - 1.0
    if lo.size == 0:
        return lo
    hi = vals.max(axis=1) + 1.0
    assert np.all(lo < hi)
    shifted = 1.0 + vals
    for _ in range(int(np.ceil(np.log2((hi - lo).max() / SHORTFALL_TOL))) + 2):
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
