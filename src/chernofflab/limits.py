"""Probabilistic laboratory: nonlinear limit functionals, the brute-force
oracle, exact tail probabilities, large-deviation rate measurements, and
generator checks.

The iteration identity

    (I(h)^k f)(x) = h * E_bar[ f(psi_k(h, x, xi_1, ..., xi_k)) / h ]

turns product-space functionals of recursively perturbed statistics into k
grid sweeps, so no product measure is ever constructed; a brute-force
enumeration over the exactly reachable points doubles as the grid-free
cross-check, which tells time-step error from grid error. It runs in two
flat sweeps with no recursion: a probe reduction of zero rows records
the model's sample points, a forward sweep maps and merges each level's
reachable points (keys ``np.round(p, 12)``), and a backward sweep takes one
``model.reduce`` per level, finding each level's points among the next by
one ``searchsorted``. A two-point model reaches at most n + 1 points per
level, so its work grows as n^2, and n has no depth limit.

``poly_power`` is the one home of ``poly_rate``'s exponent range; the CLI
reaches it through ``_Fields.build``, so a bad exponent names its field.
"""

from dataclasses import dataclass

import numpy as np

from .chernoff import OneStepOperator, Partition, SecondOrder, iterate
from .errors import (DegenerateSetError, InputError, PreconditionError, nonnegative,
                     probes, steps, write_csv)
from .expectations import (CENTERING_PROBES, Entropic, Shortfall, _finite,
                           legendre)

_LATTICE_DENOMS = tuple(range(1, 65))


# ---------------------------------------------------------------------------
# limit functionals and the brute-force oracle
# ---------------------------------------------------------------------------

def nonlinear_functional(model, scaling, f, n):
    """(1/n) E_bar[n f(X_n)] computed as (I(1/n)^n f)(0), for a step count n
    that :func:`errors.steps` takes."""
    n, = steps([n], "n")
    op = OneStepOperator(model, scaling)
    u = iterate(op, Partition(1.0, 1.0 / n), f)
    return float(u.values[f.grid.origin_index])


def require_centered(model):
    """Raise PreconditionError unless E[a xi] = 0, up to 1e-8, for the probe
    coefficients.

    The second-order scaling has a limit only for centered models; apply
    :func:`chernofflab.expectations.centered` first otherwise.
    """
    for a in CENTERING_PROBES:
        if abs(model.expect_linear(a)) > 1e-8:
            raise PreconditionError(
                f"the second-order scaling needs a centered model; E[{a} xi] != 0")


def clt_functional(model, f, n):
    """(1/n) E_bar[n f(sum xi_i / sqrt(n))] via the second-order scaling.

    Requires a centered model (:func:`require_centered`).
    """
    require_centered(model)
    return nonlinear_functional(model, SecondOrder(), f, n)


def brute_force_functional(model, scaling, f, n):
    """(I(1/n)^n f)(0) by exact enumeration of the reachable points.

    Independent of the grid-sweep path: intermediate values are evaluated at
    the exactly reachable points, never resampled. Two flat sweeps, with no
    recursion and no per-point Python loop:

    * a probe ``model.reduce`` of zero rows records the points ys of every
      payoff call. The oracle assumes they do not depend on the payoff's
      values or row count, as holds for every model in the package;
    * the forward sweep maps the points of each level, from the origin,
      to psi(1/n, x, ys) and merges those whose ``np.round(p, 12)`` keys
      agree into the first of them met, keeping the sorted keys;
    * the backward sweep evaluates ``f`` at the deepest level, then takes
      one ``h * model.reduce`` per level above and ``h * model.expect`` at
      the origin. Each payoff finds its points among the level below by one
      ``searchsorted`` of their keys; a point the forward sweep did not
      reach raises InputError, and every gathered matrix must be finite.

    A call makes n reductions of rows, the one inside ``expect`` included,
    besides the probe, which has no rows to reduce. Its cost is the number of distinct reachable
    points times the sample points: at most n + 1 points per level for two
    atoms, and up to m^j after j steps for m sample points off a lattice or
    under a drift. The measure must be one-dimensional, and :func:`errors.steps`
    must take n.
    """
    n, = steps([n], "n")
    if model.measure.dimension != 1:
        raise InputError("brute force enumeration needs a one-dimensional measure")
    h = 1.0 / n
    # the probe records the points of every payoff call and returns zero
    # rows, so the model reduces nothing
    probed = []
    model.reduce(lambda y: probed.append(y[:, 0]) or np.zeros((0, y.shape[0])))
    ys = np.concatenate(probed)
    # levels[j]: the points j steps from the origin and the sorted keys of
    # the points one step further; x ends at the deepest level
    x, levels = np.zeros(1), []
    for _ in range(n):
        pts = scaling.map(h, x[:, None], ys).ravel()
        key, first = np.unique(np.round(pts, 12), return_index=True)
        levels.append((x, key))
        x = pts[first]

    def payoff(points, key, below, y):
        # the values / h of the level below at psi(h, points, y), one row
        # per point; the index is at most the last key's, so a miss reads
        # another key
        q = np.round(scaling.map(h, points[:, None], y), 12)
        i = np.searchsorted(key[:-1], q)
        if not np.array_equal(key[i], q):
            raise InputError("the model sampled a point its probe did not reach")
        return _finite(below[i] / h)

    # each payoff is called only inside its own reduction, so it reads that
    # level's points and keys and the values one level below
    vals = f.eval(x)
    for points, key in levels[:0:-1]:
        vals = h * model.reduce(lambda y: payoff(points, key, vals, y[:, 0]))
    return h * model.expect(lambda y: payoff(*levels[0], vals, y))


# ---------------------------------------------------------------------------
# exact tail probabilities by dynamic programming
# ---------------------------------------------------------------------------

def lattice_scale(values):
    """The least denominator d <= 64 with every value on the lattice Z / d,
    which the exact tail DP walks, else InputError."""
    for d in _LATTICE_DENOMS:
        scaled = values * d
        if np.all(np.abs(scaled - np.round(scaled)) < 1e-9):
            return d
    raise InputError("atoms must lie on a lattice with denominator <= 64 "
                     "for exact tail probabilities")


def exact_tail_probabilities(measure, threshold, n_grid):
    """P(X_n >= threshold) for X_n the running average, every n in n_grid.

    One dynamic-programming pass over the integer lattice carrying the atom
    sums; snapshots are taken at the requested n, which :func:`errors.steps`
    must take. Exact up to float rounding.
    """
    if measure.dimension != 1 or not np.isfinite(threshold):
        raise InputError(f"tail probabilities need a one-dimensional measure and a "
                         f"finite threshold, got {threshold!r}")
    n_grid = steps(n_grid, "n grid")
    atoms = measure.atoms[:, 0]
    d = lattice_scale(atoms)
    ints = np.round(atoms * d).astype(np.int64)
    lo = int(ints.min())
    kernel = np.bincount(ints - lo, measure.weights)
    dist = np.array([1.0])  # after n steps, dist[j] = P(sum_int = n lo + j)
    out = {}
    want = set(n_grid)
    for n in range(1, n_grid[-1] + 1):
        dist = np.convolve(dist, kernel)
        if n in want:
            # sum/ (n d) >= threshold  <=>  sum_int >= threshold * n * d
            cut = int(np.ceil(threshold * n * d - 1e-9))
            out[n] = float(dist[max(cut - n * lo, 0):].sum())
    return [out[n] for n in n_grid]


@dataclass
class RateReport:
    n_grid: list
    values: list
    fitted_rate: float
    bound: float
    passed: bool

    def to_csv(self, path):
        write_csv(path, "n,value,fitted_rate,bound,pass", self.n_grid, self.values,
                  self.fitted_rate, self.bound, self.passed)


def _fit_rate(n_grid, values):
    """Extrapolate v_n = s + (a log n + b)/n from the last three entries."""
    ns = np.asarray(n_grid[-3:], dtype=float)
    vs = np.asarray(values[-3:], dtype=float)
    if ns.shape[0] < 3:
        return float(vs[-1])
    A = np.stack([np.ones(3), np.log(ns) / ns, 1.0 / ns], axis=1)
    coef = np.linalg.solve(A, vs)
    return float(coef[0])


def _tail(measure, threshold, n_grid, shift_radius, model, z_grid):
    """The exact P(X_n >= threshold) for n in ``n_grid``, and the Legendre
    value sup_z (x0 z - E[z xi]) of ``model`` on ``z_grid`` at
    x0 = threshold - shift_radius, or None when x0 is at most the mean; the
    shift radius is a finite number >= 0."""
    nonnegative(shift_radius, "shift_radius")
    probs = exact_tail_probabilities(measure, threshold, n_grid)
    if all(p == 0.0 for p in probs):
        raise DegenerateSetError("the event has probability zero for every n")
    x0 = threshold - shift_radius
    if x0 <= float(measure.mean_and_cov()[0][0]) + 1e-15:
        return probs, None
    lam = model.expect_linear(z_grid)
    return probs, float(legendre(z_grid, lam, np.array([x0]))[0])


def ld_rate(measure, threshold, n_grid, shift_radius=0.0):
    """Exponential decay of P(X_n >= threshold) against the conjugate bound.

    Reports (1/n) log P per n, the extrapolated slope, and the analytic
    bound -inf_{x >= threshold - shift_radius} Lambda*(x) from the
    log-moment-generating / conjugation pipeline, with Lambda on 4801
    points of [-12, 12]; the report passes if the slope is at most the
    bound plus 1e-3.
    """
    probs, lstar = _tail(measure, threshold, n_grid, shift_radius,
                         Entropic(measure), np.linspace(-12.0, 12.0, 4801))
    values = [np.log(p) / n if p > 0 else -np.inf
              for p, n in zip(probs, n_grid)]
    fitted = _fit_rate(n_grid, values)
    bound = 0.0 if lstar is None else -lstar
    return RateReport(list(n_grid), values, fitted, bound,
                      passed=bool(fitted <= bound + 1e-3))


def poly_power(power):
    """The exponent p of :func:`poly_rate` if it is in range, else InputError."""
    if not (1.0 < power <= 4.0):
        raise InputError("power must lie in (1, 4]")
    return power


def poly_rate(measure, power, threshold, n_grid, shift_radius=0.0, tol=0.05):
    """Polynomial decay n^(p-1) P(X_n >= threshold) against the shortfall bound.

    The bound is (inf_{x >= threshold - shift_radius} Lambda*(x))^(-p) with
    Lambda the shortfall transform of linear payoffs, on 1201 points of
    [-6, 6]; an infinite bound (the infimum is zero) is reported as +inf
    and passes trivially.
    """
    power = poly_power(power)
    probs, lstar = _tail(measure, threshold, n_grid, shift_radius,
                         Shortfall(measure, power), np.linspace(-6.0, 6.0, 1201))
    values = [n ** (power - 1.0) * p for p, n in zip(probs, n_grid)]
    bound = lstar ** (-power) if lstar is not None and lstar > 1e-12 else np.inf
    passed = bool(values[-1] <= bound * (1.0 + tol)) if np.isfinite(bound) else True
    return RateReport(list(n_grid), values, _fit_rate(n_grid, values),
                      float(bound), passed)


# ---------------------------------------------------------------------------
# generator checks
# ---------------------------------------------------------------------------

@dataclass
class GeneratorDiagnostics:
    h_grid: list
    defects: list
    nodes: np.ndarray
    estimate: np.ndarray
    analytic: np.ndarray

    @property
    def final_defect(self):
        return self.defects[-1]

    def estimate_at(self, x):
        k = int(np.argmin(np.abs(self.nodes - x)))
        return float(self.estimate[k])

    def to_csv(self, path):
        write_csv(path, "h,defect", self.h_grid, self.defects)


def generator_values(op, f, nodes):
    """Analytic generator A f on the given nodes: the model's expectation of
    the scaling's ``generator_payoff``, E[f'(x) psi_0(x, .)] for first-order
    scalings and E[y^2 f''(x) / 2] for the second-order one. Derivatives of
    f come from the grid, at the node nearest to each x (the lower on a tie);
    they are one-dimensional, so a 2D grid raises InputError.
    """
    g = f.grid
    x = np.asarray(nodes, dtype=float)
    u = np.ceil((x + g.half_width) / g.spacing - 0.5)
    idx = np.clip(u, 0, g.points_per_axis - 1).astype(np.int64)
    return op.model.reduce(op.scaling.generator_payoff(f, idx, x))


def interpolation_floor(f, compact, h_min):
    """Quantization level of a generator defect from linear interpolation.

    Each probe quotient carries up to hg^2 |f''| / (4 h) of interpolation
    error, with the curvature taken over the compact widened by 1 on each
    side, the largest query offset; below this level defect orderings are
    not meaningful.
    """
    g = f.grid
    lo, hi = compact
    curv = float(np.max(np.abs(f.fd_hessian()[g.within(lo - 1.0, hi + 1.0)])))
    return g.spacing ** 2 * max(curv, 1.0) / (4.0 * h_min) + 1e-12


def generator_check(op, f, h_grid, compact):
    """Defect max over the compact of |(I(h) f - f)/h - A f| per probe h,
    with A f from :func:`generator_values`.

    The defect sequence of a consistent one-step family decreases to the
    interpolation floor as h shrinks; the returned estimate is the
    difference quotient at the smallest h. The probes h are a non-empty list
    in (0, 1] (:func:`errors.probes`), and the compact holds a grid node.
    """
    h_grid = sorted(probes(h_grid, "h_grid"), reverse=True)
    mask = f.grid.within(*compact)
    nodes = f.grid.axis[mask]
    analytic = generator_values(op, f, nodes)
    defects = []
    for h in h_grid:
        estimate = (op(h, f).values[mask] - f.values[mask]) / h
        defects.append(float(np.max(np.abs(estimate - analytic))))
    return GeneratorDiagnostics(list(h_grid), defects, nodes, estimate,
                                analytic)
