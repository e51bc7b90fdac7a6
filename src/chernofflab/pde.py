"""Monotone finite-difference viscosity solvers, the independent PDE oracle.

Two explicit marches on the 1D grid:

* ``solve_hj``     u_t = H(u_x) by Lax-Friedrichs with dissipation at least
                   max |H'| over the gradient range in play,
* ``solve_g_heat`` u_t = G(u_xx) for fully nonlinear second-order flows
                   G(a) = max_l (lam_l^2 a / 2 - cost_l) + Sigma a / 2.

Both schemes are monotone by their CFL restriction, freeze the two outermost
node layers, and are first-order accurate; they cross-check the Chernoff
limits without sharing any code path with them. ``solve_hj`` interpolates H
on a strictly increasing gradient grid; ``solve_g_heat`` marches on the lower
convex hull of G's lines, which ``Hamiltonian2.from_model`` takes from a model.
A march of more than ``MAX_MARCH_WORK`` node updates raises ``InputError``
before its first step.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError, freeze, nonnegative, sampled

# the most node updates (march steps x nodes) a PDE march may take, about
# 40 times the 12,275 steps x 2,049 nodes of pde_crosscheck_hj: a march
# takes 1/h (Lax-Friedrichs) or 1/h^2 (G-heat) steps, so a fine grid or a
# long time would otherwise march for hours
MAX_MARCH_WORK = 10 ** 9


@dataclass(frozen=True)
class Hamiltonian1:
    """Convex first-order Hamiltonian sampled on a gradient grid."""

    p_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        p, v = sampled("Hamiltonian", self.p_grid, self.values)
        slopes = np.diff(v) / np.diff(p)
        if np.any(np.diff(slopes) < -1e-8):
            raise InputError("Hamiltonian must be convex along its grid")
        freeze(self, p_grid=p, values=v)

    @classmethod
    def from_model(cls, model, p_grid):
        """Sample H(p) = E[p xi] from an expectation model."""
        p = np.asarray(p_grid, dtype=float)
        return cls(p, model.expect_linear(p))

    def __call__(self, p):
        return np.interp(p, self.p_grid, self.values)

    @property
    def max_slope(self):
        """Largest |H'| over the whole grid, from the grid slopes."""
        return float(np.max(np.abs(np.diff(self.values) / np.diff(self.p_grid))))

    def march_steps(self, h, t, nodes):
        """The steps ``solve_hj`` takes up to time t on ``nodes`` nodes of
        spacing h (``_march_steps``)."""
        return _march_steps(t, 0.5 * h / (2.0 * max(self.max_slope, 1e-8)), nodes)


@dataclass(frozen=True)
class Hamiltonian2:
    """Second-order nonlinearity G(a) = max_l (lam_l^2 a/2 - cost_l) + Sigma a/2,
    with Sigma = ``sigma2`` a finite number >= 0."""

    lam_grid: np.ndarray
    costs: np.ndarray
    sigma2: float = 0.0

    def __post_init__(self):
        lam = np.asarray(self.lam_grid, dtype=float)
        cost = np.asarray(self.costs, dtype=float)
        if lam.shape != cost.shape or lam.ndim != 1:
            raise InputError("lambda grid and costs must be matching 1D arrays")
        fin = np.isfinite(cost)
        if not np.any(fin):
            raise InputError("all shift costs are infinite")
        if not np.any(np.isclose(cost[fin], 0.0)):
            raise InputError("G(0) = 0 requires a zero-cost lambda entry")
        nonnegative(self.sigma2, "sigma2")
        freeze(self, lam_grid=lam[fin], costs=cost[fin])

    @classmethod
    def from_model(cls, model):
        """G from ``model.second_order_lines()``; Sigma is its measure's second moment."""
        _, sig = model.measure.mean_and_cov()
        return cls(*model.second_order_lines(), float(sig[0, 0]))

    def __call__(self, a):
        a = np.asarray(a, dtype=float)
        parts = 0.5 * self.lam_grid[:, None] ** 2 * a.ravel()[None, :] - self.costs[:, None]
        out = parts.max(axis=0) + 0.5 * self.sigma2 * a.ravel()
        return out.reshape(a.shape) if a.ndim else float(out[0])

    @property
    def max_diffusion(self):
        return 0.5 * float(np.max(self.lam_grid ** 2)) + 0.5 * self.sigma2

    def march_steps(self, h, t, nodes):
        """The steps ``solve_g_heat`` takes up to time t on ``nodes`` nodes of
        spacing h (``_march_steps``)."""
        return _march_steps(t, 0.5 * h * h / (2.0 * max(self.max_diffusion, 1e-8)), nodes)


def solve_hj(ham, f, t):
    """March u_t = H(u_x) from u(0) = f up to time t (monotone Lax-Friedrichs).

    The dissipation is max |H'| over the whole sampled gradient range (the
    Hamiltonian saturates beyond it) and the time step obeys
    dt <= h / (4 alpha), half the CFL bound, so the scheme is monotone for
    arbitrary data, including the artificial frozen-boundary layer. H is
    evaluated as ``ham(p)`` does, piecewise linear on ``ham.p_grid`` and
    constant beyond it, so the gradient grid need not be uniform.
    """
    return _march(f, t, ham.march_steps, _kernels.lax_friedrichs, ham.p_grid, ham.values,
                  max(ham.max_slope, 1e-8))


def solve_g_heat(g2, f, t):
    """March u_t = G(u_xx) from u(0) = f up to time t (explicit monotone).

    The time step obeys dt <= h^2 / (4 max_diffusion), half the CFL bound.
    The lines of G are reduced once to their lower convex hull in
    (lam^2 / 2, cost), which gives the same maximum, so a step costs one
    comparison per hull line after the first rather than one per entry of
    ``g2.lam_grid``, and no subtraction for a line that costs +0.0 (exact,
    see ``_kernels.g_heat``).
    """
    return _march(f, t, g2.march_steps, _kernels.g_heat, g2.lam_grid, g2.costs,
                  0.5 * g2.sigma2)


def _march_steps(t, dt_max, nodes):
    """The fewest equal steps dt = t / steps no longer than dt_max, at least 1;
    ``InputError`` when they take more than ``MAX_MARCH_WORK`` node updates
    on ``nodes`` nodes, a count that overflows among them."""
    steps = np.ceil(t / dt_max) if dt_max > 0 else np.inf
    if not steps * nodes <= MAX_MARCH_WORK:
        raise InputError(f"a PDE march of {steps:.3g} steps x {nodes} nodes is above "
                         f"MAX_MARCH_WORK = {MAX_MARCH_WORK:.0e} node updates")
    return max(int(steps), 1)


def _march(f, t, march_steps, kernel, *args):
    """``kernel(values, h, dt, steps, *args)`` from f up to time t, in
    ``march_steps(h, t, nodes)`` equal steps; t = 0 returns f."""
    if f.grid.dimension != 1:
        raise InputError("the PDE oracle is one-dimensional")
    if nonnegative(t, "t") == 0.0:
        return f
    steps = march_steps(f.grid.spacing, t, f.grid.points_per_axis)
    return f.replace_values(kernel(f.values, f.grid.spacing, t / steps, steps, *args))
