"""Closed-form limit semigroups: the Hopf-Lax formula and envelope bounds.

These are the analytic oracles that the Chernoff engine is checked against:
first-order limits admit the representation

    (S(t) f)(x) = sup_y ( f(x + t y) - phi(y) t )

with a convex coercive rate phi, and any two convex bounds H_- <= H <= H_+
on the linear-payoff expectation sandwich the limit between the Hopf-Lax
flows of their conjugates.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError, InputError, freeze, nonnegative, sampled, write_csv
from .expectations import legendre


@dataclass(frozen=True)
class RateFunction:
    """Convex rate on a 1D (or radial) grid, +inf marking infinite cost;
    ``to_csv`` writes it as ``y,phi`` rows, with the token ``inf``."""

    grid: np.ndarray
    values: np.ndarray
    radial: bool = False
    directions: int = 16

    def __post_init__(self):
        y, v = sampled("rate function", self.grid, self.values)
        fin = np.isfinite(v)
        if not np.any(fin):
            raise InputError("rate function must be finite somewhere")
        if np.min(v[fin]) < -1e-6:
            raise InputError("rate function must be nonnegative up to tolerance")
        if self.radial and y[0] < 0:
            raise InputError("radial rate grids start at radius >= 0")
        freeze(self, grid=y, values=v)

    def to_csv(self, path):
        write_csv(path, "y,phi", self.grid, self.values)


def conjugate_rate(model, z_grid, y_grid):
    """Rate phi(y) = sup_z (y z - E[z xi]) from an expectation model (1D).

    The infimum of the exact rate is zero; if the discrete minimum deviates
    beyond 1e-6 the z-grid was too small for the requested dual range. Both
    grids are checked as :func:`errors.sampled` checks a grid before the
    model is reduced on them.
    """
    z, y = sampled("z-grid", z_grid, z_grid)[0], sampled("y-grid", y_grid, y_grid)[0]
    if 0.0 not in z:
        raise InputError("z-grid must contain 0 so the rate is nonnegative")
    phi = legendre(z, model.expect_linear(z), y)
    m = float(np.min(phi))
    if abs(m) > 1e-6:
        raise GridTooSmallError(
            f"rate minimum {m:.3e} deviates from 0 beyond 1e-6; enlarge the y-grid")
    return RateFunction(y, phi)


def _candidates(rate):
    """The finite (y, phi) pairs of the rate."""
    if rate.radial:
        radii = rate.grid
        angles = 2 * np.pi * np.arange(rate.directions) / rate.directions
        ys = np.concatenate([np.outer(radii, [np.cos(a), np.sin(a)])
                             for a in angles])
        phis = np.tile(rate.values, rate.directions)
    else:
        ys = rate.grid
        phis = rate.values
    fin = np.isfinite(phis)
    return ys[fin], phis[fin]


def hopf_lax(f, t, rate):
    """sup over the rate grid of f(x + t y) - phi(y) t, per node x.

    Infinite rate entries are skipped. t = 0 returns f unchanged; t must
    be finite. The grid function continues constantly past its box, so
    every gathered value lies in [min f, max f], and a candidate with
    t (phi(y) - min phi) above max f - min f (plus a slack far above
    rounding) loses to the minimiser of phi at every node; such candidates
    are dropped before the gather, and the result is the same float at
    every node.

    The kept candidates are gathered and maxed in blocks of
    ``Grid.columns_per_block``: the value budget that also sizes a shift
    stencil's mean blocks, spread over the nodes (15 candidates at 2049
    nodes), so a call holds a few such (nodes x block) arrays at a time.
    The max is exact, so the block size changes no value.
    """
    if nonnegative(t, "t") == 0.0:
        return f
    ys, phis = _candidates(rate)
    # Each gathered value is a convex combination of node values, so it
    # lies in [lo, hi] up to a few ulps of max|f|. A dropped candidate
    # scores at most hi - t phi(y) < lo - t min(phi) - slack at every
    # node, and the minimiser of phi, always kept, at least
    # lo - t min(phi). Rounding moves either score, and the rule, by a
    # few ulps of max|f| + t max(phi), a millionth of the slack, so no
    # dropped candidate is the maximiser after rounding either, and the
    # max over the kept candidates is the same float.
    lo, hi = np.min(f.values), np.max(f.values)
    pmin = np.min(phis)
    slack = 1e-9 * (1.0 + max(-lo, hi) + t * np.max(phis))
    keep = t * (phis - pmin) <= (hi - lo) + slack
    ys, phis = ys[keep], phis[keep]
    if f.grid.dimension == 1:
        # every node is queried at the same offsets t * y: a shift stencil
        stencil = f.stencil()

        def gather(yy):
            return stencil(t * yy)
    else:
        if ys.ndim == 1:
            raise InputError("2D grid functions need a radial rate function")
        nodes = f.grid.nodes()

        def gather(yy):
            return f.eval(nodes[:, None, :] + t * yy[None, :, :])

    block = f.grid.columns_per_block
    best = np.full(f.values.size, -np.inf)
    for k0 in range(0, ys.shape[0], block):
        vals = gather(ys[k0:k0 + block])
        vals -= t * phis[k0:k0 + block]
        np.maximum(best, vals.max(axis=1), out=best)
    return f.replace_values(best.reshape(f.values.shape))


def envelope(f, t, z_grid, h_minus, h_plus, y_grid):
    """Hopf-Lax sandwich (S_- f, S_+ f) from bounds H_- <= H_+ on E[z xi].

    Conjugation reverses the order, so the upper semigroup uses the
    conjugate of H_+ (the smaller rate) and vice versa.
    """
    hm = np.asarray(h_minus, dtype=float)
    hp = np.asarray(h_plus, dtype=float)
    if np.any(hm > hp + 1e-12):
        raise InputError("envelope requires H_- <= H_+ on the z-grid")
    y = np.asarray(y_grid, dtype=float)
    rate_upper = RateFunction(y, legendre(z_grid, hp, y))
    rate_lower = RateFunction(y, legendre(z_grid, hm, y))
    s_minus = hopf_lax(f, t, rate_lower)
    s_plus = hopf_lax(f, t, rate_upper)
    if np.any(s_minus.values > s_plus.values + 1e-9):
        raise InputError("envelope ordering failed; check the H bounds")
    return s_minus, s_plus


def semigroup_defect(f, s, t, rate, compact):
    """sup norm on the compact of S(s+t) f - S(s) S(t) f for Hopf-Lax flows."""
    nonnegative(s, "s")
    nested = hopf_lax(hopf_lax(f, t, rate), s, rate)
    direct = hopf_lax(f, s + t, rate)
    return direct.replace_values(direct.values - nested.values).sup_norm_on(compact)
