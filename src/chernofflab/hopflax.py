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

from .errors import GridTooSmallError, InputError
from .expectations import legendre

_CHUNK = 256


@dataclass(frozen=True)
class RateFunction:
    """Convex rate on a 1D (or radial) grid, +inf marking infinite cost;
    ``to_csv`` writes it as ``y,phi`` rows, with the token ``inf``."""

    grid: np.ndarray
    values: np.ndarray
    radial: bool = False
    directions: int = 16

    def __post_init__(self):
        y = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if y.ndim != 1 or y.shape != v.shape:
            raise InputError("rate function needs matching 1D grids")
        if np.any(np.diff(y) <= 0):
            raise InputError("rate grid must be strictly increasing")
        fin = np.isfinite(v)
        if not np.any(fin):
            raise InputError("rate function must be finite somewhere")
        if np.min(v[fin]) < -1e-6:
            raise InputError("rate function must be nonnegative up to tolerance")
        if self.radial and y[0] < 0:
            raise InputError("radial rate grids start at radius >= 0")
        y = y.copy(); v = v.copy()
        y.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", y)
        object.__setattr__(self, "values", v)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("y,phi\n")
            for y, v in zip(self.grid, self.values):
                tok = "inf" if not np.isfinite(v) else f"{v:.12g}"
                fh.write(f"{y:.12g},{tok}\n")


def conjugate_rate(model, z_grid, y_grid):
    """Rate phi(y) = sup_z (y z - E[z xi]) from an expectation model (1D).

    The infimum of the exact rate is zero; if the discrete minimum deviates
    beyond 1e-6 the z-grid was too small for the requested dual range.
    """
    z = np.asarray(z_grid, dtype=float)
    if 0.0 not in z:
        raise InputError("z-grid must contain 0 so the rate is nonnegative")
    phi = legendre(z, model.expect_linear(z), np.asarray(y_grid, dtype=float))
    m = float(np.min(phi))
    if abs(m) > 1e-6:
        raise GridTooSmallError(
            f"rate minimum {m:.3e} deviates from 0 beyond 1e-6; enlarge the y-grid")
    return RateFunction(np.asarray(y_grid, dtype=float), phi)


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

    Infinite rate entries are skipped. t = 0 returns f unchanged.
    """
    if t < 0:
        raise InputError("hopf_lax requires t >= 0")
    if t == 0.0:
        return f
    ys, phis = _candidates(rate)
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

    best = np.full(f.values.size, -np.inf)
    for k0 in range(0, ys.shape[0], _CHUNK):
        vals = gather(ys[k0:k0 + _CHUNK]) - t * phis[k0:k0 + _CHUNK][None, :]
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
    if s < 0 or t < 0:
        raise InputError("semigroup_defect requires s, t >= 0")
    direct = hopf_lax(f, s + t, rate)
    nested = hopf_lax(hopf_lax(f, t, rate), s, rate)
    return direct.replace_values(direct.values - nested.values).sup_norm_on(compact)
