"""Uniform-grid function space: storage, interpolation, norms, 1D finite
differences.

Functions live on a symmetric box [-R, R]^d (d = 1 or 2) with an odd number
of nodes per axis so that the origin is always a node. Evaluation between
nodes is piecewise multilinear; outside the box the value of the nearest
boundary point continues constantly. Each evaluated value is then a convex
combination of node values, so a Chernoff step built on it stays monotone,
which its limit needs (the comparison principle); a linear extrapolation
would put a negative weight on a node. Finite differences are
one-dimensional, as the generator checks and the CLI's slope probes that
take them are. All containers are immutable after construction and every
operation is pure.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InputError, freeze, nonnegative, points, whole, write_csv


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [-R, R]^d with N nodes per axis (N odd), d an
    int 1 or 2, N^d at most ``errors.MAX_POINTS`` (``errors.points``) and
    R a number, no bool, in (0, max float / 2] whose spacing is positive."""

    half_width: float
    points_per_axis: int
    dimension: int = 1

    def __post_init__(self):
        if not (whole(self.dimension) and self.dimension in (1, 2)):
            raise InputError(f"dimension must be the int 1 or 2, got {self.dimension!r}")
        # the power of a Python int: a numpy integer's wraps around silently
        n = points(self.points_per_axis, "points_per_axis")
        points(n ** self.dimension, "points_per_axis ** dimension")
        if n < 3 or n % 2 == 0:
            raise InputError("points_per_axis must be odd and >= 3")
        # 2 R / (N - 1) is finite for R up to half the largest float, and
        # positive unless 2 R / (N - 1) underflows
        if not (0 < nonnegative(self.half_width, "half_width") <= np.finfo(float).max / 2
                and self.spacing > 0):
            raise InputError(f"half_width must be in (0, max float / 2] and give a positive "
                             f"spacing, got {self.half_width!r}")

    @property
    def spacing(self):
        return 2.0 * self.half_width / (self.points_per_axis - 1)

    @cached_property
    def axis(self):
        """The node coordinates, computed once per grid and read-only."""
        ax = -self.half_width + self.spacing * np.arange(self.points_per_axis)
        ax.flags.writeable = False
        return ax

    def nodes(self):
        """All node coordinates, shape (N, d) flattened in C order."""
        ax = self.axis
        if self.dimension == 1:
            return ax[:, None]
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([xx.ravel(), yy.ravel()], axis=1)

    @property
    def columns_per_block(self):
        """Columns of a (nodes x columns) gather that one block holds: as many
        as fit the kernels' value budget ``WINDOW_BLOCK_VALUES``, at least 1."""
        return max(1, _kernels.WINDOW_BLOCK_VALUES // self.points_per_axis ** self.dimension)

    @property
    def origin_index(self):
        mid = self.points_per_axis // 2
        return mid if self.dimension == 1 else (mid, mid)

    def within(self, lo, hi):
        """Mask of the axis nodes in [lo, hi], with 1e-12 of slack at both
        ends; a box that holds no node raises InputError."""
        mask = (self.axis >= lo - 1e-12) & (self.axis <= hi + 1e-12)
        if not mask.any():
            raise InputError(f"the box [{lo}, {hi}] holds no node of the grid")
        return mask


@dataclass(frozen=True)
class GrowthWeight:
    """Polynomial growth weight kappa_p(x) = (1 + |x|)^(-p), p the int 0, 1
    or 2."""

    exponent: int = 0

    def __post_init__(self):
        if not (whole(self.exponent) and self.exponent in (0, 1, 2)):
            raise InputError(f"weight exponent must be the int 0, 1 or 2, "
                             f"got {self.exponent!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = np.abs(x) if x.ndim <= 1 else np.linalg.norm(x, axis=-1)
        return (1.0 + r) ** (-float(self.exponent))


@dataclass(frozen=True)
class GridFunction:
    """Real function sampled at the nodes of a :class:`Grid`, with finite
    values and a :class:`GrowthWeight`; ``eval`` interpolates it and
    ``to_csv`` writes it as an artifact."""

    grid: Grid
    values: np.ndarray
    weight: GrowthWeight = field(default_factory=GrowthWeight)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        n = self.grid.points_per_axis
        shape = (n,) if self.grid.dimension == 1 else (n, n)
        if vals.shape != shape:
            raise InputError(f"values must have shape {shape}, got {vals.shape}")
        if not np.isfinite(vals).all():
            raise InputError("grid function values must all be finite")
        if not isinstance(self.weight, GrowthWeight):
            raise InputError(f"weight must be a GrowthWeight, got a {type(self.weight).__name__}")
        freeze(self, values=vals)

    # -- construction -----------------------------------------------------

    @classmethod
    def sample(cls, grid, fn, weight=GrowthWeight()):
        """Sample a callable at the grid nodes."""
        if grid.dimension == 1:
            vals = np.asarray(fn(grid.axis), dtype=float)
        else:
            ax = grid.axis
            xx, yy = np.meshgrid(ax, ax, indexing="ij")
            vals = np.asarray(fn(xx, yy), dtype=float)
        return cls(grid, vals, weight)

    def replace_values(self, values):
        return GridFunction(self.grid, values, self.weight)

    # -- evaluation --------------------------------------------------------

    def eval(self, x):
        """Piecewise-multilinear evaluation at arbitrary (finite) points.

        1D input may be a scalar or any array of coordinates; 2D input must
        have trailing axis of length 2.
        """
        q = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(q)):
            raise InputError("evaluation points must be finite")
        g = self.grid
        if g.dimension == 1:
            return _kernels.interp1(self.values, -g.half_width, g.spacing,
                                    np.atleast_1d(q), True).reshape(np.shape(x))
        if q.shape[-1] != 2:
            raise InputError("2D grid functions take points with trailing axis 2")
        return self.gather_plan(q)(self.values)

    def gather_plan(self, q):
        """The gather at the points ``q`` as a reusable map from node values
        on this grid to values at ``q``."""
        g = self.grid
        return _kernels.gather_plan(-g.half_width, g.spacing, g.points_per_axis, q,
                                    True, g.dimension)

    def stencil(self):
        """The 1D gather at node-independent offsets on this grid, a
        ``ShiftStencil``: ``stencil.columns(c)`` and ``stencil.mean(c, w)``
        are plans, like ``gather_plan``'s, from node values to
        ``f(x_i + c[j])`` in row j, and to ``sum_j w[j] f(x_i + c[l, j])``
        in row l for each row of offsets ``c``, the latter without
        gathering them."""
        return _kernels.ShiftStencil(self.grid.points_per_axis, self.grid.spacing)

    # -- norms ---------------------------------------------------------------

    def weighted_norm(self):
        """max over nodes of |f| * kappa_p, the discrete weighted sup-norm."""
        g = self.grid
        kappa = self.weight(g.axis if g.dimension == 1 else g.nodes())
        return float(np.max(np.abs(self.values.ravel()) * kappa))

    def sup_norm_on(self, box):
        """max of |f| over nodes inside the compact box.

        ``box`` is (lo, hi) in 1D or ((lo1, hi1), (lo2, hi2)) in 2D and must
        sit inside the grid box and hold a node (:meth:`Grid.within`).
        """
        g = self.grid
        boxes = [box] if g.dimension == 1 else list(box)
        for lo, hi in boxes:
            if lo < -g.half_width - 1e-12 or hi > g.half_width + 1e-12:
                raise InputError("compact box must lie inside the grid box")
        inside = np.ix_(*(g.within(lo, hi) for lo, hi in boxes))
        return float(np.max(np.abs(self.values[inside])))

    # -- finite-difference calculus ------------------------------------------

    def fd_gradient(self):
        """Central-difference derivative at every node, one-sided at the
        boundary. One-dimensional only."""
        return _axis_gradient(_values_1d(self), self.grid.spacing)

    def fd_hessian(self):
        """Central second difference, the edge nodes taking their
        neighbours'. One-dimensional only."""
        return _axis_second(_values_1d(self), self.grid.spacing)

    # -- serialization ---------------------------------------------------------

    def to_csv(self, path):
        """One row per node: x[,y],value; header records the grid metadata
        and the constant continuation past the box."""
        g = self.grid
        write_csv(path, "x,value" if g.dimension == 1 else "x,y,value",
                  *g.nodes().T, self.values.ravel(),
                  preamble=f"# R={g.half_width:.12g} N={g.points_per_axis} "
                           f"d={g.dimension} extension=constant "
                           f"weight={self.weight.exponent}\n")


def _values_1d(f):
    """The values of a 1D grid function, else InputError."""
    if f.grid.dimension != 1:
        raise InputError("finite differences are one-dimensional")
    return f.values


def _axis_gradient(v, h):
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    d[0] = (v[1] - v[0]) / h
    d[-1] = (v[-1] - v[-2]) / h
    return d


def _axis_second(v, h):
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
    d[0] = d[1]
    d[-1] = d[-2]
    return d
