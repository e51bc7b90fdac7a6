"""Uniform-grid function space: storage, interpolation, norms, calculus.

Functions live on a symmetric box [-R, R]^d (d = 1 or 2) with an odd number
of nodes per axis so that the origin is always a node. Evaluation between
nodes is piecewise multilinear; outside the box either constant or linear
continuation applies. All containers are immutable after construction and
every operation is pure.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InputError, freeze, write_csv

EXTENSIONS = ("constant", "linear")


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [-R, R]^d with N nodes per axis (N odd)."""

    half_width: float
    points_per_axis: int
    dimension: int = 1

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise InputError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.points_per_axis < 3 or self.points_per_axis % 2 == 0:
            raise InputError("points_per_axis must be odd and >= 3")
        if not (self.half_width > 0):
            raise InputError("half_width must be positive")
        if not np.isfinite(self.spacing):
            raise InputError(f"half_width {self.half_width:g} gives a non-finite spacing")

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
        """Mask of the axis nodes in [lo, hi], with 1e-12 of slack at both ends."""
        return (self.axis >= lo - 1e-12) & (self.axis <= hi + 1e-12)


@dataclass(frozen=True)
class GrowthWeight:
    """Polynomial growth weight kappa_p(x) = (1 + |x|)^(-p), p in {0, 1, 2}."""

    exponent: int = 0

    def __post_init__(self):
        if self.exponent not in (0, 1, 2):
            raise InputError("weight exponent must be 0, 1 or 2")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = np.abs(x) if x.ndim <= 1 else np.linalg.norm(x, axis=-1)
        return (1.0 + r) ** (-float(self.exponent))


@dataclass(frozen=True)
class MollifierSpec:
    """Polynomial bump kernel (1 - |n x / delta|^2)^2 scaled to radius delta/n."""

    radius: float = 1.0
    scale: int = 1

    def __post_init__(self):
        if not (0.0 < self.radius <= 1.0):
            raise InputError("mollifier radius must lie in (0, 1]")
        if self.scale < 1:
            raise InputError("mollifier scale index must be >= 1")

    @property
    def support(self):
        return self.radius / self.scale


@dataclass(frozen=True)
class GridFunction:
    """Real function sampled at the nodes of a :class:`Grid`; ``eval``
    interpolates it and ``to_csv`` writes it as an artifact."""

    grid: Grid
    values: np.ndarray
    extension: str = "constant"
    weight: GrowthWeight = field(default_factory=GrowthWeight)

    def __post_init__(self):
        if self.extension not in EXTENSIONS:
            raise InputError(f"extension must be one of {EXTENSIONS}")
        vals = np.asarray(self.values, dtype=float)
        n = self.grid.points_per_axis
        shape = (n,) if self.grid.dimension == 1 else (n, n)
        if vals.shape != shape:
            raise InputError(f"values must have shape {shape}, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise InputError("grid function values must all be finite")
        freeze(self, values=vals)

    # -- construction -----------------------------------------------------

    @classmethod
    def sample(cls, grid, fn, extension="constant", weight=GrowthWeight()):
        """Sample a callable at the grid nodes."""
        if grid.dimension == 1:
            vals = np.asarray(fn(grid.axis), dtype=float)
        else:
            ax = grid.axis
            xx, yy = np.meshgrid(ax, ax, indexing="ij")
            vals = np.asarray(fn(xx, yy), dtype=float)
        return cls(grid, vals, extension, weight)

    def replace_values(self, values):
        return GridFunction(self.grid, values, self.extension, self.weight)

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
                                    np.atleast_1d(q), self.extension == "constant"
                                    ).reshape(np.shape(x))
        if q.shape[-1] != 2:
            raise InputError("2D grid functions take points with trailing axis 2")
        return self.gather_plan(q)(self.values)

    def gather_plan(self, q):
        """The gather at the points ``q`` as a reusable map from node values
        on this grid, under this function's extension, to values at ``q``."""
        g = self.grid
        return _kernels.gather_plan(-g.half_width, g.spacing, g.points_per_axis, q,
                                    self.extension == "constant", g.dimension)

    def stencil(self, held=None):
        """The 1D gather at node-independent offsets, ``stencil(c)[i, j] =
        f(x_i + c[j])``, as shifted slices of the padded values; its
        ``mean(c, w)`` entry takes ``sum_j w[j] f(x_i + c[l, j])`` per row of
        offsets ``c`` without gathering them. ``held``, a stencil an earlier
        call returned, is refilled with these values in place and returned,
        with the geometry of its last offsets, when it was built for this
        grid and extension; otherwise a new stencil is built."""
        return _kernels.shift_stencil(self.values, self.grid.spacing,
                                      self.extension == "constant", held)

    # -- norms ---------------------------------------------------------------

    def weighted_norm(self):
        """max over nodes of |f| * kappa_p, the discrete weighted sup-norm."""
        g = self.grid
        kappa = self.weight(g.axis if g.dimension == 1 else g.nodes())
        return float(np.max(np.abs(self.values.ravel()) * kappa))

    def sup_norm_on(self, box):
        """max of |f| over nodes inside the compact box.

        ``box`` is (lo, hi) in 1D or ((lo1, hi1), (lo2, hi2)) in 2D and must
        sit inside the grid box.
        """
        g = self.grid
        boxes = [box] if g.dimension == 1 else list(box)
        for lo, hi in boxes:
            if lo < -g.half_width - 1e-12 or hi > g.half_width + 1e-12:
                raise InputError("compact box must lie inside the grid box")
        inside = np.ix_(*(g.within(lo, hi) for lo, hi in boxes))
        return float(np.max(np.abs(self.values[inside])))

    # -- transformations ----------------------------------------------------

    def shift(self, x):
        """tau_x f with (tau_x f)(y) = f(x + y), resampled on the same grid."""
        g = self.grid
        if g.dimension == 1:
            q = g.axis + float(np.asarray(x).reshape(()))
            return self.replace_values(self.eval(q))
        vec = np.asarray(x, dtype=float).reshape(2)
        return self.replace_values(self.eval(g.nodes() + vec).reshape(self.values.shape))

    def mollify(self, spec):
        """Discrete convolution with the bump kernel of ``spec``.

        Output extrema stay inside the input extrema and constants are
        preserved because the kernel is a probability vector.
        """
        g = self.grid
        if spec.support > g.half_width / 4.0 + 1e-12:
            raise InputError("mollifier support exceeds a quarter of the box")
        m = max(int(np.floor(spec.support / g.spacing)), 0)
        offs = g.spacing * np.arange(-m, m + 1)
        w = (1.0 - (offs * spec.scale / spec.radius) ** 2) ** 2
        w[np.abs(offs) > spec.support] = 0.0
        w /= w.sum()
        out = self.values
        for axis in range(g.dimension):
            out = _convolve_axis(out, w, m, axis, self.extension)
        return self.replace_values(out)

    # -- finite-difference calculus ------------------------------------------

    def fd_gradient(self, index=None):
        """Central-difference gradient, one-sided at the boundary.

        Without ``index`` returns the gradient at every node (axis 0 last in
        2D: shape (N, N, 2)); with an index returns it at that node.
        """
        g = self.grid
        grads = [_axis_gradient(self.values, g.spacing, axis)
                 for axis in range(g.dimension)]
        if g.dimension == 1:
            return grads[0] if index is None else float(grads[0][index])
        out = np.stack(grads, axis=-1)
        return out if index is None else out[index]

    def fd_hessian(self):
        """Second-order central Hessian; symmetric by construction."""
        g = self.grid
        h = g.spacing
        v = self.values
        dxx = _axis_second(v, h, 0)
        if g.dimension == 1:
            return dxx
        dyy = _axis_second(v, h, 1)
        dxy = np.zeros_like(v)
        dxy[1:-1, 1:-1] = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4 * h**2)
        hess = np.empty(v.shape + (2, 2))
        hess[..., 0, 0] = dxx
        hess[..., 1, 1] = dyy
        hess[..., 0, 1] = hess[..., 1, 0] = dxy
        return hess

    # -- serialization ---------------------------------------------------------

    def to_csv(self, path):
        """One row per node: x[,y],value; header records the grid metadata."""
        g = self.grid
        write_csv(path, "x,value" if g.dimension == 1 else "x,y,value",
                  *g.nodes().T, self.values.ravel(),
                  preamble=f"# R={g.half_width:.12g} N={g.points_per_axis} "
                           f"d={g.dimension} extension={self.extension} "
                           f"weight={self.weight.exponent}\n")


def _axis_gradient(v, h, axis):
    v = np.moveaxis(v, axis, 0)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    d[0] = (v[1] - v[0]) / h
    d[-1] = (v[-1] - v[-2]) / h
    return np.moveaxis(d, 0, axis)


def _axis_second(v, h, axis):
    v = np.moveaxis(v, axis, 0)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
    d[0] = d[1]
    d[-1] = d[-2]
    return np.moveaxis(d, 0, axis)


def _convolve_axis(v, w, m, axis, extension):
    v = np.moveaxis(v, axis, 0)
    padded = _kernels.pad(v, m, extension == "constant")
    out = np.zeros_like(v)
    for k, wk in enumerate(w):
        out += wk * padded[k:k + v.shape[0]]
    return np.moveaxis(out, 0, axis)
