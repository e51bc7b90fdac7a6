"""Hot numeric kernels in plain numpy.

``pad`` extends 1D node values past the grid box with the edge value, into
the array a ``ShiftStencil`` holds: the constant continuation that every
gather of the package applies, which keeps each gathered value a convex
combination of node values and so keeps the Chernoff steps monotone.
``gather_plan`` is the multilinear gather on a uniform grid, d = 1 or 2: it
computes the floor indices and interpolation weights of a set of query
points once and returns a map from node values to the gathered values, so
a gather whose query points repeat (the equal-``t`` steps of one Chernoff
partition) pays for its geometry once; both dimensions share one body, a
take, an in-place weight product and a sum per cell corner (2 in 1D, 4 in
2D), each corner one index array shifted into the flat values, all into an
output buffer and a corner buffer the plan holds, so applying it
allocates nothing and each apply overwrites the last result.
``chernoff.one_step`` lays its queries out (k, nodes) and reduces the
transpose, so the models reduce contiguous rows per sample point.
``interp1`` is the one-shot 1D gather behind every 1D grid
evaluation. ``shift_stencil`` is the gather at
node-independent offsets (grid-aligned one-steps, the 1D Hopf-Lax
candidates: only those that can attain the supremum, which leaves the
outputs unchanged), a ``ShiftStencil`` plan: a
shifted slice of the padded values
per offset; its ``mean`` entry takes weighted means over rows of offsets
as one banded matrix product over those slices, with no gathered matrix.
The plan holds its pad, refilled in place for each new set of values on
its grid, and each entry keeps the geometry of its last offsets, so equal
steps compute it once. One value budget, ``WINDOW_BLOCK_VALUES``, sizes
both blocked loops over (nodes x columns) arrays: the node blocks of
``mean`` and, through ``Grid.columns_per_block``, the candidate blocks of
the Hopf-Lax scan. The package
reaches these gathers through ``GridFunction`` (``eval``, ``gather_plan``,
``stencil``). The three ``one_step_*`` kernels are fused reference
implementations of single Chernoff steps; ``chernoff.one_step`` computes
the same steps through the models' ``reduce`` and the tests compare the two.
The explicit marches serve the PDE oracle and run whole-array numpy calls
per step into two swapped buffers: ``lax_friedrichs`` four (a difference,
``np.interp`` of the rescaled Hamiltonian, a three-tap ``np.correlate``, a
sum), ``g_heat`` its first hull line written straight into G and one
``np.maximum`` per further line on the lower convex hull of its lines, with
no subtraction for a line that costs +0.0 (x - 0.0 is x bit for bit,
signed zeros included). The Legendre scan serves the Hopf-Lax and
large-deviation oracles: one numpy pass puts the convex prefix of the
points on the lower convex hull, a sequential sweep builds the rest, and
one ``searchsorted`` of the dual grid into the hull's chord slopes finds
every maximizer, with no loop over the dual grid.
``perfbench/`` times ``interp1``, the three ``one_step_*`` kernels,
``lax_friedrichs``, ``g_heat`` and ``legendre_scan`` by name; ``pad``,
``gather_plan`` and ``shift_stencil`` count toward their callers' time.

All kernels are sequential on purpose: reductions keep a fixed summation
order so that repeated runs of an experiment produce byte-identical output.
The package's only threads live in ``chernoff.one_step``: a per-point step
of a row-local model splits its nodes into blocks, each with its own gather
plan, and reduces them on a thread pool; every kernel call still runs on
one thread.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# values one block holds: the windows a stencil's weighted mean copies
# (nodes x band), and the candidates a Hopf-Lax scan gathers (nodes x block)
WINDOW_BLOCK_VALUES = 1 << 15


# ---------------------------------------------------------------------------
# piecewise-multilinear interpolation on a uniform grid
# ---------------------------------------------------------------------------

def pad(values, m, out):
    """The n node ``values`` extended by ``m`` copies of the edge value on
    each side, written into ``out`` (n + 2m entries) and returned."""
    n = values.shape[0]
    out[:m] = values[0]
    out[m:m + n] = values
    out[m + n:] = values[-1]
    return out


def gather_plan(origin, spacing, n, queries, constant_ext, dimension=1):
    """The piecewise-multilinear gather at ``queries``, geometry computed once.

    The grid has ``n`` nodes per axis from ``origin`` with ``spacing``; 1D
    queries may have any shape, 2D queries a trailing axis of length 2.
    ``constant_ext`` clips the queries to the grid box: the constant
    continuation, which every package call asks for. Without it the edge
    cells extrapolate linearly; the switch stays only because
    ``perfbench/tracing.py`` binds the positional arguments of ``interp1``
    and of the ``one_step_*`` references. Returns ``apply`` with
    ``apply(values)`` the interpolant of the node values at the queries,
    for any values on that grid. Its arithmetic runs in the order of a
    direct evaluation, so a plan applied many times gives the same bits as
    fresh gathers.

    The plan keeps one index array, the flat index of each query's lower
    cell corner; the other corners are the same indices into the flat
    values shifted by 1 (1D) or by n, 1 and n + 1 (2D). It holds its
    workspace: an output buffer and a corner buffer of the queries' shape,
    filled by ``take`` with ``out``. ``apply`` returns the output buffer
    itself, so the next ``apply`` overwrites what the last one returned;
    copy a result that must outlive it. The indices are clipped to the grid
    already, so ``mode="clip"`` changes no value; it lets ``take`` write
    straight into ``out``, where the default ``mode="raise"`` gathers into
    a temporary and copies it over.
    """
    u = (queries - origin) / spacing
    if constant_ext:
        u = np.clip(u, 0.0, n - 1.0)
    idx = np.floor(u).astype(np.int64)
    np.clip(idx, 0, n - 2, out=idx)
    theta = u - idx
    # flat index of each query's lower cell corner and the offsets of the
    # 2^d corners from it, axis 0 varying fastest, with their multilinear
    # weights: i, i+1 in 1D; (i, j), (i+1, j), (i, j+1), (i+1, j+1) in 2D
    base = idx if dimension == 1 else idx[..., 0] * n + idx[..., 1]
    t = theta if dimension == 1 else theta[..., 0]
    offsets = [0, n ** (dimension - 1)]
    weights = [1.0 - t, t]
    if dimension == 2:
        t = theta[..., 1]
        lower = 1.0 - t
        offsets += [k + 1 for k in offsets]
        weights = [w * lower for w in weights] + [w * t for w in weights]
    (_, w0), *rest = zip(offsets, weights)
    out, term = np.empty(base.shape), np.empty(base.shape)

    # take gathers the same values as fancy indexing, faster on large plans;
    # products land in the held buffers, so repeated applies allocate
    # nothing a process would pay page faults for
    def apply(values):
        flat = values.reshape(-1)
        flat.take(base, out=out, mode="clip")
        np.multiply(out, w0, out=out)
        for k, w in rest:
            flat[k:].take(base, out=term, mode="clip")
            np.multiply(term, w, out=term)
            np.add(out, term, out=out)
        return out
    return apply


def interp1(values, origin, spacing, queries, constant_ext):
    """Evaluate the piecewise-linear interpolant of node ``values`` once."""
    return gather_plan(origin, spacing, values.shape[0], queries, constant_ext)(values)


def shift_stencil(values, spacing, held=None):
    """The :class:`ShiftStencil` of ``values``: ``held`` refilled in place
    when it was built for the same node count and spacing, else a new one."""
    key = (values.shape[0], spacing)
    if held is None or held.key != key:
        held = ShiftStencil(*key)
    return held.load(values)


class ShiftStencil:
    """Gather at node-independent offsets: ``stencil(c)[i, j] = f(x_i + c[j])``.

    A plan over n nodes with ``spacing``. It holds the values padded by n
    edge values on each side (``pad``), which ``load`` refills in place.
    With k = floor(c / spacing) and theta = c / spacing - k, column j is
    then (1 - theta) p[i + k] + theta p[i + k + 1], two shifted slices of
    the pad p, the same piecewise-linear interpolant ``interp1`` evaluates.
    Offsets beyond the box are clipped to it, so both slices lie in the
    padding and read the edge value there.

    ``stencil.mean(c, w)``, with c of shape (L, m), is the weighted mean
    ``sum_j w[j] f(x_i + c[l, j])`` at every node i, shape (L, n). It is
    linear in p with a band of coefficients per row l: K[l, k - lo] collects
    w (1 - theta) and K[l, k + 1 - lo] collects w theta (one ``np.bincount``),
    so the mean is one matrix product K @ windows[lo:hi + 1] over the band,
    taken over blocks of nodes so that the window block it copies holds at
    most ``WINDOW_BLOCK_VALUES`` values.

    Each entry keeps the geometry of its last offsets: the rows and the
    weights 1 - theta and theta for ``stencil(c)``; lo, the band width,
    K and the block size for ``mean(c, w)``. Equal steps of one partition
    ask for equal offsets, so they compute it once; other offsets or
    weights replace it.
    """

    def __init__(self, n, spacing):
        self.key = (n, spacing)
        self._pad = np.empty(3 * n)
        # windows[n + k] = p[k:k + n], the values shifted by k nodes, k in [-n, n]
        self._windows = sliding_window_view(self._pad, n)
        self._columns = self._band = None

    def load(self, values):
        """Refill the pad with ``values``, n nodes; returns the stencil."""
        pad(values, self.key[0], self._pad)
        return self

    def _cells(self, c):
        # window row of the lower cell node and the weight of the upper one
        n, spacing = self.key
        u = np.clip(c / spacing, -n, n - 1.0)
        k = np.floor(u)
        return n + k.astype(np.int64), u - k

    def __call__(self, c):
        held = self._columns
        if held is None or not np.array_equal(held[0], c):
            # the old geometry is freed first, so that the new one and the
            # gathers after it can reuse its memory
            held = self._columns = None
            rows, theta = self._cells(c)
            theta = theta[:, None]
            held = self._columns = (c.copy(), rows, rows + 1, 1.0 - theta, theta)
        _, rows, upper_rows, lower_w, upper_w = held
        out = self._windows[rows]
        out *= lower_w
        upper = self._windows[upper_rows]
        upper *= upper_w
        out += upper
        return out.T

    def mean(self, c, w):
        held = self._band
        if held is None or not (np.array_equal(held[0], c) and np.array_equal(held[1], w)):
            held = self._band = None  # freed first, as in __call__
            rows, theta = self._cells(c)
            lo = rows.min()
            width = rows.max() + 2 - lo
            band = rows - lo + width * np.arange(c.shape[0])[:, None]
            kernel = np.bincount(np.concatenate([band.ravel(), band.ravel() + 1]),
                                 np.concatenate([(w * (1.0 - theta)).ravel(),
                                                 (w * theta).ravel()]),
                                 minlength=c.shape[0] * width).reshape(c.shape[0], width)
            block = max(1, WINDOW_BLOCK_VALUES // width)
            held = self._band = (c.copy(), w.copy(), lo, width, kernel, block)
        _, _, lo, width, kernel, block = held
        n = self.key[0]
        out = np.empty((c.shape[0], n))
        for i in range(0, n, block):
            # the strided window block is copied once, for one BLAS product
            np.matmul(kernel, np.ascontiguousarray(self._windows[lo:lo + width, i:i + block]),
                      out=out[:, i:i + block])
        return out


def one_step_weighted(values, origin, spacing, constant_ext, base, offsets, weights):
    """out[i] = sum_j weights[j] * interp(values, base[i] + offsets[j])."""
    q = base[:, None] + offsets[None, :]
    return interp1(values, origin, spacing, q, constant_ext) @ weights


def one_step_entropic(values, origin, spacing, constant_ext, base, offsets, logw, t):
    """out[i] = t * log sum_j exp(logw[j] + interp(base[i]+offsets[j]) / t)."""
    q = base[:, None] + offsets[None, :]
    g = interp1(values, origin, spacing, q, constant_ext) / t + logw[None, :]
    m = g.max(axis=1)
    return t * (m + np.log(np.exp(g - m[:, None]).sum(axis=1)))


def one_step_shiftmax(values, origin, spacing, constant_ext, base, atom_offsets,
                      weights, shift_offsets, shift_cost, t, symmetric):
    """Penalized supremum over deterministic shifts of the sample cloud.

    out[i] = max_l ( sum_j w[j] * interp(base[i] + atoms[j] + shifts[l])
                     - t * cost[l] )
    and the symmetric variant averages the +shift and -shift clouds.
    """
    n = base.shape[0]
    out = np.full(n, -np.inf)
    for l in range(shift_offsets.shape[0]):
        qp = base[:, None] + (atom_offsets[None, :] + shift_offsets[l])
        acc = interp1(values, origin, spacing, qp, constant_ext) @ weights
        if symmetric:
            qm = base[:, None] + (atom_offsets[None, :] - shift_offsets[l])
            acc = 0.5 * (acc + interp1(values, origin, spacing, qm, constant_ext) @ weights)
        np.maximum(out, acc - t * shift_cost[l], out=out)
    return out


def lax_friedrichs(values, spacing, dt, steps, ham_p, ham_v, alpha):
    """March u_t = H(u_x) with the monotone Lax-Friedrichs scheme.

    A step sets, at each moving node i,
        u[i] <- dt H((u[i+1] - u[i-1]) / 2h) + visc u[i-1] + (1 - 2 visc) u[i]
                + visc u[i+1],                     visc = alpha dt / 2h,
    in four whole-array calls: the central difference, ``np.interp`` of it
    on the Hamiltonian rescaled once to (2h ham_p, dt ham_v), the three-tap
    ``np.correlate`` and the sum, written into the other of two buffers.
    ``np.interp`` is the piecewise-linear interpolant ``Hamiltonian1`` uses,
    on any strictly increasing ``ham_p``; it saturates beyond the sampled
    gradient range, which keeps the scheme monotone no matter how steep the
    frozen-boundary layer becomes. The two outermost layers stay frozen.
    """
    u = values.copy()
    unew = values.copy()
    m = u.shape[0] - 4  # nodes 2 .. n-3 move
    if m <= 0:
        return u
    diff_p = 2.0 * spacing * ham_p
    step_v = dt * ham_v
    visc = alpha * dt / (2.0 * spacing)
    taps = np.array([visc, 1.0 - 2.0 * visc, visc])
    du = np.empty(m)
    for _ in range(steps):
        np.subtract(u[3:-1], u[1:-3], out=du)
        np.add(np.interp(du, diff_p, step_v), np.correlate(u[1:-1], taps),
               out=unew[2:-2])
        u, unew = unew, u
    return u


def g_heat(values, spacing, dt, steps, lam, lam_cost, half_sigma2):
    """March u_t = G(u_xx), G(a) = max_l (lam[l]^2 a / 2 - cost[l]) + half_sigma2 * a.

    Only the lines (lam^2 / 2, cost) on their lower convex hull can attain
    the maximum, so they are sorted and reduced once (``_lower_hull``); each
    step then writes the first hull line into G and takes one ``np.maximum``
    per further line, in preallocated buffers. max(-inf, x) is x, so
    starting from the first line instead of -inf changes no value. A line
    that costs +0.0 skips its subtraction, which is exact: x - 0.0 is x bit
    for bit, signed zeros included; a cost of -0.0 is subtracted, since
    -0.0 - (-0.0) is +0.0. The two outermost layers stay frozen.
    """
    coef = 0.5 * lam * lam
    order = np.lexsort((lam_cost, coef))
    hull = order[_lower_hull(coef[order], lam_cost[order])]
    first, *rest = [(c, k, k != 0 or np.signbit(k))
                    for c, k in zip(coef[hull], lam_cost[hull])]
    u = values.copy()
    unew = values.copy()
    m = u.shape[0] - 4  # nodes 2 .. n-3 move
    if m <= 0:
        return u
    h2 = spacing * spacing
    lap, g, term = np.empty(m), np.empty(m), np.empty(m)
    for _ in range(steps):
        # lap = (u[i+1] - 2 u[i] + u[i-1]) / h^2, in that order
        np.multiply(u[2:-2], 2.0, out=lap)
        np.subtract(u[3:-1], lap, out=lap)
        lap += u[1:-3]
        lap /= h2
        c, k, paid = first
        np.multiply(lap, c, out=g)
        if paid:
            g -= k
        for c, k, paid in rest:
            np.multiply(lap, c, out=term)
            if paid:
                term -= k
            np.maximum(g, term, out=g)
        # u[i] + dt * (g + half_sigma2 * lap)
        lap *= half_sigma2
        g += lap
        g *= dt
        np.add(u[2:-2], g, out=unew[2:-2])
        u, unew = unew, u
    return u


def _lower_hull(z, g):
    """Lower convex hull indices of the finite points (z_i, g_i), z ascending.

    The conjugate of g equals the conjugate of its hull, and on the hull the
    maximizing index is nondecreasing in the dual variable, which makes a
    single monotone sweep exact for arbitrary finite inputs.

    Until its first pop the sweep's stack holds every point met so far, so
    the triples it tests are the consecutive ones. One numpy pass evaluates
    the sweep's own pop test on every consecutive triple of finite points;
    the points before the first triple that pops go on the hull at once,
    and the Python sweep runs from that triple's last point. A strictly
    convex input takes no sweep, and one whose first triple pops takes all
    of it.
    """
    finite = np.flatnonzero(np.isfinite(g))
    zf, gf = z[finite], g[finite]
    # the pop test below on every consecutive triple (a, b, i)
    popped = np.flatnonzero((gf[1:-1] - gf[:-2]) * (zf[2:] - zf[:-2])
                            >= (gf[2:] - gf[:-2]) * (zf[1:-1] - zf[:-2]))
    start = popped[0] + 2 if popped.size else finite.size
    hull = finite[:start].tolist()
    for i in finite[start:]:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # pop b when it lies on or above the chord a -> i
            if (g[b] - g[a]) * (z[i] - z[a]) >= (g[i] - g[a]) * (z[b] - z[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=np.int64)


def legendre_scan(z, g, y):
    """Discrete convex conjugate g*(y_j) = max_i (y_j z_i - g_i).

    Works for any finite-or-+inf input by conjugating the lower convex hull.
    On the hull, y_j z_i - g_i peaks at the vertex whose chord slopes
    bracket y_j, which one ``searchsorted`` of the ascending dual grid into
    the slopes finds; rounding can shift the peak by one vertex, so each
    y_j takes the best of that vertex and its two neighbours, a later
    vertex winning ties. That is the value a monotone sweep over the dual
    grid reaches, at O(n + m log n).
    """
    hull = _lower_hull(z, g)
    i = np.searchsorted(np.diff(g[hull]) / np.diff(z[hull]), y)
    best = -np.inf
    for j in hull[np.clip([i - 1, i, i + 1], 0, hull.shape[0] - 1)]:
        cand = y * z[j] - g[j]
        best = np.where(cand >= best, cand, best)
    return best
