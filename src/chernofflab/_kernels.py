"""Hot numeric kernels in plain numpy.

``interp1`` is the 1D gather behind every grid evaluation and every
one-step operator whose query points move with the node. ``shift_stencil``
is the gather of grid-aligned steps, where every node is queried at the
same offsets: a shifted slice of the padded values per offset. The three
``one_step_*`` kernels are fused reference implementations of single
Chernoff steps; ``chernoff.one_step`` computes the same steps through the
models' ``reduce`` and the tests compare the two.
The explicit marches and the Legendre scan serve the PDE and Hopf-Lax
oracles. ``perfbench/`` times each kernel by name.

All kernels are sequential on purpose: reductions keep a fixed summation
order so that repeated runs of an experiment produce byte-identical output.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# piecewise-linear interpolation on a uniform 1D grid
# ---------------------------------------------------------------------------

def interp1(values, origin, spacing, queries, constant_ext):
    """Evaluate the piecewise-linear interpolant of node ``values``.

    ``constant_ext`` selects constant continuation outside the grid box;
    otherwise the edge cells extrapolate linearly.
    """
    n = values.shape[0]
    u = (queries - origin) / spacing
    if constant_ext:
        u = np.clip(u, 0.0, n - 1.0)
    idx = np.floor(u).astype(np.int64)
    np.clip(idx, 0, n - 2, out=idx)
    theta = u - idx
    return (1.0 - theta) * values[idx] + theta * values[idx + 1]


def shift_stencil(values, spacing, constant_ext):
    """Gather at node-independent offsets: ``stencil(c)[i, j] = f(x_i + c[j])``.

    The values are padded once by n nodes on each side, with the edge value
    (``constant_ext``) or the edge cells' linear extrapolation. With
    k = floor(c / spacing) and theta = c / spacing - k, column j is then
    (1 - theta) p[i + k] + theta p[i + k + 1], two shifted slices of the pad
    p, the same piecewise-linear interpolant ``interp1`` evaluates. Offsets
    beyond the box clamp k so that both slices lie in the padding.
    """
    n = values.shape[0]
    if constant_ext:
        left = np.full(n, values[0])
        right = np.full(n, values[-1])
    else:
        steps = np.arange(1, n + 1)
        left = values[0] - (values[1] - values[0]) * steps[::-1]
        right = values[-1] + (values[-1] - values[-2]) * steps
    # windows[n + k] = p[k:k + n], the values shifted by k nodes, k in [-n, n]
    windows = sliding_window_view(np.concatenate([left, values, right]), n)

    def stencil(c):
        u = c / spacing
        if constant_ext:
            u = np.clip(u, -n, n - 1.0)
        k = np.clip(np.floor(u), -n, n - 1.0)
        theta = (u - k)[:, None]
        rows = n + k.astype(np.int64)
        out = windows[rows]
        out *= 1.0 - theta
        upper = windows[rows + 1]
        upper *= theta
        out += upper
        return out.T
    return stencil


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

    ``ham_p``/``ham_v`` sample the Hamiltonian; evaluation is piecewise
    linear and saturates beyond the sampled gradient range, which keeps the
    scheme monotone no matter how steep the frozen-boundary layer becomes.
    The two outermost layers stay frozen.
    """
    u = values.copy()
    n = u.shape[0]
    hp0 = ham_p[0]
    hstep = ham_p[1] - ham_p[0]
    for _ in range(steps):
        p = (u[2:] - u[:-2]) / (2.0 * spacing)
        pu = np.clip((p - hp0) / hstep, 0.0, ham_p.shape[0] - 1.0)
        idx = np.clip(np.floor(pu).astype(np.int64), 0, ham_p.shape[0] - 2)
        th = pu - idx
        hval = (1.0 - th) * ham_v[idx] + th * ham_v[idx + 1]
        diff = u[2:] - 2.0 * u[1:-1] + u[:-2]
        unew = u.copy()
        unew[1:-1] = u[1:-1] + dt * hval + (alpha * dt / (2.0 * spacing)) * diff
        unew[0] = u[0]
        unew[n - 1] = u[n - 1]
        unew[1] = u[1]
        unew[n - 2] = u[n - 2]
        u = unew
    return u


def g_heat(values, spacing, dt, steps, lam, lam_cost, half_sigma2):
    """March u_t = G(u_xx), G(a) = max_l (lam[l]^2 a / 2 - cost[l]) + half_sigma2 * a."""
    u = values.copy()
    n = u.shape[0]
    coef = 0.5 * lam * lam
    for _ in range(steps):
        lap = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (spacing * spacing)
        g = (coef[:, None] * lap - lam_cost[:, None]).max(axis=0)
        g += half_sigma2 * lap
        unew = u.copy()
        unew[1:-1] = u[1:-1] + dt * g
        unew[0] = u[0]
        unew[n - 1] = u[n - 1]
        unew[1] = u[1]
        unew[n - 2] = u[n - 2]
        u = unew
    return u


def _lower_hull(z, g):
    """Indices of the lower convex hull of the finite points (z_i, g_i).

    The conjugate of g equals the conjugate of its hull, and on the hull the
    maximizing index is nondecreasing in the dual variable, which makes a
    single monotone sweep exact for arbitrary finite inputs.
    """
    finite = np.where(np.isfinite(g))[0]
    hull = []
    for i in finite:
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

    Works for any finite-or-+inf input by conjugating the lower convex hull;
    one monotone sweep over the sorted dual grid gives O(m + n).
    """
    hull = _lower_hull(z, g)
    zf = z[hull]
    gf = g[hull]
    m = zf.shape[0]
    out = np.empty(y.shape[0])
    i = 0
    for j in range(y.shape[0]):
        yj = y[j]
        best = yj * zf[i] - gf[i]
        while i + 1 < m:
            cand = yj * zf[i + 1] - gf[i + 1]
            if cand >= best:
                best = cand
                i += 1
            else:
                break
        out[j] = best
    return out
