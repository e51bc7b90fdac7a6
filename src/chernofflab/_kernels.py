"""Hot numeric kernels in plain numpy.

``pad`` extends node values past the grid box along axis 0, with the edge
value (constant continuation) or the edge cells' linear extrapolation; it
is the one place the extension rule is spelled out for whole arrays.
``gather_plan`` is the multilinear gather on a uniform grid, d = 1 or 2: it
computes the floor indices and interpolation weights of a set of query
points once and returns a map from node values to the gathered values, so
a gather whose query points repeat (the equal-``t`` steps of one Chernoff
partition) pays for its geometry once. ``interp1`` is the one-shot 1D
gather behind every 1D grid evaluation. ``shift_stencil`` is the gather at
node-independent offsets (grid-aligned one-steps, the 1D Hopf-Lax
candidates): a shifted slice of the padded values per offset. The package
reaches these gathers through ``GridFunction`` (``eval``, ``gather_plan``,
``stencil``). The three ``one_step_*`` kernels are fused reference
implementations of single Chernoff steps; ``chernoff.one_step`` computes
the same steps through the models' ``reduce`` and the tests compare the two.
The explicit marches and the Legendre scan serve the PDE and Hopf-Lax
oracles. ``perfbench/`` times each kernel by name.

All kernels are sequential on purpose: reductions keep a fixed summation
order so that repeated runs of an experiment produce byte-identical output.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# piecewise-multilinear interpolation on a uniform grid
# ---------------------------------------------------------------------------

def pad(values, m, constant_ext):
    """``values`` extended by ``m`` nodes on each side along axis 0.

    The extension repeats the edge value (``constant_ext``) or continues the
    edge cells linearly: node -k takes v[0] - k (v[1] - v[0]) and node
    n - 1 + k takes v[n-1] + k (v[n-1] - v[n-2]), for k = 1 .. m.
    """
    if constant_ext:
        top = np.repeat(values[:1], m, axis=0)
        bottom = np.repeat(values[-1:], m, axis=0)
    else:
        steps = np.arange(1, m + 1).reshape(-1, *([1] * (values.ndim - 1)))
        top = values[0] - (values[1] - values[0]) * steps[::-1]
        bottom = values[-1] + (values[-1] - values[-2]) * steps
    return np.concatenate([top, values, bottom])


def gather_plan(origin, spacing, n, queries, constant_ext, dimension=1):
    """The piecewise-multilinear gather at ``queries``, geometry computed once.

    The grid has ``n`` nodes per axis from ``origin`` with ``spacing``; 1D
    queries may have any shape, 2D queries a trailing axis of length 2.
    ``constant_ext`` selects constant continuation outside the grid box;
    otherwise the edge cells extrapolate linearly. Returns ``apply`` with
    ``apply(values)`` the interpolant of the node values at the queries,
    for any values on that grid. Its arithmetic runs in the order of a
    direct evaluation, so a plan applied many times gives the same bits as
    fresh gathers.
    """
    u = (queries - origin) / spacing
    if constant_ext:
        u = np.clip(u, 0.0, n - 1.0)
    idx = np.floor(u).astype(np.int64)
    np.clip(idx, 0, n - 2, out=idx)
    theta = u - idx
    if dimension == 1:
        upper = idx + 1
        lower_w = 1.0 - theta

        # products formed in place: fewer fresh temporaries, which a process
        # pays page faults for on its first gathers
        def apply(values):
            out = values[idx]
            out *= lower_w
            hi = values[upper]
            hi *= theta
            out += hi
            return out
        return apply

    # flat indices of the four cell corners, (i, j), (i+1, j), (i, j+1),
    # (i+1, j+1), with their bilinear weights
    tx, ty = theta[..., 0], theta[..., 1]
    corner = idx[..., 0] * n + idx[..., 1]
    corners = (corner, corner + n, corner + 1, corner + n + 1)
    weights = ((1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty)

    def apply(values):
        flat = values.reshape(-1)
        out = flat[corners[0]]
        out *= weights[0]
        for c, w in zip(corners[1:], weights[1:]):
            term = flat[c]
            term *= w
            out += term
        return out
    return apply


def interp1(values, origin, spacing, queries, constant_ext):
    """Evaluate the piecewise-linear interpolant of node ``values`` once."""
    return gather_plan(origin, spacing, values.shape[0], queries, constant_ext)(values)


def shift_stencil(values, spacing, constant_ext):
    """Gather at node-independent offsets: ``stencil(c)[i, j] = f(x_i + c[j])``.

    The values are padded once by n nodes on each side (``pad``). With
    k = floor(c / spacing) and theta = c / spacing - k, column j is then
    (1 - theta) p[i + k] + theta p[i + k + 1], two shifted slices of the pad
    p, the same piecewise-linear interpolant ``interp1`` evaluates. Offsets
    beyond the box clamp k so that both slices lie in the padding.
    """
    n = values.shape[0]
    # windows[n + k] = p[k:k + n], the values shifted by k nodes, k in [-n, n]
    windows = sliding_window_view(pad(values, n, constant_ext), n)

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
    unew = values.copy()
    m = u.shape[0] - 4  # nodes 2 .. n-3 move
    if m <= 0:
        return u
    hp0 = ham_p[0]
    hstep = ham_p[1] - ham_p[0]
    top = ham_p.shape[0] - 1.0
    last_cell = ham_p.shape[0] - 2
    lower_v, upper_v = ham_v[:-1], ham_v[1:]
    two_h = 2.0 * spacing
    visc = alpha * dt / (2.0 * spacing)
    pu, th, hval, diff = (np.empty(m) for _ in range(4))
    idx = np.empty(m, dtype=np.int64)
    for _ in range(steps):
        left, mid, right = u[1:-3], u[2:-2], u[3:-1]
        # gradient in Hamiltonian-grid units, clamped to the sampled range
        np.subtract(right, left, out=pu)
        pu /= two_h
        pu -= hp0
        pu /= hstep
        np.maximum(pu, 0.0, out=pu)
        np.minimum(pu, top, out=pu)
        np.floor(pu, out=th)
        idx[...] = th
        np.minimum(idx, last_cell, out=idx)  # pu >= 0, so idx >= 0 already
        np.subtract(pu, idx, out=th)
        # hval = (1 - th) * H[idx] + th * H[idx + 1]
        lower_v.take(idx, out=hval)
        np.subtract(1.0, th, out=pu)
        hval *= pu
        upper_v.take(idx, out=diff)
        diff *= th
        hval += diff
        # diff = u[i+1] - 2 u[i] + u[i-1]
        np.multiply(mid, 2.0, out=diff)
        np.subtract(right, diff, out=diff)
        diff += left
        # u[i] + dt * hval + visc * diff, in that order
        hval *= dt
        diff *= visc
        out = unew[2:-2]
        np.add(mid, hval, out=out)
        out += diff
        u, unew = unew, u
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
