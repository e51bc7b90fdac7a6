"""``one_step``, ``expect_linear`` and the kernels against reference computations.

``one_step`` reduces one gather per step through the model's ``reduce``;
the fused ``_kernels.one_step_*`` kernels compute the same steps directly
and serve as the reference. ``expect_linear`` on an array of coefficients
must equal its per-coefficient values, in the array's shape. The shifted-slice stencil must equal
``interp1`` at the same query points, and ``g_heat``, which marches on the
lower hull of its lines only, the loop over every line. A gather plan must
give the one-shot gathers bit for bit for any values on its grid, and
return its one held buffer from every apply, refilled; and
``lax_friedrichs`` its plain per-step march. ``pad`` must equal the
edge values written out per side, and so must the stencil's held pad,
refilled in place. The stencil's weighted mean must equal its gather
followed by a dot, a grid-aligned ``ShiftSup`` step must equal the
reduction of the same gather with no ``mean`` entry (one payoff call per
shift), take one mean call and no gather, on a held stencil too, and stay
within 16 MB on a band as wide as the padded values. ``chernoff`` and ``hopflax`` must not import
``_kernels``.

``ShiftSup`` and ``g_heat`` skip the subtraction of +0.0 costs, so the
steps and marches are compared by bytes (``np.array_equal`` takes -0.0
for 0.0): grid-aligned ``ShiftSup`` steps against a reduction that
subtracts every cost, per-point ones (whose gathers have no ``mean``
entry) against a running maximum over the shifts that subtracts every
cost, and ``g_heat`` (all-zero, mixed, nonzero and -0.0 costs) and
``lax_friedrichs`` against their plain marches at an odd step count too,
which ends in the second of the two swapped buffers. ``legendre_scan``
must give the bytes of the monotone sweep over the dual grid
(``legendre_sweep``) on convex, random, nearly collinear and +inf inputs
and on the conjugates of the built-ins.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chernofflab import (Entropic, FirstOrderAffine, Grid, GridFunction,
                         Linear, OneStepOperator, PenaltyFunction, Perturbed,
                         RateFunction, SecondOrder, ShiftSup, Shortfall,
                         SymmetricTwoPointSup, centered, gauss_hermite,
                         hopf_lax, one_step, two_point)
from chernofflab import _kernels as K
from chernofflab.cli import run_config_text
from chernofflab.configs import BUILTINS
from chernofflab.expectations import SHORTFALL_TOL, shortfall_root

MU = gauss_hermite(16)
PENALTY = PenaltyFunction.quadratic(2.0, 65)
SHIFTS = np.linspace(-1.0, 1.0, 17)

MODELS = {
    "linear": Linear(MU),
    "entropic": Entropic(MU),
    "shortfall": Shortfall(MU, 2.0),
    "shift_sup": ShiftSup(two_point(), PENALTY, SHIFTS),
    "symmetric_sup": SymmetricTwoPointSup(two_point(), PENALTY, SHIFTS),
}

SCALINGS = {
    "first_order": FirstOrderAffine(),
    "perturbed": Perturbed(phi0=lambda x: 0.3 * np.sin(x), lip=0.3),
    "second_order": SecondOrder(),
}


def reference_step(model, scaling, f, t):
    """One step through the fused kernel of the model."""
    g = f.grid
    grid_args = (f.values, -g.half_width, g.spacing, True)
    base, scale = scaling.base(t, g.axis), scaling.scale(t)
    offsets = scale * model.measure.atoms[:, 0]
    w = model.measure.weights
    if isinstance(model, Linear):
        return K.one_step_weighted(*grid_args, base, offsets, w)
    if isinstance(model, Entropic):
        return K.one_step_entropic(*grid_args, base, offsets, np.log(w), t)
    if isinstance(model, Shortfall):
        values, origin, spacing, const = grid_args
        gathered = K.interp1(values, origin, spacing, base[:, None] + offsets, const)
        return t * shortfall_root(gathered / t, w, model.power)
    return K.one_step_shiftmax(*grid_args, base, offsets, w,
                               scale * model.shifts[:, 0], model._costs, t,
                               model.symmetric)


@pytest.mark.parametrize("scaling", list(SCALINGS))
@pytest.mark.parametrize("model", list(MODELS))
def test_one_step_matches_reference_kernel(model, scaling):
    f = GridFunction.sample(Grid(4.0, 129), lambda x: np.sin(x) + 0.2 * x**2)
    op = OneStepOperator(MODELS[model], SCALINGS[scaling])
    for t in (0.3, 1.0 / 64):
        got = one_step(op, t, f).values
        want = reference_step(op.model, op.scaling, f, t)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("model", [*MODELS, "centered"])
def test_expect_linear_array_matches_scalars(model):
    m = centered(Entropic(two_point())) if model == "centered" else MODELS[model]
    z = np.linspace(-3.0, 3.0, 25)
    got = m.expect_linear(z)
    want = np.array([m.expect_linear(zz) for zz in z])
    assert got.shape == z.shape
    # one bisection over all rows runs as many steps as the widest row
    # needs, so shortfall rows agree to the bisection tolerance
    tol = SHORTFALL_TOL if model == "shortfall" else 1e-12
    assert np.max(np.abs(got - want)) <= tol
    # an array of any shape gives its values in that shape
    assert np.array_equal(m.expect_linear(z.reshape(5, 5)), got.reshape(5, 5))


def test_shift_stencil_matches_interp1():
    g = Grid(4.0, 65)
    h = g.spacing
    values = np.sin(g.axis) + 0.2 * g.axis ** 2
    offsets = np.concatenate([
        [0.0, h, -h, 7 * h, -12 * h],              # on nodes, theta = 0
        [0.3 * h, -0.3 * h, 2.5 * h, -40.75 * h],  # between nodes
        [-3.7, 1.9, 4.0 * h - 1e-13],              # negative, and next to a node
        [8.0, -8.0, 8.3, -9.1, 30.0, -25.0],       # half the box and beyond it
    ])
    got = K.shift_stencil(values, h)(offsets)
    want = K.interp1(values, -g.half_width, h, g.axis[:, None] + offsets, True)
    assert got.shape == (g.points_per_axis, offsets.size)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_grid_aligned_steps_use_the_stencil(monkeypatch):
    # first- and second-order steps never reach the per-point gather
    def no_gather(*args):
        raise AssertionError("grid-aligned step went through interp1")
    f = GridFunction.sample(Grid(4.0, 129), np.sin)
    monkeypatch.setattr(K, "interp1", no_gather)
    for scaling in (FirstOrderAffine(), SecondOrder()):
        for model in MODELS.values():
            one_step(OneStepOperator(model, scaling), 0.1, f)


def g_heat_per_line(values, spacing, dt, steps, lam, cost, half_sigma2):
    # every line, in its given order, on fresh arrays; two frozen layers a side
    u = values.copy()
    for _ in range(steps):
        lap = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (spacing * spacing)
        g = np.full(lap.shape, -np.inf)
        for l in range(lam.shape[0]):
            np.maximum(g, 0.5 * lam[l] * lam[l] * lap - cost[l], out=g)
        g += half_sigma2 * lap
        unew = u.copy()
        unew[2:-2] = u[2:-2] + dt * g[1:-1]
        u = unew
    return u


@pytest.mark.parametrize("steps", [40, 41])
@pytest.mark.parametrize("costs", ["zero", "mixed", "nonzero", "signed_zero"])
def test_g_heat_matches_per_shift_loop(costs, steps):
    # the march skips the subtraction of a +0.0 cost and writes its first
    # hull line straight into G; an odd step count returns the buffer the
    # two swapped buffers leave, not the one the march started in. The
    # node x = 0 holds -0.0 with u_xx < 0, where the line lam = 0 gives
    # 0 * u_xx = -0.0: minus a cost of -0.0 that is +0.0, so it must not
    # be skipped
    spacing, dt = 0.05, 1e-3
    x = np.arange(-60, 61) * spacing
    values = -np.minimum(x * x, 4.0)
    lam = np.linspace(-1.0, 1.0, 33)
    cost = {"zero": np.zeros(33), "mixed": np.where(np.abs(lam) > 0.9, 0.05, 0.0),
            "nonzero": 0.01 + 0.1 * lam ** 2, "signed_zero": np.full(33, -0.0)}[costs]
    got = K.g_heat(values, spacing, dt, steps, lam, cost, 0.0)
    assert got.tobytes() == g_heat_per_line(values, spacing, dt, steps, lam, cost,
                                            0.0).tobytes()
    assert not np.array_equal(got, values)


def lower_hull_sweep(z, g):
    """The lower hull by the sequential sweep alone, the stack popped while
    its top lies on or above the chord to the next finite point."""
    hull = []
    for i in np.flatnonzero(np.isfinite(g)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (g[b] - g[a]) * (z[i] - z[a]) >= (g[i] - g[a]) * (z[b] - z[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=np.int64)


HULL_VALUES = {
    # a random line plus 1e-15 noise: rounding decides every pop
    "nearly_collinear": lambda z, rng: (rng.uniform(-2.0, 2.0) * z + rng.uniform(-1.0, 1.0)
                                        + 1e-15 * rng.normal(size=z.size)),
    "convex": lambda z, rng: rng.uniform(0.1, 3.0) * z ** 2,
    # convex up to a random point, then anything
    "convex_prefix": lambda z, rng: np.where(
        np.arange(z.size) < rng.integers(0, z.size + 1), z ** 2, rng.normal(size=z.size)),
    "random": lambda z, rng: rng.normal(size=z.size),
}


@pytest.mark.parametrize("kind", list(HULL_VALUES))
def test_lower_hull_matches_the_sweep(kind):
    # the convex-prefix pass gives the sweep's indices, with duplicate z
    # and +inf entries among the points
    rng = np.random.default_rng(list(HULL_VALUES).index(kind))
    for _ in range(1500):
        z = np.sort(rng.uniform(-5.0, 5.0, rng.integers(1, 200)))
        if rng.random() < 0.3:
            z = np.sort(np.concatenate([z, rng.choice(z, rng.integers(1, z.size + 1))]))
        g = HULL_VALUES[kind](z, rng)
        if rng.random() < 0.3:
            g = np.where(rng.random(z.size) < 0.2, np.inf, g)
        assert np.array_equal(K._lower_hull(z, g), lower_hull_sweep(z, g))


def legendre_sweep(z, g, y):
    """g*(y_j) by one monotone sweep over the ascending dual grid: the
    maximizing hull vertex only moves right, one y_j at a time."""
    hull = K._lower_hull(z, g)
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


LEGENDRE_VALUES = {
    "quadratic": lambda z, rng: rng.uniform(0.1, 3.0) * z ** 2,
    "abs": lambda z, rng: rng.uniform(0.1, 3.0) * np.abs(z),
    "log_cosh": lambda z, rng: np.log(np.cosh(z)),
    "random": lambda z, rng: rng.normal(size=z.size),
    # nearly collinear points, where rounding decides the hull and the peak
    "rounded_linear": lambda z, rng: (
        np.round(rng.uniform(-2.0, 2.0) * z + rng.uniform(-1.0, 1.0), 3)
        + 1e-13 * rng.normal(size=z.size)),
    "with_inf": lambda z, rng: np.where(rng.random(z.size) < 0.3, np.inf, z ** 2 / 2),
}


@pytest.mark.parametrize("kind", list(LEGENDRE_VALUES))
def test_legendre_scan_matches_the_sweep(kind):
    # the searchsorted peak and its two neighbours give the sweep's bytes
    rng = np.random.default_rng(list(LEGENDRE_VALUES).index(kind))
    for _ in range(300):
        z = np.unique(rng.uniform(-5.0, 5.0, rng.integers(2, 300)))
        y = np.unique(rng.uniform(-10.0, 10.0, rng.integers(1, 300)))
        g = LEGENDRE_VALUES[kind](z, rng)
        if np.isfinite(g).any():
            assert K.legendre_scan(z, g, y).tobytes() == legendre_sweep(z, g, y).tobytes()


def test_legendre_scan_ties_take_the_later_vertex():
    # for y = -1, y z - |z| is +0.0 at z = -4 and -0.0 at z = 0: the sweep
    # moves on at a tie, so the conjugate there is -0.0
    z = np.arange(-4.0, 5.0)
    y = np.arange(-2.0, 2.5, 0.5)
    got = K.legendre_scan(z, np.abs(z), y)
    assert got.tobytes() == legendre_sweep(z, np.abs(z), y).tobytes()
    assert np.signbit(got[y == -1.0]).all()


@pytest.mark.parametrize("name", ["lln_entropic_gaussian", "cramer_bernoulli",
                                  "poly_rate_bernoulli", "envelope_perturbed",
                                  "pde_crosscheck_hj"])
def test_legendre_scan_matches_the_sweep_on_builtin_conjugates(name, tmp_path, monkeypatch):
    same = []
    scan = K.legendre_scan

    def checked(z, g, y):
        out = scan(z, g, y)
        same.append(out.tobytes() == legendre_sweep(z, g, y).tobytes())
        return out
    monkeypatch.setattr(K, "legendre_scan", checked)
    run_config_text(BUILTINS[name][1], str(tmp_path))
    assert same and all(same)


def test_g_heat_hull_matches_every_line():
    # lines (lam^2 / 2, cost), unsorted, with negative and duplicate |lam|:
    # the lower hull runs (0, 0), (0.125, 0), (1.125, 0.25), (2, 0.6875),
    # with slopes 0, 1/4, 1/2, so the maximizing line changes at
    # u_xx = 0, 1/4, 1/2; (0.5, 0.09375) lies on the edge of slope 1/4
    # (collinear), the duplicates -1, -2 and the entry 1.25 lie on or above it
    lam = np.array([1.5, -0.5, 2.0, 0.0, -1.0, 1.25, 1.0, -2.0, 0.5])
    cost = np.array([0.25, 0.0, 0.6875, 0.0, 0.2, 0.3, 0.09375, 0.6875, 0.0])
    spacing, dt, steps = 0.05, 2e-4, 40
    x = np.arange(-60, 61) * spacing
    values = 0.1 * np.sin(3.0 * x) + 0.1 * x ** 2
    lap = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / spacing ** 2
    for lo, hi in ((-np.inf, 0.0), (0.0, 0.25), (0.25, 0.5), (0.5, np.inf)):
        assert np.count_nonzero((lap > lo) & (lap < hi)) >= 5
    for half_sigma2 in (0.0, 0.15):
        got = K.g_heat(values, spacing, dt, steps, lam, cost, half_sigma2)
        assert np.array_equal(
            got, g_heat_per_line(values, spacing, dt, steps, lam, cost, half_sigma2))
        assert not np.array_equal(got, values)
    tiny = np.array([1.0, 2.0, 0.5, 3.0])
    assert np.array_equal(K.g_heat(tiny, spacing, dt, steps, lam, cost, 0.15), tiny)


def test_gather_plan_1d_reuses_geometry_bit_for_bit():
    g = Grid(4.0, 65)
    q = np.linspace(-6.0, 6.0, 37)[:, None] + np.array([0.0, 0.013, -2.5])
    plan = K.gather_plan(-g.half_width, g.spacing, g.points_per_axis, q, True)
    for values in (np.sin(g.axis), np.cosh(0.5 * g.axis) - g.axis):
        u = np.clip((q + g.half_width) / g.spacing, 0.0, g.points_per_axis - 1.0)
        idx = np.clip(np.floor(u).astype(np.int64), 0, g.points_per_axis - 2)
        theta = u - idx
        want = (1.0 - theta) * values[idx] + theta * values[idx + 1]
        assert np.array_equal(plan(values), want)
        assert np.array_equal(K.interp1(values, -g.half_width, g.spacing, q, True), want)


@pytest.mark.parametrize("dimension", [1, 2])
def test_gather_plan_apply_overwrites_its_buffer(dimension):
    # the plan holds one output buffer: each apply returns it, refilled
    g = Grid(2.0, 17, dimension=dimension)
    n = g.points_per_axis
    q = np.random.default_rng(5).uniform(-2.5, 2.5, (6, 30, dimension)[:1 + dimension])
    plan = K.gather_plan(-g.half_width, g.spacing, n, q, True, dimension)
    v1, v2 = np.random.default_rng(6).normal(size=(2,) + (n,) * dimension)
    first = plan(v1)
    want1, want2 = first.copy(), K.gather_plan(-g.half_width, g.spacing, n, q, True,
                                               dimension)(v2)
    second = plan(v2)
    assert second is first
    assert np.array_equal(second, want2)
    assert not np.array_equal(first, want1)


def test_gather_plan_2d_matches_bilinear_formula():
    g = Grid(2.0, 17, dimension=2)
    n = g.points_per_axis
    rng = np.random.default_rng(3)
    q = rng.uniform(-3.0, 3.0, size=(40, 5, 2))
    plan = K.gather_plan(-g.half_width, g.spacing, n, q, True, dimension=2)
    for seed in (0, 1):
        v = np.random.default_rng(seed).normal(size=(n, n))
        u = np.clip((q + g.half_width) / g.spacing, 0.0, n - 1.0)
        idx = np.clip(np.floor(u).astype(np.int64), 0, n - 2)
        th = u - idx
        i, j = idx[..., 0], idx[..., 1]
        tx, ty = th[..., 0], th[..., 1]
        want = ((1 - tx) * (1 - ty) * v[i, j] + tx * (1 - ty) * v[i + 1, j]
                + (1 - tx) * ty * v[i, j + 1] + tx * ty * v[i + 1, j + 1])
        assert np.array_equal(plan(v), want)
        assert np.array_equal(GridFunction(g, v).eval(q), want)


@pytest.mark.parametrize("steps", [60, 61])
def test_lax_friedrichs_matches_plain_march(steps):
    # an odd step count ends in the second of the two swapped buffers
    spacing, dt, alpha = 0.05, 4e-3, 3.0
    x = np.arange(-60, 61) * spacing
    values = np.minimum(np.abs(x) ** 1.5, 4.0) + 0.3 * np.sin(3.0 * x)
    ham_p = np.linspace(-2.0, 2.0, 81)
    ham_v = np.log(np.cosh(ham_p))
    visc = alpha * dt / (2.0 * spacing)
    # the scheme as first written: H by its uniform-grid cell formula, then
    # u + dt H + visc (u[i+1] - 2 u[i] + u[i-1])
    u = values.copy()
    n = u.shape[0]
    for _ in range(steps):
        p = (u[2:] - u[:-2]) / (2.0 * spacing)
        pu = np.clip((p - ham_p[0]) / (ham_p[1] - ham_p[0]), 0.0, ham_p.shape[0] - 1.0)
        idx = np.clip(np.floor(pu).astype(np.int64), 0, ham_p.shape[0] - 2)
        th = pu - idx
        hval = (1.0 - th) * ham_v[idx] + th * ham_v[idx + 1]
        diff = u[2:] - 2.0 * u[1:-1] + u[:-2]
        unew = u.copy()
        unew[1:-1] = u[1:-1] + dt * hval + visc * diff
        unew[[0, 1, n - 2, n - 1]] = u[[0, 1, n - 2, n - 1]]
        u = unew
    # the same scheme in the kernel's order, on fresh arrays
    v = values.copy()
    for _ in range(steps):
        w = v.copy()
        w[2:-2] = (np.interp(v[3:-1] - v[1:-3], 2.0 * spacing * ham_p, dt * ham_v)
                   + (visc * v[1:-3] + (1.0 - 2.0 * visc) * v[2:-2] + visc * v[3:-1]))
        v = w
    # the gradient leaves the sampled range [-2, 2] near the kinks
    assert np.max(np.abs(values[2:] - values[:-2])) / (2.0 * spacing) > 2.0
    got = K.lax_friedrichs(values, spacing, dt, steps, ham_p, ham_v, alpha)
    assert got.tobytes() == v.tobytes()
    assert np.max(np.abs(got - u)) <= 1e-12 * np.max(np.abs(u))
    tiny = np.array([1.0, 2.0, 0.5, 3.0])
    assert np.array_equal(K.lax_friedrichs(tiny, spacing, dt, steps, ham_p, ham_v, alpha),
                          tiny)


def stencil_pad(values, m):
    # the edge values of a 1D array repeated m times, one side at a time
    return np.concatenate([np.full(m, values[0]), values, np.full(m, values[-1])])


def test_pad_matches_the_inline_pads():
    n = 9
    v = np.random.default_rng(1).normal(size=n)
    for m in (1, n):
        out = np.empty(n + 2 * m)
        assert K.pad(v, m, out) is out
        assert out.tobytes() == stencil_pad(v, m).tobytes()


def test_pad_fills_every_entry_and_keeps_its_input():
    n, m = 9, 12
    v = np.random.default_rng(2).normal(size=n)
    before = v.copy()
    out = np.full(n + 2 * m, np.nan)
    K.pad(v, m, out)
    assert np.all(np.isfinite(out))
    assert np.array_equal(out[m:m + n], v) and np.array_equal(v, before)


def test_stencil_refills_its_pad_as_pad_does():
    # the held pad, refilled in place over other values, against a fresh
    # pad and the edge values written out per side
    n = 65
    rng = np.random.default_rng(7)
    stencil = K.shift_stencil(rng.normal(size=n), 0.1)
    for scale in (1.0, 1e-3, 3e5):
        v = scale * rng.normal(size=n) + np.pi
        got = stencil.load(v)._pad
        assert got.tobytes() == K.pad(v, n, np.empty(3 * n)).tobytes()
        assert got.tobytes() == stencil_pad(v, n).tobytes()


@pytest.mark.parametrize("module", ["chernoff", "hopflax"])
def test_kernels_are_reached_only_through_the_grid(module):
    # chernoff and hopflax gather through Grid and GridFunction, never by
    # importing _kernels
    path = Path(K.__file__).with_name(f"{module}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        assert not any("_kernels" in name for name in names), ast.unparse(node)


def mean_by_gather(stencil, clouds, w):
    # each cloud gathered as stencil columns, then averaged by one dot
    return np.stack([stencil(c) @ w for c in clouds])


@pytest.mark.parametrize("budget", [1 << 15, 600])
def test_stencil_mean_matches_gather_and_dot(budget, monkeypatch):
    # a budget of 600 values splits the 65 nodes into blocks of 4 or of 15
    # nodes (bands 131 and 38 wide), the last one short
    monkeypatch.setattr(K, "WINDOW_BLOCK_VALUES", budget)
    g = Grid(4.0, 65)
    h = g.spacing
    values = np.sin(g.axis) + 0.2 * g.axis ** 2
    stencil = K.shift_stencil(values, h)
    # atoms on nodes (theta = 0) and three atoms on one floor index
    atoms = np.array([0.0, 2 * h, 0.3 * h, 0.55 * h, 0.9 * h, -1.45, 3.1])
    w = np.array([0.1, 0.2, 0.15, 0.05, 0.2, 0.2, 0.1])
    # shifts of +-9 put every node's cloud beyond the box, 2R = 8
    shifts = np.array([-9.0, -3.3, 0.0, 0.4, 2.0 * h, 5.0, 9.0])
    plus = atoms[None] + shifts[:, None]
    minus = atoms[None] - shifts[:, None]
    clouds = [(plus, w),                                   # one-sided
              (np.concatenate([plus, minus], axis=1),      # symmetric
               np.tile(0.5 * w, 2)),
              (atoms[None] + 0.37, w)]                     # a single shift
    for c, cw in clouds:
        want = mean_by_gather(stencil, c, cw)
        got = stencil.mean(c, cw)
        assert got.shape == (c.shape[0], g.points_per_axis)
        scale = np.max(np.abs(stencil(c.ravel())))
        assert np.max(np.abs(got - want)) <= 4e-15 * scale


SHIFT_MODELS = {
    "shift_sup": MODELS["shift_sup"],
    "symmetric_sup": MODELS["symmetric_sup"],
    "shift_sup_16_atoms": ShiftSup(MU, PENALTY, SHIFTS),
    "symmetric_sup_16_atoms": SymmetricTwoPointSup(MU, PENALTY, SHIFTS),
}


@pytest.mark.parametrize("scaling", ["first_order", "second_order"])
@pytest.mark.parametrize("model", list(SHIFT_MODELS))
def test_grid_aligned_shift_sup_step_matches_block_loop(model, scaling):
    f = GridFunction.sample(Grid(4.0, 129), lambda x: np.sin(x) + 0.2 * x**2)
    op = OneStepOperator(SHIFT_MODELS[model], SCALINGS[scaling])
    stencil = f.stencil()
    for t in (1.0, 0.3, 1.0 / 64):
        scale = op.scaling.scale(t)
        # a gather with no mean entry is called once per shift
        want = op.model.reduce(lambda y: stencil(scale * y[:, 0]), t)
        got = one_step(op, t, f).values
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(f.values))


ZERO_COST_PENALTIES = {
    "indicator": PenaltyFunction.indicator(1.0),  # every shift costs +0.0
    "quadratic": PENALTY,                         # the shift 0 costs +0.0
    # every shift costs -0.0 (np.interp returns the value at a grid point),
    # which must still be subtracted: -0.0 - (-0.0) is +0.0
    "signed_zero": PenaltyFunction(np.linspace(0.0, 1.0, 9), np.full(9, -0.0)),
}


def reduce_paying_every_shift(model, payoff, t=1.0):
    # ShiftSup.reduce with t * cost subtracted for every shift, zero or not,
    # and a running maximum over the shifts for a payoff with no mean entry
    if hasattr(payoff, "mean"):
        best = payoff.mean(model._clouds, model._cloud_weights)
        best -= t * model._costs[:, None]
        return best.max(axis=0)
    best = -np.inf
    for cloud, cost in zip(model._clouds, model._costs):
        best = np.maximum(best, payoff(cloud) @ model._cloud_weights - t * cost)
    return best


@pytest.mark.parametrize("scaling", list(SCALINGS))
@pytest.mark.parametrize("variant", [ShiftSup, SymmetricTwoPointSup])
@pytest.mark.parametrize("penalty", list(ZERO_COST_PENALTIES))
def test_shift_sup_step_bytes_with_zero_costs(penalty, variant, scaling, monkeypatch):
    # grid-aligned (first and second order) and per-point (perturbed) steps
    # give the bytes of a reduction that subtracts every cost, on a payoff
    # that is -0.0 near the origin
    model = variant(MU, ZERO_COST_PENALTIES[penalty], SHIFTS)
    zeros = 1 if penalty == "quadratic" else SHIFTS.size
    assert np.count_nonzero(model._costs == 0) == zeros
    assert np.count_nonzero(np.signbit(model._costs)) == (penalty == "signed_zero") * zeros
    g = Grid(4.0, 129)
    f = GridFunction(g, np.where(np.abs(g.axis) < 1.0, -0.0,
                                 np.sin(g.axis) + 0.2 * g.axis ** 2))

    def steps():
        op = OneStepOperator(model, SCALINGS[scaling])
        return [one_step(op, t, f).values.tobytes() for t in (1.0, 0.3, 1.0 / 64)]
    got = steps()
    monkeypatch.setattr(ShiftSup, "reduce", reduce_paying_every_shift)
    assert got == steps()


@pytest.mark.parametrize("penalty", list(ZERO_COST_PENALTIES))
def test_shift_sup_skips_only_positive_zero_costs(penalty):
    # the BLAS means of the steps above never come out -0.0, so a payoff
    # whose mean entry returns -0.0 shows the sign: skipping a -0.0 cost
    # would keep it, where the subtraction gives +0.0
    model = ShiftSup(MU, ZERO_COST_PENALTIES[penalty], SHIFTS)

    def payoff(y):
        raise AssertionError("the mean entry serves every shift")
    payoff.mean = lambda clouds, w: np.full((clouds.shape[0], 3), -0.0)
    got = model.reduce(payoff, 0.5)
    assert got.tobytes() == reduce_paying_every_shift(model, payoff, 0.5).tobytes()
    assert np.signbit(got).all() == (penalty != "signed_zero")


def test_grid_aligned_shift_sup_step_is_one_mean_call(monkeypatch):
    # every stencil's entries counted, the held one of a repeated step too
    calls = {}
    stencil_call, stencil_mean = K.ShiftStencil.__call__, K.ShiftStencil.mean

    def gather(self, c):
        calls["gather"] += 1
        return stencil_call(self, c)

    def mean(self, c, w):
        calls["mean"] += 1
        return stencil_mean(self, c, w)
    monkeypatch.setattr(K.ShiftStencil, "__call__", gather)
    monkeypatch.setattr(K.ShiftStencil, "mean", mean)
    f = GridFunction.sample(Grid(4.0, 129), np.sin)
    for scaling in (FirstOrderAffine(), SecondOrder()):
        for model in SHIFT_MODELS.values():
            op = OneStepOperator(model, scaling)
            for _ in range(3):
                calls.update(gather=0, mean=0)
                one_step(op, 0.1, f)
                assert calls == {"gather": 0, "mean": 1}


def test_wide_band_mean_step_memory():
    # every cloud spans the padded values: the band is 2n + 1 nodes wide, and
    # one unblocked copy of its windows would take 67 MB
    model = ShiftSup(gauss_hermite(64), PenaltyFunction.quadratic(2.0, 129),
                     np.linspace(-2.0, 2.0, 257))
    f = GridFunction.sample(Grid(4.0, 2049), np.sin)
    tracemalloc.start()
    try:
        one_step(OneStepOperator(model), 1.0, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_hopf_lax_scan_memory():
    # 2001 candidates at 2049 nodes, none pruned, since the payoff's range
    # 60 exceeds the rate's 50: one unblocked gather would take 33 MB, and
    # blocks of 256 candidates 12.7 MB
    f = GridFunction.sample(Grid(4.0, 2049), lambda x: 30.0 * np.sin(x))
    y = np.linspace(-10.0, 10.0, 2001)
    rate = RateFunction(y, 0.5 * y**2)
    tracemalloc.start()
    try:
        hopf_lax(f, 1.0, rate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2e6
