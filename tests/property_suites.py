"""Randomized property suites shared by the module tests and acceptance.

Each suite runs a fixed number of seeded random cases and returns a list of
failure descriptions (empty = pass). Expectation-level checks run on exact
atom evaluations at tolerance 1e-9; one-step checks go through grid
interpolation and run at 1e-6.
"""

import numpy as np

from chernofflab import (DiscreteMeasure, Entropic, FirstOrderAffine, Grid,
                         GridFunction, Linear, OneStepOperator,
                         PenaltyFunction, Perturbed, SecondOrder, ShiftSup,
                         Shortfall, SymmetricTwoPointSup, legendre, one_step,
                         two_point)

EXACT_TOL = 1e-9
GRID_TOL = 1e-6


def expectation_models():
    shifts = np.linspace(-3.0, 3.0, 25)
    pen = PenaltyFunction.quadratic(3.0, 25)
    mu = two_point()
    tri = DiscreteMeasure(np.array([-1.0, 0.0, 2.0]), np.array([0.3, 0.5, 0.2]))
    return [
        ("linear", Linear(tri)),
        ("entropic", Entropic(mu)),
        ("shortfall", Shortfall(mu, 2.0)),
        ("shift_sup", ShiftSup(mu, pen, shifts)),
        ("two_point_sup", SymmetricTwoPointSup(mu, pen, shifts)),
    ]


def _random_payoff(rng, scale=1.0):
    c = rng.normal(size=4) * scale
    a = rng.uniform(0.5, 2.0)
    return lambda y, c=c, a=a: (c[0] + c[1] * np.asarray(y)
                                + c[2] * np.sin(a * np.asarray(y))
                                + c[3] * np.abs(np.asarray(y)))


def suite_axioms(cases=100, seed=0):
    """Constant translation, norm continuity, scaling, symmetry, modulus."""
    rng = np.random.default_rng(seed)
    failures = []
    models = expectation_models()
    for k in range(cases):
        name, model = models[k % len(models)]
        f = _random_payoff(rng)
        g = _random_payoff(rng)
        c = float(rng.normal() * 3)
        ef = model.expect(f)
        # (i) E[f + c] = E[f] + c
        if abs(model.expect(lambda y: f(y) + c) - ef - c) > EXACT_TOL:
            failures.append(f"{name}: translation case {k}")
        # (ii) |E[f] - E[g]| <= sup |f - g| over the queried points
        pts = _query_points(model)
        gap = float(np.max(np.abs(f(pts) - g(pts))))
        if abs(ef - model.expect(g)) > gap + EXACT_TOL:
            failures.append(f"{name}: norm continuity case {k}")
        # (iii) E[lam f] <= lam E[f] for lam in [0, 1]
        for lam in (0.25, 0.5, 0.75):
            if model.expect(lambda y: lam * f(y)) > lam * ef + EXACT_TOL:
                failures.append(f"{name}: scaling lam={lam} case {k}")
        # (iv) -E[-f] <= E[f]
        if -model.expect(lambda y: -f(y)) > ef + EXACT_TOL:
            failures.append(f"{name}: symmetry case {k}")
        # (v) |E[f]| <= E[|f|]
        if abs(ef) > model.expect(lambda y: np.abs(f(y))) + EXACT_TOL:
            failures.append(f"{name}: modulus case {k}")
    return failures


def _query_points(model):
    atoms = model.measure.atoms[:, 0]
    if isinstance(model, ShiftSup):
        pts = (atoms[None, :] + model.shifts[:, 0][:, None]).ravel()
        if model.symmetric:
            pts = np.concatenate([pts, (atoms[None, :]
                                        - model.shifts[:, 0][:, None]).ravel()])
        return pts
    return atoms


def suite_convexity(cases=100, seed=1):
    rng = np.random.default_rng(seed)
    failures = []
    models = expectation_models()
    for k in range(cases):
        name, model = models[k % len(models)]
        f = _random_payoff(rng)
        g = _random_payoff(rng)
        lam = float(rng.uniform())
        mix = model.expect(lambda y: lam * f(y) + (1 - lam) * g(y))
        if mix > lam * model.expect(f) + (1 - lam) * model.expect(g) + EXACT_TOL:
            failures.append(f"{name}: convexity case {k}")
    return failures


def suite_lambda_estimate(cases=100, seed=2):
    """phi(x) - phi(y) <= lam (phi((x-y)/lam + y) - phi(y)) for convex phi."""
    rng = np.random.default_rng(seed)
    failures = []
    models = expectation_models()
    for k in range(cases):
        name, model = models[k % len(models)]
        f = _random_payoff(rng)
        g = _random_payoff(rng)
        lhs = model.expect(f) - model.expect(g)
        for lam in (0.25, 0.5, 1.0):
            blend = model.expect(lambda y: (f(y) - g(y)) / lam + g(y))
            if lhs > lam * (blend - model.expect(g)) + EXACT_TOL:
                failures.append(f"{name}: lambda estimate lam={lam} case {k}")
    return failures


def suite_centered_insensitivity(cases=100, seed=3):
    """E[a xi] = 0 for all a makes linear perturbations invisible."""
    rng = np.random.default_rng(seed)
    failures = []
    centered_models = [
        ("linear0", Linear(two_point())),
        ("two_point0", SymmetricTwoPointSup(
            DiscreteMeasure(np.array([0.0]), np.array([1.0])),
            PenaltyFunction.quadratic(2.0, 17), np.linspace(-2, 2, 17))),
    ]
    for k in range(cases):
        name, model = centered_models[k % len(centered_models)]
        f = _random_payoff(rng)
        for a in (1.0, -1.0, 2.0, -2.0):
            if abs(model.expect_linear(a)) > EXACT_TOL:
                failures.append(f"{name}: not centered a={a}")
                continue
            shifted = model.expect(lambda y: f(y) + a * np.asarray(y))
            if abs(shifted - model.expect(f)) > EXACT_TOL:
                failures.append(f"{name}: sensitivity a={a} case {k}")
    return failures


def _random_grid_function(rng, grid):
    c = rng.normal(size=3)
    freq = rng.uniform(0.5, 2.0, size=2)
    vals = (c[0] * np.sin(freq[0] * grid.axis)
            + c[1] * np.cos(freq[1] * grid.axis) + c[2])
    return GridFunction(grid, vals)


def one_step_operators():
    mu = two_point()
    pen = PenaltyFunction.quadratic(2.0, 17)
    return [
        ("linear_affine", OneStepOperator(Linear(mu), FirstOrderAffine())),
        ("entropic_affine", OneStepOperator(Entropic(mu), FirstOrderAffine())),
        ("shortfall_affine", OneStepOperator(Shortfall(mu, 2.0), FirstOrderAffine())),
        ("shiftsup_affine", OneStepOperator(
            ShiftSup(mu, pen, np.linspace(-2, 2, 17)), FirstOrderAffine())),
        ("linear_second", OneStepOperator(Linear(mu), SecondOrder())),
        ("twopoint_second", OneStepOperator(SymmetricTwoPointSup(
            DiscreteMeasure(np.array([0.0]), np.array([1.0])), pen,
            np.linspace(0, 2, 17)), SecondOrder())),
    ]


def suite_one_step_monotone(cases=100, seed=4):
    rng = np.random.default_rng(seed)
    grid = Grid(6.0, 193)
    ops = one_step_operators()
    failures = []
    for k in range(cases):
        name, op = ops[k % len(ops)]
        f = _random_grid_function(rng, grid)
        bump = np.abs(_random_grid_function(rng, grid).values)
        g = f.replace_values(f.values + bump)
        t = float(rng.uniform(0.01, 0.5))
        uf, ug = one_step(op, t, f), one_step(op, t, g)
        if np.any(uf.values > ug.values + EXACT_TOL):
            failures.append(f"{name}: monotonicity case {k}")
    return failures


def suite_one_step_convexity(cases=100, seed=5):
    rng = np.random.default_rng(seed)
    grid = Grid(6.0, 193)
    ops = one_step_operators()
    failures = []
    for k in range(cases):
        name, op = ops[k % len(ops)]
        f = _random_grid_function(rng, grid)
        g = _random_grid_function(rng, grid)
        t = float(rng.uniform(0.01, 0.5))
        uf, ug = one_step(op, t, f), one_step(op, t, g)
        for lam in (0.25, 0.5, 0.75):
            mix = f.replace_values(lam * f.values + (1 - lam) * g.values)
            umix = one_step(op, t, mix)
            if np.any(umix.values > lam * uf.values + (1 - lam) * ug.values
                      + EXACT_TOL):
                failures.append(f"{name}: convexity lam={lam} case {k}")
    return failures


def suite_one_step_contraction(cases=100, seed=6):
    rng = np.random.default_rng(seed)
    grid = Grid(6.0, 193)
    ops = one_step_operators()
    failures = []
    for k in range(cases):
        name, op = ops[k % len(ops)]
        f = _random_grid_function(rng, grid)
        g = _random_grid_function(rng, grid)
        t = float(rng.uniform(0.01, 0.5))
        uf, ug = one_step(op, t, f), one_step(op, t, g)
        lhs = float(np.max(np.abs(uf.values - ug.values)))
        rhs = float(np.max(np.abs(f.values - g.values)))
        if lhs > rhs + EXACT_TOL:
            failures.append(f"{name}: contraction case {k}")
    return failures


def _discrete_lip(values, h):
    return float(np.max(np.abs(np.diff(values)))) / h


def suite_one_step_lipschitz(cases=100, seed=7):
    """Lip bound preserved (factor e^{Lt} for the perturbed family)."""
    rng = np.random.default_rng(seed)
    grid = Grid(6.0, 193)
    amp = 0.3
    ops = one_step_operators() + [
        ("perturbed_entropic", OneStepOperator(
            Entropic(two_point()),
            Perturbed(phi0=lambda x: amp * np.sin(x), lip=amp))),
    ]
    failures = []
    for k in range(cases):
        name, op = ops[k % len(ops)]
        f = _random_grid_function(rng, grid)
        t = float(rng.uniform(0.01, 0.5))
        u = one_step(op, t, f)
        factor = np.exp(amp * t) if name.startswith("perturbed") else 1.0
        if _discrete_lip(u.values, grid.spacing) > \
                factor * _discrete_lip(f.values, grid.spacing) + GRID_TOL:
            failures.append(f"{name}: lipschitz case {k}")
    return failures


def suite_interpolation_order(cases=100, seed=8):
    """Evaluation between nodes keeps order: f <= g at the nodes gives
    f <= g at every point of the box, and past it under the constant
    continuation."""
    rng = np.random.default_rng(seed)
    grid = Grid(6.0, 193)
    failures = []
    for k in range(cases):
        f = _random_grid_function(rng, grid)
        g = f.replace_values(f.values + np.abs(_random_grid_function(rng, grid).values))
        q = rng.uniform(-8.0, 8.0, size=400)
        if np.any(f.eval(q) > g.eval(q) + EXACT_TOL):
            failures.append(f"interpolation order case {k}")
    return failures


def suite_legendre_biconjugation(cases=100, seed=9):
    """With the dual grid holding every slope, conjugating twice restores
    convex grid data exactly."""
    rng = np.random.default_rng(seed)
    failures = []
    for k in range(cases):
        m = rng.integers(8, 40)
        z = np.sort(rng.uniform(-4, 4, size=m))
        z[0] -= 1e-3
        slopes = np.sort(rng.normal(size=m - 1) * 3)
        vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(z))])
        vals += rng.normal() * 2
        y = np.unique(np.concatenate([slopes, [slopes[0] - 1, slopes[-1] + 1]]))
        star = legendre(z, vals, y)
        back = legendre(y, star, z)
        if np.any(back > vals + EXACT_TOL) or np.any(back < vals - EXACT_TOL):
            failures.append(f"biconjugation case {k}")
    return failures


ALL_SUITES = [
    ("axioms", suite_axioms),
    ("convexity", suite_convexity),
    ("lambda_estimate", suite_lambda_estimate),
    ("centered_insensitivity", suite_centered_insensitivity),
    ("one_step_monotone", suite_one_step_monotone),
    ("one_step_convexity", suite_one_step_convexity),
    ("one_step_contraction", suite_one_step_contraction),
    ("one_step_lipschitz", suite_one_step_lipschitz),
    ("interpolation_order", suite_interpolation_order),
    ("legendre_biconjugation", suite_legendre_biconjugation),
]
