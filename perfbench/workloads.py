"""Workload definitions: seeded op lists of chernofflab experiments.

An op is one experiment. It passes only if it raises nothing, every check
it declares passes, and its key outputs match ``reference.json`` to within
``REL_TOL``/``ABS_TOL``. Every op has a small table of parameter variants;
variant 0 is the built-in config unchanged. Seed 0 runs every op at
variant 0 in catalogue order. Any other seed draws a variant per op (its
payoff parameters) and shuffles every op but the first, so the op that runs
first, and pays the cold-process cost, is the same for every seed.
"""

import itertools
import json
import math
import os
import random

import numpy as np

# library entry points are looked up on the package at call time, so a
# traced run sees the calls the ops make
import chernofflab as cl
import chernofflab.cli
from chernofflab import (DiscreteMeasure, Entropic, FirstOrderAffine, Grid,
                         Linear, OneStepOperator, Partition, Shortfall, two_point)
from chernofflab.configs import BUILTINS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# key outputs may drift from the reference by ABS_TOL + REL_TOL * |ref|
REL_TOL = 1e-7
ABS_TOL = 1e-9
# library ops compare against their oracle within this absolute tolerance
ORACLE_TOL = 1e-8


# ---------------------------------------------------------------------------
# CLI ops: built-in configs with seeded payoff overrides
# ---------------------------------------------------------------------------

def _center(c):
    # entropic Gaussian rate y^2 / 2 and f = -(x - c)^2 give S(1) f(0) = -c^2 / 3
    return {"payoff": {"center": repr(c)}, "check": {"target": repr(-c * c / 3.0)}}


def _sin(amplitude, frequency):
    return {"payoff": {"amplitude": repr(amplitude), "frequency": repr(frequency)}}


# variant 0 is always the built-in unchanged; the others only move payoff
# parameters (and the closed-form target that follows from them), so each
# variant does the same amount of work as the built-in
CLI_VARIANTS = {
    "lln_entropic_gaussian": [{}, _center(0.9), _center(1.1), _center(0.8)],
    "envelope_perturbed": [{}, _sin(0.8, 1.0), _sin(1.2, 0.9), _sin(1.0, 1.1)],
    "wasserstein_generator": [{}, _sin(0.8, 1.0), _sin(1.2, 0.9), _sin(1.0, 1.1)],
    "generator_affine_drift": [{}, _sin(0.8, 1.0), _sin(1.2, 0.9), _sin(1.0, 1.1)],
    "generator_entropic_constant": [{}, {"payoff": {"value": "1"}},
                                    {"payoff": {"value": "-2"}},
                                    {"payoff": {"value": "5"}}],
    "clt_two_point_gaussian": [{}, {"payoff": {"clip": "5.5"}},
                               {"payoff": {"clip": "5"}},
                               {"payoff": {"clip": "4.5"}}],
    "clt_binary_exact": [{}, {"payoff": {"clip": "30"}},
                         {"payoff": {"clip": "40"}},
                         {"payoff": {"clip": "49"}}],
    "generator_clt_quadratic": [{}, {"payoff": {"clip": "30"}},
                                {"payoff": {"clip": "40"}},
                                {"payoff": {"clip": "49"}}],
    "pde_crosscheck_hj": [{}, _center(0.9), _center(1.1), _center(0.8)],
    # no payoff: these vary only in their position in the op order
    "poly_rate_bernoulli": [{}],
    "cramer_bernoulli": [{}],
}


def config_text(name, variant):
    """The config text of a built-in with variant overrides applied."""
    text = BUILTINS[name][1]
    overrides = CLI_VARIANTS[name][variant]
    if not overrides:
        return text
    sections = cl.cli.parse_config_text(text)
    for section, kv in overrides.items():
        sections[section].update(kv)
    return cl.cli.serialize_config(sections)


def csv_digest(outdir):
    """Row counts and per-column sums of every CSV artifact in ``outdir``.

    ``summary.txt`` is left out: it holds the run's own wall time.
    """
    out = {}
    for fname in sorted(os.listdir(outdir)):
        if not fname.endswith(".csv"):
            continue
        with open(os.path.join(outdir, fname)) as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        cols = lines[0].split(",")
        sums = [0.0] * len(cols)
        abs_sums = [0.0] * len(cols)
        nonfinite = 0
        for ln in lines[1:]:
            for k, tok in enumerate(ln.split(",")):
                v = float(tok)
                if math.isfinite(v):
                    sums[k] += v
                    abs_sums[k] += abs(v)
                else:
                    nonfinite += 1
        out[f"{fname}:rows"] = len(lines) - 1
        out[f"{fname}:nonfinite"] = nonfinite
        for c, s, a in zip(cols, sums, abs_sums):
            out[f"{fname}:{c}:sum"] = s
            out[f"{fname}:{c}:abs_sum"] = a
    return out


class CliOp:
    """One built-in experiment run in-process through ``run_config_text``."""

    def __init__(self, name, variant):
        self.name = name
        self.variant = variant
        self.key = f"{name}/{variant}"
        self.text = config_text(name, variant)

    def run(self, root):
        return cl.cli.run_config_text(self.text, root)

    def outputs(self, root, result):
        return csv_digest(os.path.join(root, self.name))


# ---------------------------------------------------------------------------
# library ops: paths the CLI never reaches, each against its own oracle
# ---------------------------------------------------------------------------

def _clt_centered_linear(c):
    """Centered Bernoulli CLT of x^2 + c: the identity value is 1 + c.

    With 4 steps the sample points x +- 1/2 sit on the h = 1/2 nodes, so
    linear interpolation is exact and the grid value matches to rounding.
    """
    f = cl.GridFunction.sample(Grid(4.0, 17), lambda x: x * x + c)
    value = cl.clt_functional(cl.centered(Linear(two_point())), f, 4)
    return value, 1.0 + c


def _clt_centered_entropic(b, c):
    """Centered entropic CLT of b x + c: the identity value is c.

    The centering minimum log cosh(2 b + a) = 0 is hit at a = -2 b, which
    lies on the default a-grid for the b used here.
    """
    f = cl.GridFunction.sample(Grid(4.0, 17), lambda x: b * x + c)
    value = cl.clt_functional(cl.centered(Entropic(two_point())), f, 4)
    return value, c


_ATOMS_2D = DiscreteMeasure(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0],
                                      [0.5, -0.5]]),
                            np.array([0.4, 0.3, 0.2, 0.1]))
_STEPS_2D = 4
_GRID_2D = Grid(2.0, 33, dimension=2)


def _direct_average_2d(fn, entropic):
    """Enumerate all atom sequences of length 4 at the interior nodes.

    The nodes with |x|, |y| <= 1 keep every sample point of the 4-step
    iteration inside the box, where bilinear interpolation of the bilinear
    (Linear) or affine (Entropic) payoff is exact.
    """
    t = 1.0 / _STEPS_2D
    ax = _GRID_2D.axis
    inner = np.abs(ax) <= 1.0 + 1e-12
    xx, yy = np.meshgrid(ax[inner], ax[inner], indexing="ij")
    a, w = _ATOMS_2D.atoms, _ATOMS_2D.weights
    acc = np.zeros(xx.shape)
    for seq in itertools.product(range(len(w)), repeat=_STEPS_2D):
        s = t * a[list(seq)].sum(axis=0)
        v = fn(xx + s[0], yy + s[1])
        acc += np.prod(w[list(seq)]) * (np.exp(v / t) if entropic else v)
    return (t * np.log(acc) if entropic else acc), inner


def _iterate_2d(model_cls, coeffs):
    a0, b, c, d = coeffs
    entropic = model_cls is Entropic
    fn = ((lambda x, y: a0 + b * x + c * y) if entropic else
          (lambda x, y: a0 + b * x + c * y + d * x * y))
    f = cl.GridFunction.sample(_GRID_2D, fn)
    op = OneStepOperator(model_cls(_ATOMS_2D), FirstOrderAffine())
    u = cl.iterate(op, Partition(1.0, 1.0 / _STEPS_2D), f)
    direct, inner = _direct_average_2d(fn, entropic)
    return u.values[np.ix_(inner, inner)], direct


_BRUTE_GRID = Grid(2.0, 49)  # h = 1/12 puts x +- 1/n on nodes for n | 12
_BRUTE_STEPS = (1, 2, 3, 4, 6)


def _nonlinear_vs_brute(amplitude, frequency):
    f = cl.GridFunction.sample(_BRUTE_GRID,
                            lambda x: amplitude * np.sin(frequency * x) + 0.3 * x)
    grid_vals, brute_vals = [], []
    for model in (Entropic(two_point()), Shortfall(two_point(), 2.0)):
        for n in _BRUTE_STEPS:
            grid_vals.append(cl.nonlinear_functional(model, FirstOrderAffine(), f, n))
            brute_vals.append(cl.brute_force_functional(model, FirstOrderAffine(), f, n))
    return np.array(grid_vals), np.array(brute_vals)


LIB_VARIANTS = {
    "clt_centered_linear": (lambda p: _clt_centered_linear(*p),
                            [(0.0,), (0.5,), (-1.25,), (2.0,)]),
    "clt_centered_entropic": (lambda p: _clt_centered_entropic(*p),
                              [(0.5, 0.25), (0.75, -0.5), (-0.5, 1.0), (1.0, 0.0)]),
    "iterate_2d_linear": (lambda p: _iterate_2d(Linear, p),
                          [(0.5, 1.0, -0.5, 0.25), (1.0, -0.5, 0.75, -0.5),
                           (-0.25, 0.3, 0.6, 1.0), (0.0, 1.5, -1.0, 0.1)]),
    "iterate_2d_entropic": (lambda p: _iterate_2d(Entropic, p),
                            [(0.5, 1.0, -0.5, 0.0), (1.0, -0.5, 0.75, 0.0),
                             (-0.25, 0.3, 0.6, 0.0), (0.0, 1.5, -1.0, 0.0)]),
    "nonlinear_vs_brute": (lambda p: _nonlinear_vs_brute(*p),
                           [(1.0, 1.0), (0.8, 1.5), (1.2, 0.7), (0.5, 2.0)]),
}


class LibOp:
    """One direct library call compared against its oracle."""

    def __init__(self, name, variant):
        self.name = name
        self.variant = variant
        self.key = f"{name}/{variant}"
        fn, params = LIB_VARIANTS[name]
        self._fn = fn
        self._params = params[variant]

    def run(self, root):
        got, want = self._fn(self._params)
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        return err <= ORACLE_TOL, (got, err)

    def outputs(self, root, result):
        got, _ = result
        got = np.atleast_1d(np.asarray(got, dtype=float)).ravel()
        return {"n": got.size, "sum": float(got.sum()),
                "abs_sum": float(np.abs(got).sum()), "first": float(got[0])}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    "first_order": (CliOp, ["envelope_perturbed", "lln_entropic_gaussian",
                            "wasserstein_generator", "generator_affine_drift",
                            "generator_entropic_constant"]),
    "second_order": (CliOp, ["clt_two_point_gaussian", "clt_binary_exact",
                             "generator_clt_quadratic"]),
    "oracles": (CliOp, ["pde_crosscheck_hj", "poly_rate_bernoulli",
                        "cramer_bernoulli"]),
    "generic_path": (LibOp, ["clt_centered_linear", "clt_centered_entropic",
                             "iterate_2d_linear", "iterate_2d_entropic",
                             "nonlinear_vs_brute"]),
}


def _variant_count(op_cls, name):
    return len(CLI_VARIANTS[name] if op_cls is CliOp else LIB_VARIANTS[name][1])


def build_ops(workload, seed):
    """The seeded op list of one round; same seed, same ops, same order."""
    op_cls, names = WORKLOADS[workload]
    if seed == 0:
        return [op_cls(name, 0) for name in names]
    rng = random.Random(f"{workload}:{seed}")
    rest = names[1:]
    rng.shuffle(rest)
    ops = [op_cls(names[0], 0)]
    ops += [op_cls(name, rng.randrange(_variant_count(op_cls, name))) for name in rest]
    return ops


def all_op_variants():
    for op_cls, names in WORKLOADS.values():
        for name in names:
            for v in range(_variant_count(op_cls, name)):
                yield op_cls(name, v)


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def drift(outputs, reference):
    """Keys whose value left the reference tolerance (or went missing)."""
    bad = []
    for key in sorted(set(outputs) | set(reference)):
        if key not in outputs or key not in reference:
            bad.append(key)
            continue
        got, want = outputs[key], reference[key]
        if abs(got - want) > ABS_TOL + REL_TOL * abs(want):
            bad.append(key)
    return bad
