"""``one_step`` and ``expect_linear`` against their reference computations.

``one_step`` reduces one gather per step through the model's ``reduce``;
the fused ``_kernels.one_step_*`` kernels compute the same steps directly
and serve as the reference. ``expect_linear`` on an array of coefficients
must equal its per-coefficient values.
"""

import numpy as np
import pytest

from chernofflab import (Entropic, FirstOrderAffine, Grid, GridFunction,
                         Linear, OneStepOperator, PenaltyFunction, Perturbed,
                         SecondOrder, ShiftSup, Shortfall, SymmetricTwoPointSup,
                         centered, gauss_hermite, one_step, two_point)
from chernofflab import _kernels as K
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
    grid_args = (f.values, -g.half_width, g.spacing, f.extension == "constant")
    base, scale = scaling.base_and_scale(t, g.axis)
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


@pytest.mark.parametrize("extension", ["constant", "linear"])
@pytest.mark.parametrize("scaling", list(SCALINGS))
@pytest.mark.parametrize("model", list(MODELS))
def test_one_step_matches_reference_kernel(model, scaling, extension):
    f = GridFunction.sample(Grid(4.0, 129), lambda x: np.sin(x) + 0.2 * x**2,
                            extension=extension)
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
