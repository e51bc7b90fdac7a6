"""Built-in experiment configurations, one or more per experiment kind.

Each entry is the literal config text the parser consumes, so the catalog
doubles as format documentation. A built-in's key is its config's
``[experiment] name``, read from the text; names are unique and the
ordering is stable (insertion order).
"""

import re

BUILTINS = {}


def _register(description, text):
    # the key is the text's own [experiment] name, which names the run's
    # output directory too, so the two cannot differ
    name = re.search(r"^name = (\S+)$", text, re.M)[1]
    BUILTINS[name] = (description, text.strip() + "\n")


_register(
    "First-order limit of the entropic model on a Gaussian, against the "
    "closed-form concave-quadratic value at the origin",
    """
[experiment]
kind = lln
name = lln_entropic_gaussian

[expectation]
variant = entropic
measure = gauss_hermite(64)

[scaling]
family = first_order_affine

[payoff]
family = quadratic
center = 1
sign = -1

[grid]
R = 8
N = 513
weight = 1

[schedule]
uniform = 4,8,16,32,64,128

[check]
target = -0.3333333333333333
tolerance = 0.02
compact = 2
cross_factor = 2
oracle_tolerance = 0.02
rate_z = 8,1601
rate_y = 10,2001
""")

_register(
    "Exponential tail decay of the averaged fair Bernoulli walk against the "
    "conjugate of its log moment generating function",
    """
[experiment]
kind = cramer
name = cramer_bernoulli

[expectation]
variant = linear
measure = atoms(-1:0.5, 1:0.5)

[set]
threshold = 0.5
shift_radius = 0

[schedule]
n = 200,400,600,800,1000,1200,1400,1600,1800,2000

[check]
slope_window = -0.1409,-0.1259
bound_target = -0.1308120359411
bound_tolerance = 1e-4
""")

_register(
    "Polynomial tail decay of the averaged fair Bernoulli walk against the "
    "shortfall-transform bound",
    """
[experiment]
kind = poly_rate
name = poly_rate_bernoulli

[expectation]
variant = shortfall
measure = atoms(-1:0.5, 1:0.5)
power = 2

[set]
threshold = 0.5
shift_radius = 0

[schedule]
n = 200,400,600,800,1000,1200,1400,1600,1800,2000

[check]
tolerance = 0.05
""")

_register(
    "Second-order scaling of the fair Bernoulli average on a clipped "
    "quadratic payoff: the functional equals 1 for every step count",
    """
[experiment]
kind = clt
name = clt_binary_exact

[expectation]
variant = linear
measure = atoms(-1:0.5, 1:0.5)

[payoff]
family = quadratic
center = 0
sign = 1
clip = 36

[grid]
R = 8
N = 257
weight = 2

[schedule]
n = 1,4,16,64

[check]
target = 1.0
tolerance = 1e-6
interior = 0.5
""")

_register(
    "Second-order limit of the symmetric two-point shift supremum with unit "
    "shift budget: the Gaussian integral of a clipped convex payoff",
    """
[experiment]
kind = clt
name = clt_two_point_gaussian

[expectation]
variant = symmetric_two_point
measure = point(0)
penalty = indicator(1)
shifts = 0,1,33

[payoff]
family = cosh
clip = 6

[grid]
R = 6
N = 1537
weight = 2

[schedule]
n = 16,32,64,128

[check]
target = gaussian
tolerance = 0.03
compact = 2
cross_factor = 2
gheat_tolerance = 0.05
gheat_grid = 6,385
""")

_register(
    "Penalized deterministic-shift model over a Gaussian: the measured "
    "generator matches sup_c (c |f'| - c^2) + m f'",
    """
[experiment]
kind = wasserstein
name = wasserstein_generator

[expectation]
variant = shift_sup
measure = gauss_hermite(64)
penalty = quadratic(2, 129)
shifts = -2,2,257

[payoff]
family = sin

[grid]
R = 4
N = 1025
weight = 1

[schedule]
h = 0.125,0.0625,0.03125,0.015625

[check]
tolerance = 0.02
compact = 2
""")

_register(
    "Drift-only one-step family on sin: the generator defect decays "
    "first-order in the probe step",
    """
[experiment]
kind = generator
name = generator_affine_drift

[expectation]
variant = linear
measure = point(0.5)

[scaling]
family = first_order_affine

[payoff]
family = sin

[grid]
R = 4
N = 1025
weight = 1

[schedule]
h = 0.125,0.0625,0.03125,0.015625

[check]
final_tolerance = 0.01
compact = 2
""")

_register(
    "Second-order Bernoulli family on the clipped quadratic: the generator "
    "defect sits at the interpolation floor for every probe step",
    """
[experiment]
kind = generator
name = generator_clt_quadratic

[expectation]
variant = linear
measure = atoms(-1:0.5, 1:0.5)

[scaling]
family = second_order

[payoff]
family = quadratic
center = 0
sign = 1
clip = 36

[grid]
R = 8
N = 2049
weight = 2

[schedule]
h = 0.125,0.0625,0.03125,0.015625

[check]
final_tolerance = 0.01
compact = 2
""")

_register(
    "Entropic family on a constant payoff: the generator vanishes "
    "identically",
    """
[experiment]
kind = generator
name = generator_entropic_constant

[expectation]
variant = entropic
measure = atoms(-1:0.5, 1:0.5)

[scaling]
family = first_order_affine

[payoff]
family = constant
value = 3

[grid]
R = 4
N = 513
weight = 1

[schedule]
h = 0.125,0.0625,0.03125,0.015625

[check]
final_tolerance = 0.01
compact = 2
""")

_register(
    "Perturbed entropic flow sandwiched between the Hopf-Lax envelopes of "
    "the shifted log moment generating function",
    """
[experiment]
kind = envelope
name = envelope_perturbed

[expectation]
variant = entropic
measure = gauss_hermite(64)

[scaling]
family = perturbed
amplitude = 0.1

[payoff]
family = sin

[grid]
R = 8
N = 2049
weight = 1

[schedule]
uniform = 256

[check]
slack = -0.005
compact = 2
z_grid = 8,1601
y_grid = 12,2401
""")

_register(
    "Lax-Friedrichs viscosity march of the quadratic Hamiltonian against "
    "the Hopf-Lax closed form",
    """
[experiment]
kind = pde_crosscheck
name = pde_crosscheck_hj

[expectation]
variant = entropic
measure = gauss_hermite(64)

[payoff]
family = quadratic
center = 1
sign = -1

[grid]
R = 4
N = 2049
weight = 1

[check]
target = -0.3333333333333333
tolerance = 0.05
p_grid = 12,971
rate_y = 10,2001
""")
