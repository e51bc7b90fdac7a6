"""chernofflab: convex monotone semigroups by Chernoff iteration.

Builds nonlinear semigroups as limits of iterated one-step operators from
convex expectations, and verifies the resulting law-of-large-numbers,
central-limit and large-deviation behaviour against independent closed-form
(Hopf-Lax) and finite-difference (viscosity PDE) oracles.
"""

from .chernoff import (FirstOrderAffine, OneStepOperator, Partition,
                       Perturbed, ScalingFamily, SecondOrder,
                       chernoff_limit, iterate, one_step,
                       upper_lipschitz_certificate)
from .expectations import (Centered, DiscreteMeasure, Entropic, Linear,
                           PenaltyFunction, ShiftSup, Shortfall,
                           SymmetricTwoPointSup, centered, gauss_hermite,
                           legendre, two_point)
from .grid import Grid, GridFunction, GrowthWeight
from .hopflax import (RateFunction, conjugate_rate, envelope, hopf_lax,
                      semigroup_defect)
from .limits import (RateReport, brute_force_functional, clt_functional,
                     exact_tail_probabilities, generator_check, ld_rate,
                     nonlinear_functional, poly_rate)
from .pde import Hamiltonian1, Hamiltonian2, solve_g_heat, solve_hj

__version__ = "0.1.0"

# the kernels are plain numpy; tools that record the compiled-kernel backend
# read this name
NUMBA_ENABLED = False

__all__ = [
    "NUMBA_ENABLED",
    "Grid", "GridFunction", "GrowthWeight",
    "DiscreteMeasure", "PenaltyFunction", "Linear", "Entropic", "Shortfall",
    "ShiftSup", "SymmetricTwoPointSup", "Centered", "centered",
    "gauss_hermite", "two_point", "legendre",
    "ScalingFamily", "FirstOrderAffine", "Perturbed", "SecondOrder",
    "Partition", "OneStepOperator", "one_step", "iterate", "chernoff_limit",
    "upper_lipschitz_certificate",
    "RateFunction", "conjugate_rate", "hopf_lax", "envelope",
    "semigroup_defect",
    "Hamiltonian1", "Hamiltonian2", "solve_hj", "solve_g_heat",
    "nonlinear_functional", "clt_functional", "brute_force_functional",
    "exact_tail_probabilities",
    "ld_rate", "poly_rate", "RateReport", "generator_check",
]
