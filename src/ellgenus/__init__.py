"""Exact elliptic genera of homogeneous spaces and complete intersections.

The package computes, in exact rational arithmetic, the two-variable
elliptic genus, the chi_y genus and Chern numbers of spaces G/P and of
zero loci of general sections of equivariant bundles on them, together
with bases of weak Jacobi forms of even weight and integral or
half-integral index for comparison.
"""

from .bundles import (EquivariantVectorBundle, completely_reducible_bundle,
                      irreducible_bundle)
from .ci import (CompleteIntersection, chern_number, chern_numbers,
                 complete_intersection)
from .cohomology import CohomologyClass
from .errors import (BaseMismatch, ConsistencyError, DegeneratePoint,
                     DivisionByNonUnit, EllgenusError, InvalidInput,
                     NegativeDimension, NotPDominant, OddWeight,
                     PrecisionZero, SeriesError, TooLarge, UnknownType,
                     WedgeTooLarge)
from .genus import (ChernSymbolSeries, chi_y, elliptic_genus,
                    elliptic_genus_chernnum)
from .homog import HomogeneousSpace, homogeneous_space
from .jacobi import (JacobiBasisElement, basis_half_integral, basis_integral,
                     linear_fit, phi_0_1, phi_0_3half, phi_m2_1)
from .qseries import LaurentY, QYSeries, eisenstein, eta_product
from .roots import (ParabolicSubgroup, RootSystem, Weight, WeylElement,
                    min_coset_reps, parabolic, root_system, weyl_elements,
                    weyl_orbit)

__version__ = "0.1.0"

__all__ = [
    "BaseMismatch", "ChernSymbolSeries", "CohomologyClass",
    "CompleteIntersection", "ConsistencyError", "DegeneratePoint",
    "DivisionByNonUnit", "EllgenusError", "EquivariantVectorBundle",
    "HomogeneousSpace", "InvalidInput", "JacobiBasisElement",
    "LaurentY", "NegativeDimension", "NotPDominant", "OddWeight",
    "ParabolicSubgroup", "PrecisionZero", "QYSeries", "RootSystem",
    "SeriesError", "TooLarge", "UnknownType", "WedgeTooLarge", "Weight",
    "WeylElement", "basis_half_integral", "basis_integral", "chern_number",
    "chern_numbers", "chi_y", "complete_intersection",
    "completely_reducible_bundle", "eisenstein", "elliptic_genus",
    "elliptic_genus_chernnum", "eta_product", "homogeneous_space",
    "irreducible_bundle", "linear_fit", "min_coset_reps", "parabolic",
    "phi_0_1", "phi_0_3half", "phi_m2_1", "root_system", "weyl_elements",
    "weyl_orbit",
]
