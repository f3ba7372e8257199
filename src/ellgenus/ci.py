"""Complete intersections in homogeneous spaces, and Chern numbers.

The zero locus X of a general section of an equivariant bundle E on M has
c(TX) = c(TM)/c(E) by adjunction (a truncated graded series division; c_0
of E is 1, so the quotient is exact), and its integrals localize at the
fixed points of M with the weight e(E)/e(TM) in place of 1/e(TM).  A
CompleteIntersection names M as `ambient` and the weights of E as
`section`, so it integrates by the same method as a HomogeneousSpace, and
homog.localization_sum evaluates c(TX) and the weight as numbers at each
fixed point; no polynomial product with the Euler class is built.

chern_numbers passes one integrand per monomial prod_j c_{d_j}(TX), so
one pass over the fixed points per evaluation point serves all of them.
Each manifold keeps the Chern numbers it has integrated, keyed by the
sorted degrees, so a genus, its Euler number and its chi_y genus asked of
one manifold localize each monomial once; the table dies with the
manifold.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput, NegativeDimension, integer
from .homog import HomogeneousSpace, localize
from .taylor import _graded_division

_F = Fraction


class CompleteIntersection:
    """Zero locus of a general section of an equivariant vector bundle."""

    def __init__(self, bundle):
        self.bundle = bundle
        self.ambient = bundle.base
        dim = self.ambient.dimension() - bundle.rank
        if dim < 0:
            raise NegativeDimension(
                f"rank {bundle.rank} section bundle on a "
                f"{self.ambient.dimension()}-dimensional space")
        self._dim = dim
        self._chern = None
        self._todd = None
        self._chern_numbers = {}

    def __repr__(self):
        return (f"CompleteIntersection(dim={self._dim}, "
                f"ambient={self.ambient!r}, rank={self.bundle.rank})")

    def dimension(self):
        return self._dim

    @property
    def ambient_dim(self):
        return self.ambient.ambient_dim

    @property
    def section(self):
        return self.bundle.weights

    def chern_classes(self):
        """[c_0, ..., c_d] of the tangent bundle, by adjunction."""
        if self._chern is None:
            self._chern = _graded_division(self.ambient.chern_classes(),
                                           self.bundle.chern_classes(),
                                           self._dim)
        return self._chern

    def todd_classes(self):
        if self._todd is None:
            self._todd = _graded_division(self.ambient.todd_classes(),
                                          self.bundle.todd_classes(),
                                          self._dim)
        return self._todd

    def euler_class(self):
        """Top Chern class of the section bundle, c_rank(E)."""
        return self.bundle.chern_classes()[self.bundle.rank]

    integrate = HomogeneousSpace.integrate


def complete_intersection(bundle):
    return CompleteIntersection(bundle)


def chern_numbers(manifold, degree_lists, rng=None):
    """Chern numbers int prod_j c_{d_j} over the manifold, one per list of
    degrees d_j, from a single localization pass over the fixed points per
    evaluation point (two agreeing integer points).  Lists whose degrees
    do not sum to the dimension give 0 without integrating.  Only the
    monomials not yet in the manifold's table (_chern_numbers, keyed by
    the sorted degrees) are localized, each once, and they enter the
    table only after the two points have agreed."""
    dim = manifold.dimension()
    lists = [[integer(k, "a chern class degree") for k in degrees]
             for degrees in degree_lists]
    for degrees in lists:
        for k in degrees:
            if not 1 <= k <= dim:
                raise InvalidInput(f"chern class degree {k} outside 1..{dim}")
    known = manifold._chern_numbers
    keys = [tuple(sorted(degrees)) for degrees in lists]
    missing = list(dict.fromkeys(key for key in keys
                                 if sum(key) == dim and key not in known))
    integrands = [lambda moved, chern, key=key: (chern[k] for k in key)
                  for key in missing]
    known.update(zip(missing, localize(manifold, integrands, rng)))
    return [known[key] if sum(key) == dim else _F(0) for key in keys]


def chern_number(manifold, degrees, rng=None):
    """int of the product of c_{degrees[i]} over the manifold; 0 without
    integrating when the degrees do not sum to the dimension."""
    return chern_numbers(manifold, [degrees], rng=rng)[0]
