"""Complete intersections in homogeneous spaces, and Chern numbers.

The zero locus X of a general section of an equivariant bundle E on M has
c(TX) = c(TM)/c(E) by adjunction (a truncated graded series division; c_0
of E is 1, so the quotient is exact), and integrals push forward to the
ambient space against the Euler class: int_X f = int_M f * c_top(E).

Chern numbers never build polynomials: chern_numbers localizes at each
fixed point w of M first.  With the evaluation point p moved to A_w p, the
Chern roots there are the numbers <alpha, A_w p> for the tangent weights
alpha of M and <beta, A_w p> for the weights beta of E; c(TM) and c(E) are
their elementary symmetric functions, c(TX) is the graded quotient of the
two number lists, and the Euler class of E is the product of its roots.
Every requested monomial then adds prod_j c_{d_j}(TX) * e(E) / e(TM) at w
to its own total, so one pass over the fixed points per evaluation point
serves all of them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

from .cohomology import CohomologyClass
from .errors import NegativeDimension
from .homog import draw_sum, round_float, two_point_sum

_F = Fraction


def _graded_division(numer, denom, max_degree):
    """Quotient list [t_0, ..., t_max_degree] with (sum denom_j) *
    (sum t_k) = sum numer_k through max_degree, for lists of homogeneous
    classes or of numbers; denom_0 must be 1 and both lists must reach
    max_degree."""
    out = []
    for k in range(max_degree + 1):
        t = numer[k]
        for j in range(1, k + 1):
            t = t - denom[j] * out[k - j]
        out.append(t)
    return out


def _elementary(values, max_degree):
    """[e_0, ..., e_max_degree] of a list of numbers."""
    e = [1] + [0] * max_degree
    for i, x in enumerate(values):
        for k in range(min(i + 1, max_degree), 0, -1):
            e[k] += e[k - 1] * x
    return e


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
        self._euler_class = None

    def __repr__(self):
        return (f"CompleteIntersection(dim={self._dim}, "
                f"ambient={self.ambient!r}, rank={self.bundle.rank})")

    def dimension(self):
        return self._dim

    @property
    def ambient_dim(self):
        return self.ambient.ambient_dim

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
        if self._euler_class is None:
            n = self.ambient.ambient_dim
            total = CohomologyClass.one(n)
            for w in self.bundle.weights:
                total = total.times(CohomologyClass.linear_form(w),
                                    self.ambient.dimension())
            self._euler_class = total
        return self._euler_class

    def integrate(self, f, mode="exact", rng=None):
        """int_X f = int_M (f * c_top(E)), degree-selected on X."""
        top = f.graded_component(self._dim)
        return self.ambient.integrate(top.times(self.euler_class()),
                                      mode=mode, rng=rng)

    def integrate_float_raw(self, f, rng=None):
        top = f.graded_component(self._dim)
        return self.ambient.integrate_float_raw(top.times(self.euler_class()),
                                                rng=rng)


def complete_intersection(bundle):
    return CompleteIntersection(bundle)


def _ambient_and_section(manifold):
    """The homogeneous space whose fixed points localize the manifold's
    integrals, and the weights of its section bundle (none for G/P)."""
    if isinstance(manifold, CompleteIntersection):
        return manifold.ambient, manifold.bundle.weights
    return manifold, ()


def _fixed_point_sums(space, section, monomials, point):
    """Localization sums at one point, one per monomial: over the fixed
    points w of space, prod_j c_{d_j}(TX)(w) * e(E)(w) / e(TM)(w), with the
    Chern roots of TM and of the section bundle E (weights `section`) at w
    paired with A_w p.  Exact for Fraction coordinates, floating point
    otherwise; DegeneratePoint when a tangent root vanishes."""
    dim = space.dimension() - len(section)
    section = [beta.coords for beta in section]
    totals = [0] * len(monomials)
    for moved, roots, euler_tm in space.fixed_points(point):
        chern = _elementary(roots, dim)
        weight = 1 / euler_tm
        if section:
            bundle_roots = [sum(b * m for b, m in zip(beta, moved))
                            for beta in section]
            chern = _graded_division(chern, _elementary(bundle_roots, dim), dim)
            weight *= prod(bundle_roots)
        for i, degrees in enumerate(monomials):
            totals[i] += prod((chern[k] for k in degrees), start=weight)
    return totals


def chern_numbers(manifold, degree_lists, mode="exact", rng=None):
    """Chern numbers int prod_j c_{d_j} over the manifold, one per list of
    degrees d_j, from a single localization pass over the fixed points per
    evaluation point (two agreeing integer points in exact mode, one
    rounded float point in float mode).  Lists whose degrees do not sum to
    the dimension give 0 without integrating."""
    dim = manifold.dimension()
    lists = [[int(k) for k in degrees] for degrees in degree_lists]
    for degrees in lists:
        for k in degrees:
            if not 1 <= k <= dim:
                raise ValueError(f"chern class degree {k} outside 1..{dim}")
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown integration mode {mode!r}")
    wanted = [degrees for degrees in lists if sum(degrees) == dim]
    if not wanted:
        return [_F(0)] * len(lists)
    space, section = _ambient_and_section(manifold)

    def point_sum(point):
        return _fixed_point_sums(space, section, wanted, point)

    rng = rng if rng is not None else random.Random()
    if mode == "float":
        raw = draw_sum(point_sum, space.ambient_dim, rng, exact=False)
        values = iter([round_float(v) for v in raw])
    else:
        values = iter(two_point_sum(point_sum, space.ambient_dim, rng))
    return [next(values) if sum(degrees) == dim else _F(0) for degrees in lists]


def chern_number(manifold, degrees, mode="exact", rng=None):
    """int of the product of c_{degrees[i]} over the manifold; 0 without
    integrating when the degrees do not sum to the dimension."""
    return chern_numbers(manifold, [degrees], mode=mode, rng=rng)[0]
