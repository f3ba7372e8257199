"""Homogeneous spaces G/P and the one localization path for integrals.

A HomogeneousSpace carries the tangent weights (the positive roots outside
the Levi) and Chern/Todd classes as polynomial representatives in the
ambient coordinates.  Every integral, over G/P or over a complete
intersection in it, is the Atiyah-Bott fixed-point sum of
localization_sum: at each Weyl coset representative w the point p moves
to D A_w p by w's integer matrix (see roots), the tangent Chern roots
there are numbers, c(TX) is their elementary symmetric functions
(taylor._elementary, divided by those of the section bundle E for a
complete intersection with taylor._graded_division), and every integrand
adds its value times e(E)/e(TM) to its own total.  Chern numbers
multiply entries of c(TX); integrate(f) evaluates f at D A_w p.

The sum is a constant function of the point, so localize, the one draw
protocol, evaluates it exactly at two points that must agree; no rational
function is simplified symbolically.  Each point is p = sum_i c_i v_i
with random integer labels c_i in [1, _LABEL_BOUND], built in integers by
RootSystem.dominant_point from the multiples v_i = s_i omega_i of the
fundamental weights that the positive roots give with no matrix inverse,
and divided by the gcd of its coordinates (every top-degree sum is
homogeneous of degree 0 in p, so that scale and D cancel).  It lies in
the open dominant chamber, so <beta, w p> != 0 for every root beta and
Weyl element w (Humphreys, Reflection Groups and Coxeter Groups, 1.12):
no tangent root vanishes at a fixed point, and no point is redrawn.  A
section root may vanish; that only zeroes e(E), as c(TX) = c(TM)/c(E)
divides by c_0(E) = 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

from . import bundles
from .errors import ConsistencyError, DegeneratePoint
from .roots import ParabolicSubgroup
from .taylor import _elementary, _graded_division

_F = Fraction
_LABEL_BOUND = 20


class HomogeneousSpace:
    """The projective manifold G/P attached to a parabolic subgroup."""

    def __init__(self, parabolic: ParabolicSubgroup):
        self.parabolic = parabolic
        self.root_system = parabolic.root_system
        self.ambient_dim = self.root_system.ambient_dim
        self.tangent_weights = list(parabolic.nilradical_roots)
        self._chern = None
        self._todd = None
        self._chern_numbers = {}  # ci.chern_numbers' table, by sorted degrees

    def __repr__(self):
        return (f"HomogeneousSpace({self.root_system.type_name}, "
                f"crossed={list(self.parabolic.crossed)})")

    def dimension(self):
        return len(self.tangent_weights)

    def tangent_bundle(self):
        return bundles.EquivariantVectorBundle(self, self.tangent_weights)

    def cotangent_bundle(self):
        return self.tangent_bundle().dual()

    def chern_classes(self):
        """[c_0, ..., c_d] of the tangent bundle."""
        if self._chern is None:
            self._chern = self.tangent_bundle().chern_classes()
        return self._chern

    def todd_classes(self):
        """Graded components [td_0, ..., td_d] of the Todd class."""
        if self._todd is None:
            self._todd = self.tangent_bundle().todd_classes()
        return self._todd

    # ----- localization ---------------------------------------------------

    # integrals localize at the fixed points of the ambient space, weighted
    # by the bundle whose section cuts the manifold out: G/P itself, none
    section = ()

    @property
    def ambient(self):
        return self

    def fixed_point_count(self):
        """|W^P|, from the closed form, without enumerating the points."""
        return self.parabolic.fixed_point_count()

    def localization_sum(self, point, integrands, section=()):
        """Fixed-point sums at one point, one total per integrand.

        At each fixed point w the point moves to D A_w p by the integer
        rows rep.scaled = D A_w; every top-degree total is homogeneous of
        degree 0 in the point, so D cancels.  The tangent Chern roots are
        <alpha, D A_w p>, and the submanifold X cut out by a section of the
        bundle with weights `section` (G/P itself when empty) has
        c(TX) = c(TM)/c(E) as numbers [c_0, ..., c_dim X] and the weight
        e(E)/e(TM).  Each integrand(moved, chern) returns the factors of
        its class at w, and its total gains their product times the
        weight.  Exact for int or Fraction coordinates; raises
        DegeneratePoint on a root hyperplane, where localize never draws.
        """
        dim = self.dimension() - len(section)
        section = [beta.coords for beta in section]
        totals = [0] * len(integrands)
        for rep in self.parabolic.coset_representatives():
            moved = tuple(sum(r * p for r, p in zip(row, point))
                          for row in rep.scaled)
            roots = [sum(a * m for a, m in zip(alpha.coords, moved))
                     for alpha in self.tangent_weights]
            euler = prod(roots)
            if euler == 0:
                raise DegeneratePoint("point lies on a root hyperplane")
            chern = _elementary(roots, dim)
            weight = 1 / euler
            if section:
                bundle_roots = [sum(b * m for b, m in zip(beta, moved))
                                for beta in section]
                chern = _graded_division(chern, _elementary(bundle_roots, dim),
                                         dim)
                weight *= prod(bundle_roots)
            for i, integrand in enumerate(integrands):
                totals[i] += prod(integrand(moved, chern), start=weight)
        return totals

    def integrate(self, f, rng=None):
        """Integral of the top-degree component of f over the manifold, a
        Fraction computed by localize at two dominant integer points
        (ConsistencyError unless equal)."""
        top = f.graded_component(self.dimension())
        integrands = [lambda moved, chern: (top.evaluate(moved),)] if top else []
        values = localize(self, integrands, rng)
        return values[0] if values else _F(0)


def localize(manifold, integrands, rng=None):
    """Integrals over a G/P or a complete intersection in one, one per
    integrand of localization_sum: the exact sums at the two dominant
    points RootSystem.dominant_point builds from random labels (module
    docstring), which must agree; ConsistencyError otherwise.  A
    second label vector proportional to the first gets its first label
    raised by 1, and with every label >= 1 is then not proportional in
    rank >= 2; rank 1 has one ray, and the check compares a sum with itself."""
    if not integrands:
        return []
    space = manifold.ambient
    rs = space.root_system
    rng = rng if rng is not None else random.Random()
    a, b = ([rng.randint(1, _LABEL_BOUND) for _ in range(rs.rank)]
            for _ in range(2))
    if all(x * b[0] == y * a[0] for x, y in zip(a, b)):
        b[0] += 1
    first, second = (space.localization_sum(rs.dominant_point(labels),
                                            integrands, manifold.section)
                     for labels in (a, b))
    if first != second:
        raise ConsistencyError(
            f"localization sum not constant between points: {first} != {second}")
    return first


def homogeneous_space(spec, crossed):
    """HomogeneousSpace from a type spec like 'A4' and crossed nodes."""
    from .roots import parabolic
    return HomogeneousSpace(parabolic(spec, crossed))
