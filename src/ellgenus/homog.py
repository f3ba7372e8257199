"""Homogeneous spaces G/P with localization-based integration.

A HomogeneousSpace carries the tangent weights (the positive roots outside
the Levi), Chern/Todd classes as polynomial representatives in the ambient
coordinates, and an integral computed by the Atiyah-Bott fixed-point
formula: a sum over Weyl coset representatives of the integrand divided by
the product of the tangent weights, evaluated at a generic point.

The sum is a constant function of the point, so exact mode evaluates it at
a random integer point, and at a second independent point that must give
the same value (ConsistencyError otherwise), instead of simplifying
rational functions symbolically.  draw_sum and two_point_sum hold that
protocol for any per-point sum.

Chern numbers take the numeric fixed-point path of ci.chern_numbers, which
evaluates the Chern roots at each fixed point and never builds a
polynomial; integrate(f) on a polynomial class is kept for arbitrary
integrands such as the listed Chern and Todd classes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

from . import bundles
from .errors import ConsistencyError, DegeneratePoint, FloatUnstable
from .roots import ParabolicSubgroup

_F = Fraction
_POINT_BOUND = 10 ** 6
_MAX_DRAWS = 32
_FLOAT_TOL = 1e-6


class HomogeneousSpace:
    """The projective manifold G/P attached to a parabolic subgroup."""

    def __init__(self, parabolic: ParabolicSubgroup):
        self.parabolic = parabolic
        self.root_system = parabolic.root_system
        self.ambient_dim = self.root_system.ambient_dim
        self.tangent_weights = list(parabolic.nilradical_roots)
        self._chern = None
        self._todd = None

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

    def fixed_point_count(self):
        """|W^P|, from the closed form, without enumerating the points."""
        return self.parabolic.fixed_point_count()

    def localization_sum(self, f, point):
        """The raw fixed-point sum of f at one point, with no degree
        selection: sum over representatives w of f(A_w p) / prod alpha(A_w p).

        Exact for Fraction coordinates, floating point otherwise; raises
        DegeneratePoint when the point lies on a reflected root hyperplane.
        """
        exact = all(isinstance(p, Fraction) for p in point)
        total = _F(0) if exact else 0.0
        for moved, _, euler in self.fixed_points(point):
            total += f.evaluate(moved) / euler
        return total

    def fixed_points(self, point):
        """At each fixed point w: the moved point A_w p, the tangent Chern
        roots <alpha, A_w p> and their product, the Euler class of the
        tangent space at w.  Raises DegeneratePoint when a root vanishes."""
        for rep in self.parabolic.coset_representatives():
            moved = tuple(sum(r * p for r, p in zip(row, point))
                          for row in rep.matrix)
            roots = [sum(a * m for a, m in zip(alpha.coords, moved))
                     for alpha in self.tangent_weights]
            euler = prod(roots)
            if euler == 0:
                raise DegeneratePoint("point lies on a root hyperplane")
            yield moved, roots, euler

    def integrate_float_raw(self, f, rng=None):
        """Float-mode fixed-point sum of the top-degree part of f,
        before any rounding."""
        top = f.graded_component(self.dimension())
        if top.is_zero():
            return 0.0
        rng = rng if rng is not None else random.Random()
        return draw_sum(lambda point: self.localization_sum(top, point),
                        self.ambient_dim, rng, exact=False)

    def integrate(self, f, mode="exact", rng=None):
        """Integral over G/P of the degree-d component of f.

        exact mode returns a Fraction computed at two independent generic
        integer points (ConsistencyError unless equal); float mode
        evaluates at a random real point and rounds to a nearby
        small-denominator rational, raising FloatUnstable when no such
        rational is close enough.
        """
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown integration mode {mode!r}")
        if mode == "float":
            value = self.integrate_float_raw(f, rng)
            return round_float(value)
        top = f.graded_component(self.dimension())
        if top.is_zero():
            return _F(0)
        rng = rng if rng is not None else random.Random()
        return two_point_sum(lambda point: self.localization_sum(top, point),
                             self.ambient_dim, rng)


def draw_sum(point_sum, n, rng, exact=True):
    """point_sum at the first usable random point with n coordinates:
    integers (as Fractions) in exact mode, uniform floats otherwise.  A
    point on a root hyperplane (DegeneratePoint) is redrawn, at most
    _MAX_DRAWS times."""
    for _ in range(_MAX_DRAWS):
        if exact:
            point = tuple(_F(rng.randint(-_POINT_BOUND, _POINT_BOUND))
                          for _ in range(n))
        else:
            point = tuple(rng.uniform(-_POINT_BOUND, _POINT_BOUND)
                          for _ in range(n))
        try:
            return point_sum(point)
        except DegeneratePoint:
            continue
    raise DegeneratePoint(f"no usable point in {_MAX_DRAWS} draws")


def two_point_sum(point_sum, n, rng):
    """Exact point_sum at two independent points.  A localization sum does
    not depend on the point, so the two values must agree; ConsistencyError
    otherwise."""
    first = draw_sum(point_sum, n, rng)
    second = draw_sum(point_sum, n, rng)
    if first != second:
        raise ConsistencyError(
            f"localization sum not constant between points: {first} != {second}")
    return first


def round_float(value):
    """Nearest integer when within tolerance, else a small-denominator
    rational; FloatUnstable when neither is close enough."""
    tol = _FLOAT_TOL * max(1.0, abs(value))
    nearest = round(value)
    if abs(nearest - value) < tol:
        return _F(nearest)
    candidate = _F(value).limit_denominator(10 ** 6)
    if abs(float(candidate) - value) < tol:
        return candidate
    raise FloatUnstable(f"no stable rational near {value!r}")


def homogeneous_space(spec, crossed):
    """HomogeneousSpace from a type spec like 'A4' and crossed nodes."""
    from .roots import parabolic
    return HomogeneousSpace(parabolic(spec, crossed))
