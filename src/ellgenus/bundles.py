"""Completely reducible equivariant vector bundles as weight multisets.

Every characteristic class flows through the splitting principle: a bundle
is its multiset of torus weights (the Chern roots), and Chern classes,
Chern character and Todd classes are symmetric expressions in the
corresponding linear forms, truncated at the dimension of the base.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial

from .cohomology import CohomologyClass
from .errors import BaseMismatch, InvalidInput, WedgeTooLarge
from .roots import Weight
from .taylor import _elementary, todd_coefficients

_F = Fraction


class EquivariantVectorBundle:
    """Bundle on a homogeneous space, stored as its sorted weight multiset."""

    def __init__(self, base, weights):
        self.base = base
        self.weights = tuple(sorted(weights, key=lambda w: w.coords))

    @property
    def rank(self):
        return len(self.weights)

    def __repr__(self):
        return f"EquivariantVectorBundle(rank={self.rank} on {self.base!r})"

    def __eq__(self, other):
        return (isinstance(other, EquivariantVectorBundle)
                and _same_base(self.base, other.base)
                and self.weights == other.weights)

    def _require_same_base(self, other):
        if not _same_base(self.base, other.base):
            raise BaseMismatch("bundles live on different homogeneous spaces")

    # ----- constructions ---------------------------------------------------

    def dual(self):
        return EquivariantVectorBundle(self.base, [-w for w in self.weights])

    def direct_sum(self, other):
        self._require_same_base(other)
        return EquivariantVectorBundle(self.base, self.weights + other.weights)

    __add__ = direct_sum

    def tensor_product(self, other):
        self._require_same_base(other)
        return EquivariantVectorBundle(
            self.base, [u + v for u in self.weights for v in other.weights])

    __mul__ = tensor_product

    def symmetric_power(self, k):
        if k < 0:
            raise InvalidInput("negative symmetric power")
        sums = [_weight_sum(self.base, chosen)
                for chosen in combinations_with_replacement(self.weights, k)]
        return EquivariantVectorBundle(self.base, sums)

    def wedge_power(self, k):
        """Exterior power; k above the rank gives the rank-0 bundle
        (c = [1, 0, ...]), matching the reference outputs."""
        if k < 0:
            raise WedgeTooLarge(f"exterior power {k} cannot be formed")
        sums = [_weight_sum(self.base, chosen)
                for chosen in combinations(self.weights, k)]
        return EquivariantVectorBundle(self.base, sums)

    def determinant(self):
        return self.wedge_power(self.rank)

    # ----- characteristic classes ------------------------------------------

    def _linear_forms(self):
        return [CohomologyClass.linear_form(w) for w in self.weights]

    def total_chern_class(self):
        """prod (1 + x_w), truncated at the base dimension."""
        return sum(self.chern_classes())

    def chern_classes(self):
        """[c_0, ..., c_d]: the elementary symmetric functions of the
        linear forms, up to the base dimension."""
        return _elementary(self._linear_forms(), self.base.dimension(),
                           zero=CohomologyClass.zero(self.base.ambient_dim))

    def chern_character(self):
        """[ch_0, ..., ch_d]: graded pieces of sum of exp(x_w)."""
        dim = self.base.dimension()
        n = self.base.ambient_dim
        out = [CohomologyClass.constant(n, self.rank)]
        out += [CohomologyClass.zero(n) for _ in range(dim)]
        for form in self._linear_forms():
            power = CohomologyClass.one(n)
            for k in range(1, dim + 1):
                power = power.times(form, dim)
                if power.is_zero():
                    break
                out[k] = out[k] + power * _F(1, factorial(k))
        return out

    def todd_classes(self):
        """Graded pieces of prod x_w/(1-e^{-x_w}), truncated at the base dim."""
        dim = self.base.dimension()
        n = self.base.ambient_dim
        coeffs = todd_coefficients(dim)
        total = CohomologyClass.one(n)
        for form in self._linear_forms():
            factor = CohomologyClass.one(n)
            power = CohomologyClass.one(n)
            for k in range(1, dim + 1):
                power = power.times(form, dim)
                if power.is_zero():
                    break
                if coeffs[k]:
                    factor = factor + power * coeffs[k]
            total = total.times(factor, dim)
        return [total.graded_component(k) for k in range(dim + 1)]


def _same_base(a, b):
    return (a is b
            or (a.root_system.type_name == b.root_system.type_name
                and a.parabolic.crossed == b.parabolic.crossed))


def _weight_sum(base, weights):
    total = Weight([0] * base.ambient_dim)
    for w in weights:
        total = total + w
    return total


def irreducible_bundle(space, highest_weight):
    """Bundle induced by the irreducible Levi module with the given highest
    weight (fundamental-weight coordinates; crossed nodes may be negative)."""
    return completely_reducible_bundle(space, [highest_weight])


def completely_reducible_bundle(space, highest_weights):
    """Direct sum of irreducible bundles, one per listed highest weight."""
    weights = []
    for hw in highest_weights:
        mult = space.parabolic.weight_multiplicities(hw)
        for w, m in mult.items():
            weights.extend([w] * m)
    return EquivariantVectorBundle(space, weights)
