"""Sparse polynomials in the ambient coordinates x0..x_{n-1}.

Cohomology classes of a homogeneous space are represented by polynomial
lifts in the Chern roots of the ambient torus; they are never reduced
modulo relations, since every computation ends in evaluation at explicit
points.  Coefficients are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput
from .render import _join, _term_body
from .taylor import _power

_F = Fraction


def _clean(coeffs):
    return {e: c for e, c in coeffs.items() if c}


class CohomologyClass:
    """Polynomial in n variables, stored as exponent-tuple -> coefficient."""

    __slots__ = ("n", "c")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.c = _clean(coeffs or {})

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, value):
        value = _F(value)
        return cls(n, {(0,) * n: value} if value else {})

    @classmethod
    def one(cls, n):
        return cls.constant(n, 1)

    @classmethod
    def linear_form(cls, weight):
        """The class Sum_i w_i x_i attached to a torus weight."""
        n = len(weight)
        coeffs = {}
        for i, w in enumerate(weight):
            if w:
                e = [0] * n
                e[i] = 1
                coeffs[tuple(e)] = _F(w)
        return cls(n, coeffs)

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return (isinstance(other, CohomologyClass) and self.n == other.n
                and self.c == other.c)

    def __hash__(self):
        return hash((self.n, frozenset(self.c.items())))

    def graded_component(self, d):
        return CohomologyClass(self.n, {e: c for e, c in self.c.items() if sum(e) == d})

    def truncate(self, max_degree):
        return CohomologyClass(self.n, {e: c for e, c in self.c.items()
                                        if sum(e) <= max_degree})

    def _check(self, other):
        if self.n != other.n:
            raise InvalidInput("mixed ambient dimensions")

    def __add__(self, other):
        if not isinstance(other, CohomologyClass):
            return self + CohomologyClass.constant(self.n, other)
        self._check(other)
        out = dict(self.c)
        for e, c in other.c.items():
            out[e] = out.get(e, _F(0)) + c
        return CohomologyClass(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return CohomologyClass(self.n, {e: -c for e, c in self.c.items()})

    def __sub__(self, other):
        if not isinstance(other, CohomologyClass):
            return self - CohomologyClass.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + CohomologyClass.constant(self.n, other)

    def times(self, other, max_degree=None):
        """Product, optionally discarding terms above max_degree."""
        self._check(other)
        out = {}
        for ea, ca in self.c.items():
            da = sum(ea)
            for eb, cb in other.c.items():
                if max_degree is not None and da + sum(eb) > max_degree:
                    continue
                e = tuple(a + b for a, b in zip(ea, eb))
                out[e] = out.get(e, _F(0)) + ca * cb
        return CohomologyClass(self.n, out)

    def __mul__(self, other):
        if isinstance(other, CohomologyClass):
            return self.times(other)
        s = _F(other)
        return CohomologyClass(self.n, {e: c * s for e, c in self.c.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = _F(scalar)
        return CohomologyClass(self.n, {e: c / s for e, c in self.c.items()})

    def __pow__(self, k, max_degree=None):
        return _power(self, k, CohomologyClass.one(self.n),
                      lambda a, b: a.times(b, max_degree))

    def power(self, k, max_degree=None):
        return self.__pow__(k, max_degree)

    def evaluate(self, point):
        """Value at a point: an exact Fraction for int and Fraction
        coordinates."""
        if len(point) != self.n:
            raise InvalidInput("point has the wrong dimension")
        total = _F(0)
        for e, c in self.c.items():
            term = c
            for p, k in zip(point, e):
                if k:
                    term = term * p ** k
            total += term
        return total

    def __str__(self):
        if not self.c:
            return "0"
        items = sorted(self.c.items(), key=lambda t: (sum(t[0]), t[0][::-1]))
        chunks = []
        for e, coeff in items:
            parts = [f"x{i}" if k == 1 else f"x{i}^{k}"
                     for i, k in enumerate(e) if k]
            chunks.append((-1 if coeff < 0 else 1, _term_body(coeff, *parts)))
        return _join(chunks)

    def __repr__(self):
        return str(self)
