"""Weak Jacobi forms of even weight and integral or half-integral index.

Generators over the ring of modular forms (Eichler-Zagier, *The Theory of
Jacobi Forms*, Thm 9.3), each integral and built on int rows by
qseries._product_series, with
P = prod_n (1 - q^n y)^2 (1 - q^n y^-1)^2 / (1 - q^n)^4:

* ``phi_m2_1``  weight -2, index 1:  (y - 2 + y^-1) P
* ``phi_0_1``   weight  0, index 1:  phi_m2_1 (1 + 12 S) + 12 P, with
  S = sum_n sum_{d|n} d (y^d - 2 + y^-d) q^n
* ``phi_0_3half`` weight 0, index 3/2, returned times its y^{1/2} prefactor:
  (1 + y) prod_n (1 - q^n y^2)(1 - q^n y^-2) / ((1 - q^n y)(1 - q^n y^-1))

No half-integral power of q occurs in any of them.

Bases are monomials E4^a E6^b phi_0_1^c phi_m2_1^d with
4a + 6b - 2d = weight and c + d = index, with the extra phi_0_3half factor
in the odd double-index case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInput, OddWeight, integer
from .qseries import LaurentY, QYSeries, _product_series, _rows, eisenstein
from .taylor import _row_reduce

# (s, e): the factor (1 - q^n y^s)^e for every n >= 1
_P_FACTORS = ((1, 2), (-1, 2), (0, -4))
_HALF_FACTORS = ((2, 1), (-2, 1), (1, -1), (-1, -1))
_Y_MINUS_2 = {-1: 1, 0: -2, 1: 1}  # y - 2 + y^-1, as int cells


@lru_cache(maxsize=None)
def phi_0_1(prec):
    """The weight 0, index 1 generator, (y - 2 + y^-1)(1 + 12 S) P + 12 P.

    Its q^0 coefficient is y^-1 + 10 + y.
    """
    rows = _rows({-1: 1, 0: 10, 1: 1}, prec)
    for n, row in enumerate(rows[1:], start=1):
        # row n of (y - 2 + y^-1)(1 + 12 S) is 12 S_n (y - 2 + y^-1)
        for d in range(1, n + 1):
            if n % d == 0:
                for a, u in ((d, d), (0, -2 * d), (-d, d)):
                    for b, v in _Y_MINUS_2.items():
                        row[a + b] = row.get(a + b, 0) + 12 * u * v
    return _product_series(rows, _P_FACTORS)


@lru_cache(maxsize=None)
def phi_m2_1(prec):
    """The weight -2, index 1 generator, (y - 2 + y^-1) P.

    Its q^0 coefficient is y^-1 - 2 + y.
    """
    return _product_series(_rows(_Y_MINUS_2, prec), _P_FACTORS)


@lru_cache(maxsize=None)
def phi_0_3half(prec):
    """y^{1/2} times the weight 0, index 3/2 generator, an honest Laurent
    series in y; its q^0 coefficient is 1 + y."""
    return _product_series(_rows({0: 1, 1: 1}, prec), _HALF_FACTORS)


@dataclass(frozen=True)
class JacobiBasisElement:
    """One monomial E4^e4 E6^e6 phi_0_1^c phi_m2_1^d, possibly times
    y^{1/2} phi_0_3half, expanded as a QYSeries; its weight and double
    index are read off the exponents."""

    e4: int
    e6: int
    phi01: int
    phim21: int
    half_factor: bool
    series: QYSeries

    @property
    def weight(self):
        return 4 * self.e4 + 6 * self.e6 - 2 * self.phim21

    @property
    def double_index(self):
        return 2 * (self.phi01 + self.phim21) + (3 if self.half_factor else 0)

    def label(self):
        parts = []
        if self.half_factor:
            parts.append("y^(1/2)*phi_{0,3/2}")
        for name, e in (("phi_{0,1}", self.phi01), ("phi_{-2,1}", self.phim21),
                        ("E4", self.e4), ("E6", self.e6)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def _monomial_exponents(weight, index):
    """(e4, e6, c, d) solutions, ordered by descending phi_0_1 exponent,
    then descending E4 exponent."""
    out = []
    for c in range(index, -1, -1):
        d = index - c
        w = weight + 2 * d
        if w < 0:
            continue
        sols = []
        for b in range(w // 6 + 1):
            rem = w - 6 * b
            if rem % 4 == 0:
                sols.append((rem // 4, b))
        for a, b in sorted(sols, reverse=True):
            out.append((a, b, c, d))
    return out


def basis_integral(weight, index, prec=7):
    """Basis of weak Jacobi forms of even weight and integral index >= 0."""
    weight, index = integer(weight, "a weight"), integer(index, "an index")
    prec = integer(prec, "a precision")
    if weight % 2:
        raise OddWeight(f"no odd-weight basis: weight {weight}")
    if index < 0:
        raise InvalidInput("index must be nonnegative")
    gens = {
        "e4": lambda: eisenstein(4, prec),
        "e6": lambda: eisenstein(6, prec),
        "phi01": lambda: phi_0_1(prec),
        "phim21": lambda: phi_m2_1(prec),
    }
    powers = {}

    def power(name, e):
        key = (name, e)
        if key not in powers:
            powers[key] = gens[name]() if e == 1 else power(name, e - 1) * power(name, 1)
        return powers[key]

    elements = []
    for a, b, c, d in _monomial_exponents(weight, index):
        series = QYSeries.one(2 * prec)
        for name, e in (("phi01", c), ("phim21", d), ("e4", a), ("e6", b)):
            if e:
                series = series * power(name, e)
        elements.append(JacobiBasisElement(a, b, c, d, False, series))
    return elements


def basis_half_integral(weight, double_index, prec=7):
    """Basis for double_index halves of index; delegates when it is even.

    Odd double indices below 3 have no weak forms and give the empty list.
    """
    weight, prec = integer(weight, "a weight"), integer(prec, "a precision")
    double_index = integer(double_index, "a double index")
    if weight % 2:
        raise OddWeight(f"no odd-weight basis: weight {weight}")
    if double_index < 0:
        raise InvalidInput("double index must be nonnegative")
    if double_index % 2 == 0:
        return basis_integral(weight, double_index // 2, prec)
    if double_index < 3:
        return []
    half = phi_0_3half(prec)
    out = []
    for el in basis_integral(weight, (double_index - 3) // 2, prec):
        out.append(JacobiBasisElement(el.e4, el.e6, el.phi01, el.phim21, True,
                                      half * el.series))
    return out


def shifted_basis(dim, prec):
    """y^{floor(dim/2)} times each weight-0 weak Jacobi form of index dim/2,
    in basis_half_integral's order, as QYSeries to q^prec: the
    normalization of the elliptic genus of a dim-fold, whose y-exponents
    are integral (Calabi-Yau genera lie in their span)."""
    shift = dim // 2
    return [QYSeries(e.series.prec2,
                     {k2: lau.shift(shift) for k2, lau in e.series.c.items()})
            for e in basis_half_integral(0, dim, prec)]


def solve(target, elements):
    """(c, rank) up to the common precision of the operands: rank is the
    rank of the elements' coefficients there, and c are exact rationals
    with target = sum c_i * elements_i on every coefficient there, free
    columns set to 0, or None when the target is outside the span."""
    prec2 = _common_prec2(target, elements)
    coords = set()
    for s in [target] + list(elements):
        for k2, lau in s.c.items():
            if k2 <= prec2:
                coords.update((k2, e) for e in lau.c)
    coords = sorted(coords)
    rows = []
    for k2, e in coords:
        row = [el.c.get(k2, LaurentY()).c.get(e, Fraction(0)) for el in elements]
        row.append(target.c.get(k2, LaurentY()).c.get(e, Fraction(0)))
        rows.append(row)
    n = len(elements)
    pivots = _row_reduce(rows, n)
    rank = len(pivots)
    if any(row[-1] for row in rows[rank:]):
        return None, rank
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = rows[i][-1]
    return sol, rank


def _common_prec2(target, elements):
    return min([target.prec2] + [e.prec2 for e in elements])


def linear_fit(target, elements):
    """Exact rationals c with target = sum c_i * elements_i, else None.

    Compares every retained coefficient of the operands, so a successful
    fit is a proof of membership up to the common precision.
    """
    sol, _ = solve(target, elements)
    if sol is None:
        return None
    # verify, which also catches free columns that were genuinely needed
    prec2 = _common_prec2(target, elements)
    acc = QYSeries.zero(prec2)
    for c, el in zip(sol, elements):
        acc = acc + el.truncate(prec2) * c
    return sol if acc == target.truncate(prec2) else None
