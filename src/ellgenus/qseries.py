"""Exact truncated q-series whose coefficients are Laurent polynomials in y.

Every q-exponent is an integer.  Keys are still doubled, the key k
carrying the coefficient of q^(k/2), because ``QYSeries(prec2, coeffs)``
with doubled keys is the public constructor form; odd keys are rejected.
Outside the package only the benchmark's workloads and a few tests still
build series with it (``from_q_dict`` takes integer q); inside it, genus
and jacobi still pass doubled precisions.  Every view out of a series
(``coefficient``, ``terms``, ``q_order`` and its text) is in integer q,
and the text comes from the one series renderer, ``render.format_series``.
A series remembers its precision (the largest retained doubled
exponent).  Arithmetic truncates to the smaller operand precision;
division is one long-division pass over the q-rows.  The universal
genus does its series arithmetic on numerators packed into one int each
(PackedLayout, Kronecker substitution): a product is one big-int product
and one mask, a linear combination one multiply-add per term, and its
QYSeries are built only from the unpacked cells.  Products
prod_n (1 - q^n y^s)^e (eta and the Jacobi generators) are integral and
are built by _product_series in place on int rows, with no Fraction.

>>> one = LaurentY.const(1)
>>> s = QYSeries(6, {0: one, 2: -one})        # 1 - q at precision q^3
>>> print((QYSeries.one(6) / s))
1 + q + q^2 + q^3 + O(q^4)
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .errors import DivisionByNonUnit, InvalidInput, PrecisionZero, integer
from .render import format_laurent, format_series
from .taylor import _power

_ZERO = Fraction(0)


class LaurentY:
    """Laurent polynomial in y over exact rationals, as a sparse map."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            try:
                for e, v in coeffs.items():
                    v = v if isinstance(v, Fraction) else Fraction(v)
                    if v:
                        c[index(e)] = v
            except TypeError:
                raise InvalidInput(f"a y-exponent must be an integer and its "
                                   f"coefficient rational, not {e!r}: {v!r}") from None
        self.c = c

    @classmethod
    def const(cls, value):
        return cls({0: Fraction(value)})

    @classmethod
    def y_pow(cls, exponent, coeff=1):
        return cls({exponent: Fraction(coeff)})

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def monomial(self):
        """Return (exponent, coefficient) if this is a single term, else None."""
        if len(self.c) != 1:
            return None
        ((e, v),) = self.c.items()
        return e, v

    def __eq__(self, other):
        if isinstance(other, LaurentY):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self == LaurentY.const(other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentY.const(other)
        if not isinstance(other, LaurentY):
            return NotImplemented
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, _ZERO) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        out = LaurentY.__new__(LaurentY)
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentY.__new__(LaurentY)
        out.c = {e: -v for e, v in self.c.items()}
        return out

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentY) else LaurentY.const(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return LaurentY()
            out = LaurentY.__new__(LaurentY)
            out.c = {e: v * f for e, v in self.c.items()}
            return out
        if not isinstance(other, LaurentY):
            return NotImplemented
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = c.get(e, _ZERO) + v1 * v2
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        out = LaurentY.__new__(LaurentY)
        out.c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        return _power(self, k, _laurent_one())

    def scale_exponents(self, s):
        """Substitute y -> y^s for a nonzero integer s."""
        if s == 0:
            raise InvalidInput("y-scale must be nonzero")
        return LaurentY({e * s: v for e, v in self.c.items()})

    def shift(self, k):
        """Multiply by y^k."""
        return LaurentY({e + k: v for e, v in self.c.items()})

    def reciprocal_y(self):
        """Substitute y -> 1/y."""
        return LaurentY({-e: v for e, v in self.c.items()})

    def at_one(self):
        """Evaluate at y = 1."""
        return sum(self.c.values(), _ZERO)

    def evaluate(self, value):
        """Value at y = value: exact for int/Fraction y, float for float y."""
        if isinstance(value, int):
            value = Fraction(value)
        if not self.c:
            return _ZERO if isinstance(value, Fraction) else 0.0
        if not value and min(self.c) < 0:
            raise ZeroDivisionError("negative y-exponent at y = 0")
        return sum(v * value**e for e, v in self.c.items())

    def support(self):
        return sorted(self.c)

    def __str__(self):
        return format_laurent(sorted(self.c.items()))

    def __repr__(self):
        return f"LaurentY({self})"


def _laurent_one():
    return LaurentY.const(1)


class QYSeries:
    """Series in q truncated at doubled exponent ``prec2``.

    ``c`` maps even doubled q-exponents to LaurentY coefficients.
    """

    __slots__ = ("prec2", "c")

    def __init__(self, prec2, coeffs=None):
        c, k = {}, prec2
        try:
            prec2 = index(prec2)
            if prec2 < 0:
                raise InvalidInput("precision must be nonnegative")
            for k, v in (coeffs or {}).items():
                k = index(k)
                if k < 0:
                    raise InvalidInput("negative q-exponent")
                if k > prec2:
                    continue
                if k % 2:
                    raise InvalidInput("odd doubled exponent: q-exponents are integral")
                if not isinstance(v, LaurentY):
                    v = LaurentY({0: v})
                if v:
                    c[k] = v
        except TypeError:
            raise InvalidInput(f"a precision or q-exponent must be an integer, "
                               f"not {k!r}") from None
        self.prec2, self.c = prec2, c

    @classmethod
    def zero(cls, prec2):
        return cls(prec2)

    @classmethod
    def one(cls, prec2):
        return cls(prec2, {0: _laurent_one()})

    @classmethod
    def const(cls, value, prec2):
        v = value if isinstance(value, LaurentY) else LaurentY.const(value)
        return cls(prec2, {0: v})

    @classmethod
    def from_q_dict(cls, prec, coeffs):
        """Build from integer q-exponents (undoubled)."""
        return cls(2 * prec, {2 * k: v for k, v in coeffs.items()})

    @property
    def q_order(self):
        return self.prec2 // 2

    def coefficient(self, q):
        """Coefficient of q^q for integer q."""
        if 2 * q > self.prec2:
            raise PrecisionZero(f"q^{q} beyond retained precision")
        return self.c.get(2 * q, LaurentY())

    def valuation2(self):
        """Smallest doubled exponent with nonzero coefficient, None if zero."""
        return min(self.c) if self.c else None

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        if not isinstance(other, QYSeries):
            return NotImplemented
        return self.prec2 == other.prec2 and self.c == other.c

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, LaurentY)):
            return QYSeries.const(other, self.prec2)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, QYSeries):
            return NotImplemented
        prec2 = min(self.prec2, other.prec2)
        c = {k: v for k, v in self.c.items() if k <= prec2}
        for k, v in other.c.items():
            if k > prec2:
                continue
            w = c.get(k)
            w = v if w is None else w + v
            if w:
                c[k] = w
            else:
                c.pop(k, None)
        out = QYSeries.__new__(QYSeries)
        out.prec2, out.c = prec2, c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = QYSeries.__new__(QYSeries)
        out.prec2 = self.prec2
        out.c = {k: -v for k, v in self.c.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentY)):
            if not other:
                return QYSeries.zero(self.prec2)
            c = {}
            for k, v in self.c.items():
                w = v * other
                if w:
                    c[k] = w
            out = QYSeries.__new__(QYSeries)
            out.prec2, out.c = self.prec2, c
            return out
        if not isinstance(other, QYSeries):
            return NotImplemented
        prec2 = min(self.prec2, other.prec2)
        c = {}
        for k1, v1 in self.c.items():
            if k1 > prec2:
                continue
            for k2, v2 in other.c.items():
                k = k1 + k2
                if k > prec2:
                    continue
                w = c.get(k)
                p = v1 * v2
                w = p if w is None else w + p
                if w:
                    c[k] = w
                else:
                    c.pop(k, None)
        out = QYSeries.__new__(QYSeries)
        out.prec2, out.c = prec2, c
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, QYSeries.one(self.prec2))

    def __truediv__(self, other):
        other = self._coerce(other)
        if not isinstance(other, QYSeries):
            return NotImplemented
        v = other.valuation2()
        if v is None:
            if self.prec2 == 0 and other.prec2 == 0:
                raise PrecisionZero("division needs coefficients beyond precision 0")
            raise DivisionByNonUnit("division by a series with no visible terms")
        lead = other.c[v].monomial()
        if lead is None:
            raise DivisionByNonUnit("lowest q-coefficient of divisor is not a y-monomial")
        if not self.is_zero() and self.valuation2() < v:
            raise DivisionByNonUnit("divisor q-valuation exceeds dividend q-valuation")
        prec2 = min(self.prec2, other.prec2) - v
        if self.is_zero():
            return QYSeries.zero(max(prec2, 0))
        e0, c0 = lead
        inv_lead = LaurentY.y_pow(-e0, 1 / c0)
        # long division with the valuations shifted out: quotient row k is
        # inv_lead * (a_k - sum_{0<j<=k} b_j quotient_{k-j})
        a = {k - v: val for k, val in self.c.items() if k - v <= prec2}
        b = [(k - v, val) for k, val in other.c.items() if 0 < k - v <= prec2]
        c = {}
        for k in range(0, prec2 + 1, 2):
            acc = a.get(k, LaurentY())
            for j, bj in b:
                if j <= k and k - j in c:
                    acc = acc - bj * c[k - j]
            if acc:
                c[k] = inv_lead * acc
        out = QYSeries.__new__(QYSeries)
        out.prec2, out.c = prec2, c
        return out

    def truncate(self, prec2):
        if prec2 >= self.prec2:
            return self
        out = QYSeries.__new__(QYSeries)
        out.prec2 = prec2
        out.c = {k: v for k, v in self.c.items() if k <= prec2}
        return out

    def specialize_y1(self):
        """Set y = 1 in every coefficient."""
        return QYSeries(self.prec2, {k: LaurentY.const(v.at_one()) for k, v in self.c.items()})

    def terms(self):
        """Sorted (q-exponent, coefficient) pairs."""
        return sorted((k // 2, v) for k, v in self.c.items())

    def __str__(self):
        terms = [(q, sorted(v.c.items())) for q, v in self.terms()]
        return format_series(terms, self.q_order)

    def __repr__(self):
        return f"QYSeries({self})"


class PackedLayout:
    """Kronecker substitution for the numerators of series to q^order whose
    row q has its y-exponents in [-q, span + q]: cell (q, y) is digit
    q * width + y of one int in base 2^bits, with signed digits.  With
    width = span + 2 * order + 2, rows past q^order of a product of two
    such ints (their spans adding up to at most span) start above the size
    digits of rows 0..order, so mul() truncates by one mask and keeps the
    digits signed, 0 only for the zero series, while each fits its range;
    bits, a multiple of 8 for whole-byte reads, is fixed before any
    packing from the caller's bound on every cell."""

    __slots__ = ("order", "width", "bits", "size", "_half", "_mask", "_cells")

    def __init__(self, order, span, bound):
        self.order, self.bits = order, _bits_for(bound)
        self.width = width = span + 2 * order + 2
        self.size = order * width + span + order + 1
        self._mask = (1 << self.bits * self.size) - 1
        self._half = self._mask // ((1 << self.bits) - 1) << (self.bits - 1)
        # the cell (q, y) of each digit
        self._cells = [(q, i - q * width) for i in range(self.size)
                       for q in [(i + order) // width]]

    def pack(self, cells):
        """The int of ((q, y), int) cells."""
        return sum(v << self.bits * (q * self.width + y) for (q, y), v in cells)

    def mul(self, a, b):
        """The product of two packed series, truncated after q^order."""
        return ((a * b + self._half) & self._mask) - self._half

    def cells(self, x):
        """The nonzero ((q, y), int) cells of rows 0..order of x."""
        nb, h = self.bits // 8, 1 << (self.bits - 1)
        data = ((x + self._half) & self._mask).to_bytes(self.size * nb, "little")
        digits = [int.from_bytes(data[i:i + nb], "little") - h
                  for i in range(0, len(data), nb)]
        return [(cell, v) for cell, v in zip(self._cells, digits) if v]

    def series(self, x, den):
        """The QYSeries x / den."""
        out = QYSeries(2 * self.order)
        for (q, y), v in self.cells(x):
            out.c.setdefault(2 * q, LaurentY()).c[y] = Fraction(v, den)
        return out


def _bits_for(bound):
    """The least multiple of 8 bits whose signed digits hold |v| <= bound."""
    return -(-(bound.bit_length() + 1) // 8) * 8


def _product_series(rows, factors):
    """QYSeries of rows (row k: the coefficient {y-exponent: int} of q^k)
    times prod_{n>=1} prod_{(s, e) in factors} (1 - q^n y^s)^e, truncated
    after q^(len(rows) - 1).

    Each factor is applied in place: multiplying by (1 - q^n y^s) is the
    descending pass row[k] -= y^s row[k-n], dividing by it the ascending
    pass row[k] += y^s row[k-n].  Each row becomes a LaurentY at the end.
    """
    prec = len(rows) - 1
    for n in range(1, prec + 1):
        for s, e in factors:
            ks = range(prec, n - 1, -1) if e > 0 else range(n, prec + 1)
            sign = -1 if e > 0 else 1
            for _ in range(abs(e)):
                for k in ks:
                    row = rows[k]
                    for y, v in rows[k - n].items():
                        y += s
                        row[y] = row.get(y, 0) + sign * v
    return QYSeries(2 * prec, {2 * k: LaurentY(row) for k, row in enumerate(rows)})


def _rows(q0, prec):
    """Int q-rows 0..prec of q0 + O(q^(prec+1)), q0 {y-exponent: int}."""
    return [dict(q0)] + [{} for _ in range(_precision(prec))]


def _precision(prec):
    """prec as an int; InvalidInput unless it is an integer >= 0."""
    prec = integer(prec, "a precision")
    if prec < 0:
        raise InvalidInput("precision must be nonnegative")
    return prec


def eta_product(prec):
    """prod_{n>=1} (1 - q^n) to order q^prec, the 24th-root-free eta.

    >>> print(eta_product(5))
    1 - q - q^2 + q^5 + O(q^6)
    """
    return _product_series(_rows({0: 1}, prec), ((0, 1),))


def _sigma(k, n):
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d**k
    return total


def eisenstein(k, prec):
    """Normalized Eisenstein series E_4 or E_6 to order q^prec.

    >>> print(eisenstein(6, 2))
    1 - 504*q - 16632*q^2 + O(q^3)
    """
    prec = _precision(prec)
    if k == 4:
        scale, power = 240, 3
    elif k == 6:
        scale, power = -504, 5
    else:
        raise InvalidInput("only weights 4 and 6 are provided")
    coeffs = {0: _laurent_one()}
    for n in range(1, prec + 1):
        coeffs[2 * n] = LaurentY.const(scale * _sigma(power, n))
    return QYSeries(2 * prec, coeffs)
