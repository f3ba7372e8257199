"""Coefficient lists in one grading variable.

A list [a_0, a_1, ...] holds the graded pieces of a truncated series; its
entries are numbers (ints or Fractions) or
homogeneous classes of any type with +, - and *.  The package uses two
operations on such lists everywhere: the elementary symmetric functions
of a list of roots (Chern classes, as classes or as numbers at a fixed
point) and graded division (adjunction c(TX) = c(TM)/c(E), and the Todd
and log-Todd series).  It also holds the one square-and-multiply loop
behind the powers of Laurent polynomials, q-series and classes, and the
Gauss-Jordan loop behind Jacobi fits (jacobi.solve).  This
module imports nothing from the package but its errors, so every layer
can use it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import InvalidInput

_F = Fraction


def _elementary(values, max_degree, zero=0):
    """[e_0, ..., e_max_degree] of a list of numbers or of linear classes;
    `zero` is the zero of their type, so e_0 is zero + 1."""
    e = [zero + 1] + [zero] * max_degree
    for i, x in enumerate(values):
        for k in range(min(i + 1, max_degree), 0, -1):
            e[k] += e[k - 1] * x
    return e


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


def _row_reduce(rows, ncols):
    """Gauss-Jordan elimination in place on rows of Fractions, pivoting on
    the first ncols columns.  Returns the pivot columns: row i then has its
    leading 1 in column pivots[i], and later rows are zero in them."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        d = rows[r][col]
        rows[r] = top = [v / d for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, top)]
        pivots.append(col)
    return pivots


def _power(base, k, one, times=lambda a, b: a * b):
    """base**k by square and multiply, starting from `one`; times(a, b)
    is the product, looked up on the operands when it is called."""
    if k < 0:
        raise InvalidInput("negative powers are not defined")
    result = one
    while k:
        if k & 1:
            result = times(result, base)
        k >>= 1
        if k:
            base = times(base, base)
    return result


def series_log(coeffs):
    """log of a series with constant term 1, via termwise integration of
    f'/f, the graded quotient of the derivative by the series."""
    if not coeffs or coeffs[0] != 1:
        raise InvalidInput("logarithm needs constant term 1")
    n = len(coeffs)
    deriv = [(k + 1) * coeffs[k + 1] for k in range(n - 1)]
    ratio = _graded_division(deriv, coeffs, n - 2)
    return [_F(0)] + [ratio[k - 1] / k for k in range(1, n)]


def todd_coefficients(order):
    """Coefficients of x / (1 - e^{-x}) up to x^order inclusive.

    >>> [str(c) for c in todd_coefficients(4)]
    ['1', '1/2', '1/12', '0', '-1/720']
    """
    # 1 divided by (1 - e^{-x}) / x = sum_{k>=0} (-1)^k x^k / (k+1)!
    base = [_F((-1) ** k, factorial(k + 1)) for k in range(order + 1)]
    return _graded_division([_F(1)] + [_F(0)] * order, base, order)


def log_todd_coefficients(order):
    """Coefficients of log(x / (1 - e^{-x})) up to x^order inclusive."""
    return series_log(todd_coefficients(order))
