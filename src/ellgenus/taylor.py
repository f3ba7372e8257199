"""One-variable rational Taylor series, as plain coefficient lists.

All helpers work on lists [a_0, a_1, ...] of Fractions of a fixed length
and are only used to seed characteristic-class expansions (the Todd
series and its logarithm).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

_F = Fraction


def series_inverse(coeffs):
    """Multiplicative inverse of a series with nonzero constant term."""
    if not coeffs or not coeffs[0]:
        raise ZeroDivisionError("series has no constant term")
    n = len(coeffs)
    inv = [_F(0)] * n
    inv[0] = 1 / _F(coeffs[0])
    for k in range(1, n):
        s = sum(coeffs[j] * inv[k - j] for j in range(1, k + 1) if j < n)
        inv[k] = -inv[0] * s
    return inv


def series_log(coeffs):
    """log of a series with constant term 1, via termwise integration of f'/f."""
    if not coeffs or coeffs[0] != 1:
        raise ValueError("logarithm needs constant term 1")
    n = len(coeffs)
    deriv = [(k + 1) * coeffs[k + 1] for k in range(n - 1)]
    ratio_full = [_F(0)] * n
    inv = series_inverse(coeffs)
    for k in range(n - 1):
        ratio_full[k] = sum(deriv[j] * inv[k - j] for j in range(k + 1))
    out = [_F(0)] * n
    for k in range(1, n):
        out[k] = ratio_full[k - 1] / k
    return out


def todd_coefficients(order):
    """Coefficients of x / (1 - e^{-x}) up to x^order inclusive.

    >>> [str(c) for c in todd_coefficients(4)]
    ['1', '1/2', '1/12', '0', '-1/720']
    """
    # (1 - e^{-x}) / x = sum_{k>=0} (-1)^k x^k / (k+1)!
    base = [_F((-1) ** k, factorial(k + 1)) for k in range(order + 1)]
    return series_inverse(base)


def log_todd_coefficients(order):
    """Coefficients of log(x / (1 - e^{-x})) up to x^order inclusive."""
    return series_log(todd_coefficients(order))
