"""Test-only reference for the weak Jacobi generators: the Jacobi theta
functions by the triple product, and the generators built the classical
way, as theta quotients.

Theta functions carry half-integral powers of q, so the reference works in
t = q^(1/2): its series are QYSeries in t, whose coefficient(j) is the
coefficient of t^j = q^(j/2)."""

from collections import namedtuple
from fractions import Fraction

from ellgenus.qseries import LaurentY, QYSeries


Theta = namedtuple("Theta", "series q_eighths y_num y_half i_power")


def _t_binomial(prec, j, coeff):
    """1 + coeff * t^j, to t^(2 prec)."""
    return QYSeries(4 * prec, {0: LaurentY.const(1), 2 * j: coeff})


def theta(i, prec, y_scale=1):
    """Jacobi theta_i(q, y^y_scale), i in 1..4, to q^prec by the triple
    product; the value is
    i**i_power * q^(q_eighths/8) * y^(-y_half/2) * y_num * series."""
    s = y_scale
    sign = -1 if i in (1, 4) else 1
    out = QYSeries.one(4 * prec)
    for n in range(1, prec + 1):
        j = 2 * n if i in (1, 2) else 2 * n - 1
        out = out * _t_binomial(prec, 2 * n, LaurentY.const(-1))
        out = out * _t_binomial(prec, j, LaurentY.y_pow(s, sign))
        out = out * _t_binomial(prec, j, LaurentY.y_pow(-s, sign))
    if i == 1:
        return Theta(out, 1, LaurentY({s: 1, 0: -1}), s, 3)
    if i == 2:
        return Theta(out, 1, LaurentY({s: 1, 0: 1}), s, 0)
    return Theta(out, 0, LaurentY.const(1), 0, 0)


def _q_series(t_series):
    """The t-series as a QYSeries in q; its half-integral powers of q must
    have cancelled."""
    assert all(k % 4 == 0 for k in t_series.c), "half-integral q-terms survived"
    return QYSeries(t_series.prec2 // 2, {k // 2: v for k, v in t_series.c.items()})


def reference_phi_0_1(prec):
    """4 times the sum of the squared theta_i(q, y)/theta_i(q, 1), i = 2, 3, 4."""
    t2, t3, t4 = theta(2, prec), theta(3, prec), theta(4, prec)
    assert (t2.q_eighths, t3.q_eighths) == (1, 0)
    # the theta_2 ratio squared carries the prefactor ((y+1)^2/y)/4 = (y + 2 + 1/y)/4
    r2 = t2.series / t2.series.specialize_y1()
    s = r2 * r2 * LaurentY({1: Fraction(1, 4), 0: Fraction(1, 2), -1: Fraction(1, 4)})
    for t in (t3, t4):
        r = t.series / t.series.specialize_y1()
        s = s + r * r
    return _q_series(s * 4)


def reference_phi_m2_1(prec):
    """-theta_1(q, y)^2 / eta(q)^6: the q^(1/4) prefactors cancel, and so does
    the minus sign against i^6 = -1."""
    t1 = theta(1, prec)
    assert (t1.q_eighths, t1.i_power) == (1, 3)
    eta = QYSeries.one(4 * prec)
    for n in range(1, prec + 1):
        eta = eta * _t_binomial(prec, 2 * n, LaurentY.const(-1))
    pref = (t1.y_num * t1.y_num).shift(-t1.y_half)
    return _q_series((t1.series * t1.series * pref) / eta ** 6)


def reference_phi_0_3half(prec):
    """y^(1/2) theta_1(q, y^2)/theta_1(q, y): the prefactor ratio is
    y^-1 (y^2 - 1) / (y^(-1/2) (y - 1)) * y^(1/2) = 1 + y."""
    ta, tb = theta(1, prec, y_scale=2), theta(1, prec)
    assert (ta.q_eighths, ta.i_power) == (tb.q_eighths, tb.i_power)
    return _q_series((ta.series / tb.series) * LaurentY({0: 1, 1: 1}))
