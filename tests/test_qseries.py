"""Series layer: classical identities as oracles, plus ring laws."""

import doctest
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellgenus.qseries
import ellgenus.taylor
from ellgenus.cohomology import CohomologyClass
from ellgenus.errors import DivisionByNonUnit, InvalidInput, PrecisionZero
from ellgenus.qseries import (LaurentY, PackedLayout, QYSeries, eisenstein,
                             eta_product)
from ellgenus.taylor import log_todd_coefficients, todd_coefficients
from theta_reference import theta

PREC = 24


def test_doctests_pass():
    for module in (ellgenus.qseries, ellgenus.taylor):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__


def test_eta_matches_pentagonal_number_theorem():
    # Euler: prod_{n>=1} (1 - q^n) = sum_{k in Z} (-1)^k q^{k(3k-1)/2}
    expected = {}
    k = 1
    expected[0] = Fraction(1)
    while True:
        exps = [k * (3 * k - 1) // 2, k * (3 * k + 1) // 2]
        if min(exps) > PREC:
            break
        for e in exps:
            if e <= PREC:
                expected[e] = Fraction(-1 if k % 2 else 1)
        k += 1
    eta = eta_product(PREC)
    for n in range(PREC + 1):
        assert eta.coefficient(n) == LaurentY.const(expected.get(n, 0))


def _lattice_rows(prec2, exponent, entries):
    """{doubled q-exponent: LaurentY} of a lattice sum whose term for each
    m >= 0 sits at doubled exponent exponent(m) with {y-exponent: coeff}
    entries(m)."""
    rows = {}
    m = 0
    while exponent(m) <= prec2:
        row = rows.setdefault(exponent(m), {})
        for e, c in entries(m).items():
            row[e] = row.get(e, 0) + c
        m += 1
    return {k: LaurentY(row) for k, row in rows.items()}


def test_theta3_is_lattice_sum():
    t = theta(3, 12)
    assert (t.q_eighths, t.y_half, t.i_power) == (0, 0, 0)
    assert t.y_num == LaurentY.const(1)
    # theta_3(q, y) = sum_{n in Z} q^{n^2/2} y^n
    expected = _lattice_rows(24, lambda n: n * n, lambda n: {n: 1, -n: 1} if n else {0: 1})
    for j in range(25):
        assert t.series.coefficient(j) == expected.get(j, LaurentY())


def test_theta4_is_signed_lattice_sum():
    t = theta(4, 12)
    assert (t.q_eighths, t.y_half, t.i_power) == (0, 0, 0)
    # theta_4(q, y) = sum_{n in Z} (-1)^n q^{n^2/2} y^n
    expected = _lattice_rows(24, lambda n: n * n,
                             lambda n: {n: (-1) ** n, -n: (-1) ** n} if n else {0: 1})
    for j in range(25):
        assert t.series.coefficient(j) == expected.get(j, LaurentY())


def test_theta2_is_lattice_sum():
    t = theta(2, 12)
    assert (t.q_eighths, t.y_half, t.i_power) == (1, 1, 0)
    assert t.y_num == LaurentY({1: 1, 0: 1})
    # y^{1/2} q^{-1/8} theta_2(q, y) = sum_{n in Z} q^{n(n+1)/2} y^{n+1},
    # so (1 + y) * series must equal that sum.
    lhs = t.series * LaurentY({1: 1, 0: 1})
    expected = _lattice_rows(24, lambda m: m * (m + 1), lambda m: {m + 1: 1, -m: 1})
    for j in range(25):
        assert lhs.coefficient(j) == expected.get(j, LaurentY())


def test_theta1_is_signed_lattice_sum():
    t = theta(1, 12)
    assert (t.q_eighths, t.y_half, t.i_power) == (1, 1, 3)
    assert t.y_num == LaurentY({1: 1, 0: -1})
    # i^3 = -i and theta_1(q,y) = -i sum_n (-1)^n q^{(n+1/2)^2/2} y^{n+1/2},
    # so (y - 1) * series = sum_{n in Z} (-1)^n q^{n(n+1)/2} y^{n+1}.
    lhs = t.series * LaurentY({1: 1, 0: -1})
    expected = _lattice_rows(24, lambda m: m * (m + 1),
                             lambda m: {m + 1: (-1) ** m, -m: -(-1) ** m})
    for j in range(25):
        assert lhs.coefficient(j) == expected.get(j, LaurentY())


def test_theta_y_scale_substitutes_exponents():
    plain, scaled = theta(1, 8), theta(1, 8, y_scale=2)
    for j in range(17):
        assert scaled.series.coefficient(j) == plain.series.coefficient(j).scale_exponents(2)
    assert scaled.y_num == LaurentY({2: 1, 0: -1})


def test_eisenstein_frozen_coefficients():
    e4, e6 = eisenstein(4, 5), eisenstein(6, 5)
    for n, v in enumerate([1, 240, 2160, 6720, 17520, 30240]):
        assert e4.coefficient(n) == LaurentY.const(v)
    for n, v in enumerate([1, -504, -16632, -122976, -532728, -1575504]):
        assert e6.coefficient(n) == LaurentY.const(v)
    with pytest.raises(InvalidInput):
        eisenstein(8, 3)


# --- ring laws -------------------------------------------------------------

fraction_st = st.fractions(min_value=-10, max_value=10, max_denominator=12)
laurent_st = st.dictionaries(st.integers(-4, 4), fraction_st, max_size=4).map(LaurentY)
qys_st = st.dictionaries(st.integers(0, 4).map(lambda k: 2 * k), laurent_st,
                         max_size=4).map(lambda d: QYSeries(8, d))
unit_tail_st = st.dictionaries(st.integers(1, 4).map(lambda k: 2 * k), laurent_st,
                               max_size=3)
unit_st = st.tuples(st.integers(-2, 2), fraction_st.filter(bool), unit_tail_st).map(
    lambda t: QYSeries(8, {0: LaurentY.y_pow(t[0], t[1]), **t[2]}))


@settings(max_examples=60, deadline=None)
@given(laurent_st, laurent_st, laurent_st)
def test_laurent_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * LaurentY.const(1) == a
    assert (a - a).is_zero()
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(qys_st, qys_st, qys_st)
def test_qseries_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * QYSeries.one(8) == a
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(qys_st, unit_st)
def test_division_inverts_multiplication(a, u):
    assert (a * u) / u == a
    assert (a / u) * u == a


@settings(max_examples=40, deadline=None)
@given(qys_st, unit_st, st.sampled_from([2, 4]))
def test_division_by_q_shifted_units(a, u, v):
    # the divisor q^(v/2) u has doubled valuation v, and the quotient keeps
    # the precision min(prec2) - v
    shifted = u * QYSeries(8, {v: LaurentY.const(1)})
    quotient = (a * shifted) / shifted
    assert quotient.prec2 == 8 - v
    assert quotient == a.truncate(8 - v)
    quotient = (a * shifted).truncate(6) / shifted
    assert quotient.prec2 == 6 - v
    assert quotient == a.truncate(6 - v)


@settings(max_examples=30, deadline=None)
@given(laurent_st, st.integers(0, 3))
def test_laurent_power_is_repeated_product(a, n):
    expected = LaurentY.const(1)
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


def test_power_is_repeated_product_on_every_type():
    # one square-and-multiply serves all three types
    laurent = LaurentY({-1: 2, 0: Fraction(-1, 3), 2: 1})
    series = QYSeries.from_q_dict(4, {0: laurent, 1: LaurentY.const(5),
                                      3: LaurentY({1: -1})})
    cls = CohomologyClass(2, {(1, 0): Fraction(1, 2), (0, 1): 3, (0, 0): -1})
    cases = [(laurent, LaurentY.const(1), lambda a, b: a * b, {}),
             (series, QYSeries.one(8), lambda a, b: a * b, {}),
             (cls, CohomologyClass.one(2), lambda a, b: a.times(b), {}),
             (cls, CohomologyClass.one(2), lambda a, b: a.times(b, 3),
              {"max_degree": 3})]
    for base, one, times, kw in cases:
        expected = one
        for k in range(6):
            assert base.__pow__(k, **kw) == expected, (base, k, kw)
            expected = times(expected, base)
        with pytest.raises(InvalidInput):
            base.__pow__(-1, **kw)
    assert cls.power(4, max_degree=3) == cls.__pow__(4, 3) == (cls ** 4).truncate(3)


def test_laurent_helpers():
    a = LaurentY({-1: 2, 0: -3, 2: Fraction(1, 2)})
    assert a.at_one() == 2 - 3 + Fraction(1, 2)
    assert a.evaluate(2) == Fraction(2, 2) - 3 + Fraction(4, 2)
    # exact for int and Fraction y, float for float y
    exact = LaurentY({-1: 1, 0: 2}).evaluate(3)
    assert isinstance(exact, Fraction) and exact == Fraction(7, 3)
    assert isinstance(LaurentY({-1: 1, 0: 2}).evaluate(3.0), float)
    assert a.shift(3) == LaurentY({2: 2, 3: -3, 5: Fraction(1, 2)})
    assert a.reciprocal_y() == LaurentY({1: 2, 0: -3, -2: Fraction(1, 2)})
    assert a.scale_exponents(2) == LaurentY({-2: 2, 0: -3, 4: Fraction(1, 2)})
    assert a.support() == [-1, 0, 2]
    with pytest.raises(InvalidInput):
        LaurentY({0: 1}) ** -1


def test_precision_zero_coefficient_access():
    s = QYSeries.one(0)
    assert s.coefficient(0) == LaurentY.const(1)
    with pytest.raises(PrecisionZero):
        s.coefficient(1)
    with pytest.raises(PrecisionZero):
        eta_product(3).coefficient(4)


def _bernoulli(n):
    """B_0..B_n with B_1 = -1/2, from sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def test_todd_and_log_todd_match_bernoulli_closed_forms():
    # x/(1-e^{-x}) = sum B+_n x^n/n! with B+_n = (-1)^n B_n, and its log
    # is x/2 - sum_{n>=2 even} B_n x^n/(n n!)
    order = 20
    b = _bernoulli(order)
    assert todd_coefficients(order) == [(-1) ** n * b[n] / factorial(n)
                                        for n in range(order + 1)]
    log_todd = [0, Fraction(1, 2)] + [0 if n % 2 else -b[n] / (n * factorial(n))
                                      for n in range(2, order + 1)]
    assert log_todd_coefficients(order) == log_todd


def test_division_by_nonunit_raises():
    one = QYSeries.one(6)
    with pytest.raises(DivisionByNonUnit):
        one / QYSeries(6, {0: LaurentY({0: 1, 1: 1})})
    with pytest.raises(DivisionByNonUnit):
        one / QYSeries.zero(6)
    with pytest.raises(DivisionByNonUnit):
        one / QYSeries(6, {2: LaurentY.const(1)})


def test_constructor_validation():
    with pytest.raises(InvalidInput):
        QYSeries(-2)
    with pytest.raises(InvalidInput):
        QYSeries(6, {1: LaurentY.const(1)})  # odd doubled key: q^(1/2)
    with pytest.raises(InvalidInput):
        QYSeries(6, {-2: LaurentY.const(1)})


def test_bad_library_input_is_invalid_input():
    # a caller's bad input is InvalidInput, still a ValueError
    with pytest.raises(InvalidInput, match="y-scale"):
        LaurentY({1: 1}).scale_exponents(0)
    with pytest.raises(InvalidInput, match="mixed ambient"):
        CohomologyClass.one(2) + CohomologyClass.one(3)
    with pytest.raises(InvalidInput, match="wrong dimension"):
        CohomologyClass.one(2).evaluate((1, 2, 3))
    with pytest.raises(InvalidInput, match="constant term 1"):
        ellgenus.taylor.series_log([Fraction(2), Fraction(1)])
    assert issubclass(InvalidInput, ValueError)


def test_truncate_and_equality_respect_precision():
    a = eta_product(10)
    b = a.truncate(6)
    assert b.prec2 == 6
    for n in range(4):
        assert b.coefficient(n) == a.coefficient(n)


# --- the packed (Kronecker) layout --------------------------------------------

def _cells_product(a, b, order):
    """The rows up to q^order of the product of two cell dicts, cell by
    cell: the reference the packed product must match."""
    out = {}
    for (qa, ya), va in a.items():
        for (qb, yb), vb in b.items():
            if qa + qb <= order:
                cell = (qa + qb, ya + yb)
                out[cell] = out.get(cell, 0) + va * vb
    return {c: v for c, v in out.items() if v}


def test_packed_round_trip_keeps_negative_cells_and_zero():
    # row q of a span-3 series may reach y = -q and y = 3 + q
    layout = PackedLayout(2, 3, 1000)
    cells = {(0, 0): -1000, (0, 3): 7, (1, -1): 999, (1, 4): -1,
             (2, -2): -512, (2, 5): 1000, (2, 0): -3}
    x = layout.pack(cells.items())
    assert dict(layout.cells(x)) == cells
    assert layout.cells(layout.pack(())) == []
    assert layout.series(x, 4) == QYSeries.from_q_dict(2, {
        0: LaurentY({0: -250, 3: Fraction(7, 4)}),
        1: LaurentY({-1: Fraction(999, 4), 4: Fraction(-1, 4)}),
        2: LaurentY({-2: -128, 5: 250, 0: Fraction(-3, 4)})})


def test_packed_product_drops_negative_rows_past_the_order():
    # spans 1 and 2 add up to the layout's 3; every row past q^1 of the
    # product is negative, so dropping it must borrow nothing from below
    layout = PackedLayout(1, 3, 10 ** 6)
    a = {(0, 0): 5, (0, 1): -3, (1, -1): 7, (1, 2): 2}
    b = {(0, 2): 4, (0, 0): -1, (1, -1): -6, (1, 3): -9}
    product = layout.mul(layout.pack(a.items()), layout.pack(b.items()))
    assert dict(layout.cells(product)) == _cells_product(a, b, 1)
    dropped = {c: v for c, v in _cells_product(a, b, 2).items() if c[0] == 2}
    assert dropped and all(v < 0 for v in dropped.values())
