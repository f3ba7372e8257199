"""Acceptance gate: the twelve shipping criteria for this library.

Each criterion is one test that prints a single line

    ACCEPTANCE NN: PASS|FAIL  <what was checked>  [<time> < <budget>]

live on the terminal (even under pytest capture).  All arithmetic is exact
rational equality unless a tolerance is stated in the line; wall-clock
budgets are part of the criterion and a blown budget fails the test.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ellgenus.bundles import (EquivariantVectorBundle,
                              completely_reducible_bundle, irreducible_bundle)
from ellgenus.ci import CompleteIntersection, chern_number
from ellgenus.genus import chi_y, elliptic_genus, elliptic_genus_chernnum
from ellgenus.homog import homogeneous_space
from ellgenus.jacobi import basis_half_integral, basis_integral, linear_fit
from ellgenus.qseries import LaurentY, QYSeries
from ellgenus.roots import Weight, parabolic, root_system, weyl_elements

K3_GENUS = (
    "2 + 20*y + 2*y^2 + (20*y^-1 - 128 + 216*y - 128*y^2 + 20*y^3)*q "
    "+ (2*y^-2 + 216*y^-1 - 1026 + 1616*y - 1026*y^2 + 216*y^3 + 2*y^4)*q^2 "
    "+ (-128*y^-2 + 1616*y^-1 - 5504 + 8032*y - 5504*y^2 + 1616*y^3 "
    "- 128*y^4)*q^3 + O(q^4)")

QUINTIC_GENUS = (
    "-100*y - 100*y^2 + (100*y^-1 - 100*y - 100*y^2 + 100*y^4)*q "
    "+ (100*y^-2 + 100*y^-1 - 200*y - 200*y^2 + 100*y^4 + 100*y^5)*q^2 "
    "+ O(q^3)")

G2_CY_GENUS = (
    "-36*y - 36*y^2 + (36*y^-1 - 36*y - 36*y^2 + 36*y^4)*q "
    "+ (36*y^-2 + 36*y^-1 - 72*y - 72*y^2 + 36*y^4 + 36*y^5)*q^2 "
    "+ (36*y^-2 + 72*y^-1 - 108*y - 108*y^2 + 72*y^4 + 36*y^5)*q^3 + O(q^4)")

CHERNNUM_3_1 = (
    "1/24*c1*c2 + (-1/24*c1*c2 + 1/2*c3)*y + (-1/24*c1*c2 + 1/2*c3)*y^2 "
    "+ 1/24*c1*c2*y^3 + ((-1/2*c1^3 + 19/24*c1*c2 - 1/2*c3)*y^-1 "
    "+ (3/2*c1^3 - 27/8*c1*c2) + (-c1^3 + 31/12*c1*c2 + 1/2*c3)*y "
    "+ (-c1^3 + 31/12*c1*c2 + 1/2*c3)*y^2 + (3/2*c1^3 - 27/8*c1*c2)*y^3 "
    "+ (-1/2*c1^3 + 19/24*c1*c2 - 1/2*c3)*y^4)*q + O(q^2)")

IRRED_0100_ON_P4 = [
    "1",
    "4*x0 + x1 + x2 + x3 + x4",
    "6*x0^2 + 3*x0*x1 + 3*x0*x2 + x1*x2 + 3*x0*x3 + x1*x3 + x2*x3 + 3*x0*x4 "
    "+ x1*x4 + x2*x4 + x3*x4",
    "4*x0^3 + 3*x0^2*x1 + 3*x0^2*x2 + 2*x0*x1*x2 + 3*x0^2*x3 + 2*x0*x1*x3 "
    "+ 2*x0*x2*x3 + x1*x2*x3 + 3*x0^2*x4 + 2*x0*x1*x4 + 2*x0*x2*x4 + x1*x2*x4 "
    "+ 2*x0*x3*x4 + x1*x3*x4 + x2*x3*x4",
    "x0^4 + x0^3*x1 + x0^3*x2 + x0^2*x1*x2 + x0^3*x3 + x0^2*x1*x3 "
    "+ x0^2*x2*x3 + x0*x1*x2*x3 + x0^3*x4 + x0^2*x1*x4 + x0^2*x2*x4 "
    "+ x0*x1*x2*x4 + x0^2*x3*x4 + x0*x1*x3*x4 + x0*x2*x3*x4 + x1*x2*x3*x4",
]

P4_C2 = ("6*x0^2 - 3*x0*x1 - 3*x0*x2 + x1*x2 - 3*x0*x3 + x1*x3 + x2*x3 "
         "- 3*x0*x4 + x1*x4 + x2*x4 + x3*x4")


def _emit(capsys, num, status, label, dt, budget):
    timing = f"[{dt:.2f}s < {budget:.0f}s]" if budget else f"[{dt:.2f}s]"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d}: {status}  {label}  {timing}")


@contextmanager
def criterion(capsys, num, label, budget=None):
    """Time a criterion body; print its PASS/FAIL line no matter what."""
    info = SimpleNamespace(note="")
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        _emit(capsys, num, "FAIL", label + info.note,
              time.perf_counter() - start, budget)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        _emit(capsys, num, "FAIL", label + info.note, elapsed, budget)
        pytest.fail(f"criterion {num} blew its {budget}s budget "
                    f"({elapsed:.2f}s)")
    _emit(capsys, num, "PASS", label + info.note, elapsed, budget)


def _cy(space_type, crossed, weights):
    space = homogeneous_space(space_type, crossed)
    return CompleteIntersection(completely_reducible_bundle(space, weights))


def test_criterion_01_integral_basis(capsys):
    with criterion(capsys, 1, "weak Jacobi basis, weight 0 index 3: "
                   "three q^0 rows exact to q^7", budget=1.0):
        els = basis_integral(0, 3)
        assert len(els) == 3
        assert all(e.series.prec2 == 14 for e in els)
        rows = [e.series.coefficient(0) for e in els]
        assert rows[0] == LaurentY({-3: 1, -2: 30, -1: 303, 0: 1060,
                                    1: 303, 2: 30, 3: 1})
        assert rows[1] == LaurentY({-3: 1, -2: 6, -1: -33, 0: 52,
                                    1: -33, 2: 6, 3: 1})
        assert rows[2] == LaurentY({-3: 1, -2: -6, -1: 15, 0: -20,
                                    1: 15, 2: -6, 3: 1})


def test_criterion_02_half_integral_basis(capsys):
    with criterion(capsys, 2, "weak Jacobi basis, weight 2 index 5/2: "
                   "single element, q^0 and q^1 rows exact", budget=1.0):
        els = basis_half_integral(2, 5)
        assert len(els) == 1
        s = els[0].series
        assert s.coefficient(0) == LaurentY({-1: 1, 0: -1, 1: -1, 2: 1})
        assert s.coefficient(1) == LaurentY({-3: -1, -1: 246, 0: -245,
                                             1: -245, 2: 246, 4: -1})


def test_criterion_03_parabolic_data(capsys):
    with criterion(capsys, 3, "A4 node-3 parabolic: Levi roots and both "
                   "weight-multiplicity dicts exact, insertion order "
                   "included", budget=1.0):
        p = parabolic("A4", [3])
        assert [a.coords for a in p.levi_simple_roots] == [
            (1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (0, 0, 0, 1, -1)]
        assert [a.coords for a in p.levi_positive_roots] == [
            (1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (0, 0, 0, 1, -1),
            (1, 0, -1, 0, 0)]
        first = p.weight_multiplicities((1, 0, 3, 1))
        expected_first = {
            (5, 4, 4, 1, 0): 1, (4, 5, 4, 1, 0): 1, (5, 4, 4, 0, 1): 1,
            (4, 4, 5, 1, 0): 1, (4, 5, 4, 0, 1): 1, (4, 4, 5, 0, 1): 1}
        assert {w.coords: m for w, m in first.items()} == expected_first
        assert [w.coords for w in first] == list(expected_first)
        second = p.weight_multiplicities((0, 1, -1, 0))
        expected_second = {
            (0, 0, -1, 0, 0): 1, (0, -1, 0, 0, 0): 1, (-1, 0, 0, 0, 0): 1}
        assert {w.coords: m for w, m in second.items()} == expected_second
        assert [w.coords for w in second] == list(expected_second)


def test_criterion_04_grassmannian_numbers(capsys):
    with criterion(capsys, 4, "Gr(3,5): dimension, c1, and Chern numbers "
                   "(c1^6, c1c2c3, c6, c3c4) = (78125, 4275, 10, 0), "
                   "exact", budget=5.0):
        gr = homogeneous_space("A4", [3])
        assert gr.dimension() == 6
        cs = gr.chern_classes()
        assert str(cs[1]) == "2*x0 + 2*x1 + 2*x2 - 3*x3 - 3*x4"
        assert gr.integrate(cs[1].power(6)) == 78125
        assert gr.integrate(cs[1] * cs[2] * cs[3]) == 4275
        assert gr.integrate(cs[6]) == 10
        assert gr.integrate(cs[3] * cs[4]) == 0


def test_criterion_05_projective_space_classes(capsys):
    with criterion(capsys, 5, "P^4: tangent/cotangent c1 and c2; O(1) "
                   "Chern character and Todd classes, all exact"):
        p4 = homogeneous_space("A4", [1])
        cs = p4.tangent_bundle().chern_classes()
        assert str(cs[1]) == "4*x0 - x1 - x2 - x3 - x4"
        assert str(cs[2]) == P4_C2
        cot = p4.cotangent_bundle().chern_classes()
        assert str(cot[1]) == "-4*x0 + x1 + x2 + x3 + x4"
        assert str(cot[2]) == P4_C2
        o1 = irreducible_bundle(p4, (1, 0, 0, 0))
        assert [str(c) for c in o1.chern_character()] == \
            ["1", "x0", "1/2*x0^2", "1/6*x0^3", "1/24*x0^4"]
        assert [str(c) for c in o1.todd_classes()] == \
            ["1", "1/2*x0", "1/12*x0^2", "0", "-1/720*x0^4"]


def test_criterion_06_bundle_algebra(capsys):
    with criterion(capsys, 6, "bundle algebra on P^4: sum, tensor, Sym^3, "
                   "wedge^2 of line bundles and the full c-list of the "
                   "irreducible (0,1,0,0) bundle, all exact"):
        p4 = homogeneous_space("A4", [1])

        def cs(bundle):
            return [str(c) for c in bundle.chern_classes()]

        o2 = completely_reducible_bundle(p4, [(2, 0, 0, 0)])
        o3 = completely_reducible_bundle(p4, [(3, 0, 0, 0)])
        assert cs(o2 + o3) == ["1", "5*x0", "6*x0^2", "0", "0"]
        assert cs(o2 * o3) == ["1", "5*x0", "0", "0", "0"]
        assert cs(o2.symmetric_power(3)) == ["1", "6*x0", "0", "0", "0"]
        assert cs(o2.wedge_power(2)) == ["1", "0", "0", "0", "0"]
        assert cs(irreducible_bundle(p4, (0, 1, 0, 0))) == IRRED_0100_ON_P4


def test_criterion_07_k3(capsys):
    with criterion(capsys, 7, "quartic K3: c2 integral 24; elliptic genus "
                   "exact term-for-term to q^3", budget=10.0):
        k3 = _cy("A3", [1], [(4, 0, 0)])
        assert chern_number(k3, [2]) == 24
        assert str(elliptic_genus(k3, 3)) == K3_GENUS


def test_criterion_08_quintic(capsys):
    with criterion(capsys, 8, "quintic threefold: elliptic genus exact "
                   "term-for-term to q^2", budget=30.0):
        quintic = _cy("A4", [1], [(5, 0, 0, 0)])
        assert str(elliptic_genus(quintic, 2)) == QUINTIC_GENUS


def test_criterion_09_g2_cy(capsys):
    with criterion(capsys, 9, "Calabi-Yau threefold in the full G2 flag: "
                   "elliptic genus exact term-for-term to q^3", budget=60.0):
        g2_cy = _cy("G2", [1, 2], [(2, 0), (0, 1), (0, 1)])
        assert str(elliptic_genus(g2_cy, 3)) == G2_CY_GENUS


def test_criterion_10_universal_chern_symbol_series(capsys):
    with criterion(capsys, 10, "universal dimension-3 elliptic genus in "
                   "Chern symbols, order 1: every coefficient exact"):
        g = elliptic_genus_chernnum(3, 1)
        assert str(g) == CHERNNUM_3_1
        # spot check, q^1 y^-1: -1/2 c1^3 + 19/24 c1 c2 - 1/2 c3
        assert g.coefficient(1, (3, 0, 0)).c.get(-1) == Fraction(-1, 2)
        assert g.coefficient(1, (1, 1, 0)).c.get(-1) == Fraction(19, 24)
        assert g.coefficient(1, (0, 0, 1)).c.get(-1) == Fraction(-1, 2)


def test_criterion_11_property_suites(capsys):
    label = ("property suites: Whitney sums x20, Freudenthal dimension "
             "cross-check x20, localization two-point constancy, Jacobi "
             "membership of 3 CY genera, chi_y duality x9, y=1 vanishing "
             "x3; exact throughout")
    with criterion(capsys, 11, label, budget=300.0):
        rng = random.Random(20260817)

        # Whitney-sum identity on 20 random completely reducible bundles
        p4 = homogeneous_space("A4", [1])
        gr35 = homogeneous_space("A4", [3])
        for base in (p4, gr35):
            for _ in range(10):
                wa = [Weight([rng.randint(-3, 3) for _ in range(5)])
                      for _ in range(rng.randint(1, 3))]
                wb = [Weight([rng.randint(-3, 3) for _ in range(5)])
                      for _ in range(rng.randint(1, 3))]
                a = EquivariantVectorBundle(base, wa)
                b = EquivariantVectorBundle(base, wb)
                product = a.total_chern_class() * b.total_chern_class()
                assert (a + b).total_chern_class() == \
                    product.truncate(base.dimension())

        # Freudenthal: Weyl dimension equals the multiplicity total on 20
        # random p-dominant weights
        cases = [("A4", (3,)), ("A3", (2,)), ("B3", (1,)), ("G2", (1,)),
                 ("C3", (2,))]
        parabolics = {c: parabolic(c[0], list(c[1])) for c in cases}
        for _ in range(20):
            case = rng.choice(cases)
            p = parabolics[case]
            hw = tuple(
                rng.randint(-2, 3) if (i + 1) in p.crossed
                else rng.randint(0, 3)
                for i in range(p.root_system.rank))
            mult = p.weight_multiplicities(hw)
            assert p.weyl_dimension(hw) == sum(mult.values())

        # localization: exact integrals are constant across the random
        # choice of evaluation points
        integrands = [(gr35, gr35.chern_classes()[1].power(6)),
                      (gr35, gr35.chern_classes()[2].power(3)),
                      (p4, p4.chern_classes()[4])]
        for space, f in integrands:
            draws = {space.integrate(f, rng=random.Random(seed))
                     for seed in (1, 999, 31337)}
            assert len(draws) == 1

        # the three Calabi-Yau genera lie in the weight-0 weak Jacobi space
        # of index dim/2
        k3 = _cy("A3", [1], [(4, 0, 0)])
        quintic = _cy("A4", [1], [(5, 0, 0, 0)])
        g2_cy = _cy("G2", [1, 2], [(2, 0), (0, 1), (0, 1)])
        for manifold, coeffs in [(k3, [Fraction(2)]),
                                 (quintic, [Fraction(-100)]),
                                 (g2_cy, [Fraction(-36)])]:
            d = manifold.dimension()
            genus = elliptic_genus(manifold, 2)
            shift = (d - d % 2) // 2
            elements = [
                QYSeries(e.series.prec2,
                         {k2: lau.shift(shift)
                          for k2, lau in e.series.c.items()})
                for e in basis_half_integral(0, d, prec=2)]
            assert linear_fit(genus, elements) == coeffs

        # chi_y duality y^d chi(1/y) = chi(y) on all examples
        examples = [homogeneous_space("A1", [1]),
                    homogeneous_space("A2", [1]),
                    homogeneous_space("A3", [1]),
                    homogeneous_space("A3", [2]),
                    homogeneous_space("G2", [2]),
                    p4, k3, quintic, g2_cy]
        for m in examples:
            v = chi_y(m)
            assert v.reciprocal_y().shift(m.dimension()) == v

        # rigidity: every q >= 1 row of a CY genus vanishes at y = 1
        for m in (k3, quintic, g2_cy):
            g = elliptic_genus(m, 2).specialize_y1()
            for n in (1, 2):
                assert g.coefficient(n) == LaurentY()


def test_criterion_12_f4_roots_and_genus(capsys):
    with criterion(capsys, 12, "F4: 24 positive roots and Weyl order 1152; "
                   "the elliptic genus of the 15-fold F4[1] to q^2 has the "
                   "Bruhat-cell count as its q^0 row and rows summing to "
                   "24, 0, 0 at y = 1"):
        rs = root_system("F4")
        assert len(rs.positive_roots) == 24
        assert len(weyl_elements(rs)) == 1152
        genus = elliptic_genus(homogeneous_space("F4", [1]), 2)
        # h^{p,p} of F4[1], the Schubert cells of dimension p = 0..15
        cells = (1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1)
        assert genus.coefficient(0) == LaurentY(dict(enumerate(cells)))
        # at y = 1 an elliptic genus is the Euler number, |W^P| = 24
        assert [sum(genus.coefficient(n).c.values()) for n in range(3)] == [
            24, 0, 0]
