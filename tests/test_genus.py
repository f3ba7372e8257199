"""Elliptic genus: frozen listings, an independent sheaf-theoretic oracle,
and the structural identities expected of weak Jacobi forms."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus.bundles import EquivariantVectorBundle, completely_reducible_bundle
from ellgenus.ci import CompleteIntersection, chern_number
from ellgenus.cohomology import CohomologyClass
from ellgenus.genus import (ChernSymbolSeries, chi_y, elementary_in_power_sums,
                            elliptic_genus, elliptic_genus_chernnum,
                            power_sum_in_elementary)
from ellgenus.homog import homogeneous_space
from ellgenus.jacobi import basis_half_integral, linear_fit
from ellgenus.qseries import LaurentY, QYSeries
from ellgenus.roots import Weight

CHERNNUM_3_1 = (
    "1/24*c1*c2 + (-1/24*c1*c2 + 1/2*c3)*y + (-1/24*c1*c2 + 1/2*c3)*y^2 "
    "+ 1/24*c1*c2*y^3 + ((-1/2*c1^3 + 19/24*c1*c2 - 1/2*c3)*y^-1 "
    "+ (3/2*c1^3 - 27/8*c1*c2) + (-c1^3 + 31/12*c1*c2 + 1/2*c3)*y "
    "+ (-c1^3 + 31/12*c1*c2 + 1/2*c3)*y^2 + (3/2*c1^3 - 27/8*c1*c2)*y^3 "
    "+ (-1/2*c1^3 + 19/24*c1*c2 - 1/2*c3)*y^4)*q + O(q^2)")

QUINTIC_GENUS = (
    "-100*y - 100*y^2 + (100*y^-1 - 100*y - 100*y^2 + 100*y^4)*q "
    "+ (100*y^-2 + 100*y^-1 - 200*y - 200*y^2 + 100*y^4 + 100*y^5)*q^2 "
    "+ O(q^3)")

K3_GENUS = (
    "2 + 20*y + 2*y^2 + (20*y^-1 - 128 + 216*y - 128*y^2 + 20*y^3)*q "
    "+ (2*y^-2 + 216*y^-1 - 1026 + 1616*y - 1026*y^2 + 216*y^3 + 2*y^4)*q^2 "
    "+ (-128*y^-2 + 1616*y^-1 - 5504 + 8032*y - 5504*y^2 + 1616*y^3 "
    "- 128*y^4)*q^3 + O(q^4)")

G2_CY_GENUS = (
    "-36*y - 36*y^2 + (36*y^-1 - 36*y - 36*y^2 + 36*y^4)*q "
    "+ (36*y^-2 + 36*y^-1 - 72*y - 72*y^2 + 36*y^4 + 36*y^5)*q^2 "
    "+ (36*y^-2 + 72*y^-1 - 108*y - 108*y^2 + 72*y^4 + 36*y^5)*q^3 + O(q^4)")


def proj(n):
    return homogeneous_space(f"A{n}", [1])


@pytest.fixture(scope="module")
def k3():
    space = homogeneous_space("A3", [1])
    return CompleteIntersection(completely_reducible_bundle(space, [(4, 0, 0)]))


@pytest.fixture(scope="module")
def quintic():
    space = homogeneous_space("A4", [1])
    return CompleteIntersection(
        completely_reducible_bundle(space, [(5, 0, 0, 0)]))


@pytest.fixture(scope="module")
def g2_cy():
    space = homogeneous_space("G2", [1, 2])
    return CompleteIntersection(
        completely_reducible_bundle(space, [(2, 0), (0, 1), (0, 1)]))


# --- universal Chern-symbol expressions -------------------------------------

def test_chernnum_3_1_frozen():
    assert str(elliptic_genus_chernnum(3, 1)) == CHERNNUM_3_1


def test_chernnum_3_1_coefficients():
    g = elliptic_genus_chernnum(3, 1)
    assert g.coefficient(0, (1, 1, 0)) == LaurentY(
        {0: Fraction(1, 24), 1: Fraction(-1, 24),
         2: Fraction(-1, 24), 3: Fraction(1, 24)})
    assert g.coefficient(0, (0, 0, 1)) == LaurentY(
        {1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert g.coefficient(1, (3, 0, 0)) == LaurentY(
        {-1: Fraction(-1, 2), 0: Fraction(3, 2), 1: -1,
         2: -1, 3: Fraction(3, 2), 4: Fraction(-1, 2)})
    assert g.monomials() == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]


def test_chernnum_dim1_is_arithmetic_genus_row():
    # dimension 1, order 0: (c1/2) + (c1/2) y
    assert str(elliptic_genus_chernnum(1, 0)) == "1/2*c1 + 1/2*c1*y + O(q^1)"


def test_chernnum_dim2_chi_y_row():
    g = elliptic_genus_chernnum(2, 0)
    # chi_y of a surface is chi(O) - chi(Omega) y + chi(K) y^2 with
    # chi(O) = chi(K) = (c1^2 + c2)/12 and chi(Omega) = (c1^2 - 5 c2)/6
    assert g.coefficient(0, (2, 0)) == LaurentY(
        {0: Fraction(1, 12), 1: Fraction(-1, 6), 2: Fraction(1, 12)})
    assert g.coefficient(0, (0, 1)) == LaurentY(
        {0: Fraction(1, 12), 1: Fraction(5, 6), 2: Fraction(1, 12)})


def test_chernnum_validation():
    with pytest.raises(ValueError):
        elliptic_genus_chernnum(0, 1)
    with pytest.raises(ValueError):
        elliptic_genus_chernnum(2, -1)


def test_substitute_matches_direct_genus():
    p2 = proj(2)
    g = elliptic_genus_chernnum(2, 1)
    series = g.substitute({(2, 0): Fraction(9), (0, 1): Fraction(3)})
    assert series == elliptic_genus(p2, 1)


# --- frozen example listings -------------------------------------------------

def test_projective_line_and_plane_genus():
    assert str(elliptic_genus(proj(1), 1)) == \
        "1 + y + (-3*y^-1 + 3 + 3*y - 3*y^2)*q + O(q^2)"
    assert str(elliptic_genus(proj(2), 1)) == \
        "1 + y + y^2 + (-8*y^-1 + 8 + 8*y^2 - 8*y^3)*q + O(q^2)"


def test_quintic_genus_frozen(quintic):
    assert str(elliptic_genus(quintic, 2)) == QUINTIC_GENUS


def test_k3_genus_frozen(k3):
    assert str(elliptic_genus(k3, 3)) == K3_GENUS


def test_g2_cy_genus_frozen(g2_cy):
    assert str(elliptic_genus(g2_cy, 3)) == G2_CY_GENUS


def test_chi_y_values(k3, quintic, g2_cy):
    assert chi_y(k3) == LaurentY({0: 2, 1: 20, 2: 2})
    assert chi_y(quintic) == LaurentY({1: -100, 2: -100})
    assert chi_y(g2_cy) == LaurentY({1: -36, 2: -36})
    for d in range(1, 5):
        assert chi_y(proj(d)) == LaurentY({p: 1 for p in range(d + 1)})


def test_dimension_zero_genus():
    space = homogeneous_space("A1", [1])
    conic = CompleteIntersection(completely_reducible_bundle(space, [(2,)]))
    g = elliptic_genus(conic, 2)
    assert g.coefficient(0) == LaurentY.const(2)
    assert g.coefficient(1) == LaurentY()
    assert chi_y(conic) == LaurentY.const(2)


# --- independent sheaf-cohomology oracle -------------------------------------

def _euler_characteristic(space, bundle, cache):
    key = tuple(sorted(w.coords for w in bundle.weights))
    if key not in cache:
        ch = bundle.chern_character()
        td = space.todd_classes()
        d = space.dimension()
        total = CohomologyClass.zero(space.ambient_dim)
        for i in range(d + 1):
            total = total + ch[i].times(td[d - i], max_degree=d)
        cache[key] = space.integrate(total)
    return cache[key]


def _genus_by_sheaf_cohomology(space, k):
    """Expand the q,y-graded bundle whose Euler characteristics give the
    elliptic genus coefficients, and integrate term by term.

    The expansion multiplies, over n <= k, exterior powers of the tangent
    and cotangent bundles weighted by -y q^n and -y^{-1} q^n and symmetric
    powers weighted by q^n, seeded with the exterior algebra of the
    cotangent bundle weighted by -y.
    """
    tangent = space.tangent_bundle()
    cotangent = space.cotangent_bundle()
    r = tangent.rank

    factors = [[(0, j, Fraction(-1) ** j, cotangent.wedge_power(j))
                for j in range(r + 1)]]
    for n in range(1, k + 1):
        factors.append([(n * j, j, Fraction(-1) ** j, cotangent.wedge_power(j))
                        for j in range(r + 1) if n * j <= k])
        factors.append([(n * j, -j, Fraction(-1) ** j, tangent.wedge_power(j))
                        for j in range(r + 1) if n * j <= k])
        for e in (cotangent, tangent):
            terms = []
            j = 0
            while n * j <= k:
                terms.append((n * j, 0, Fraction(1), e.symmetric_power(j)))
                j += 1
            factors.append(terms)

    combined = [(0, 0, Fraction(1),
                 EquivariantVectorBundle(space, [Weight([0] * space.ambient_dim)]))]
    for factor in factors:
        nxt = {}
        for qa, ya, ca, ba in combined:
            for qb, yb, cb, bb in factor:
                if qa + qb > k:
                    continue
                prod = ba * bb
                key = (qa + qb, ya + yb, tuple(sorted(w.coords for w in prod.weights)))
                if key in nxt:
                    old = nxt[key]
                    nxt[key] = (old[0], old[1], old[2] + ca * cb, old[3])
                else:
                    nxt[key] = (qa + qb, ya + yb, ca * cb, prod)
        combined = [t for t in nxt.values() if t[2]]

    cache = {}
    rows = {}
    for qe, ye, coeff, bundle in combined:
        value = coeff * _euler_characteristic(space, bundle, cache)
        if value:
            rows.setdefault(qe, {})
            rows[qe][ye] = rows[qe].get(ye, Fraction(0)) + value
    return {qe: LaurentY(c) for qe, c in rows.items()}


@pytest.mark.parametrize("spec,crossed,k", [
    ("A1", [1], 0), ("A1", [1], 1), ("A1", [1], 2),
    ("A2", [1], 0), ("A2", [1], 1), ("A2", [1], 2),
])
def test_genus_matches_sheaf_cohomology_oracle(spec, crossed, k):
    space = homogeneous_space(spec, crossed)
    expected = _genus_by_sheaf_cohomology(space, k)
    got = elliptic_genus(space, k)
    for n in range(k + 1):
        assert got.coefficient(n) == expected.get(n, LaurentY()), (spec, n)


# --- weak Jacobi form structure ----------------------------------------------

def _y_shifted(series, shift):
    return QYSeries(series.prec2,
                    {k2: lau.shift(shift) for k2, lau in series.c.items()})


@pytest.mark.parametrize("name,coeffs", [
    ("k3", [Fraction(2)]), ("quintic", [Fraction(-100)]),
    ("g2_cy", [Fraction(-36)])])
def test_cy_genus_lies_in_weak_jacobi_space(name, coeffs, request):
    manifold = request.getfixturevalue(name)
    d = manifold.dimension()
    k = 3
    genus = elliptic_genus(manifold, k)
    shift = (d - d % 2) // 2
    elements = [_y_shifted(e.series, shift)
                for e in basis_half_integral(0, d, prec=k)]
    assert linear_fit(genus, elements) == coeffs


def test_serre_symmetry_of_coefficients():
    spaces = [proj(1), proj(2), proj(3), homogeneous_space("A3", [2])]
    for space in spaces:
        d = space.dimension()
        g = elliptic_genus(space, 2)
        for n in range(3):
            lau = g.coefficient(n)
            assert lau.reciprocal_y().shift(d) == lau, (space, n)


def test_y_equals_one_is_rigid_euler_number(k3, quintic, g2_cy):
    examples = [proj(1), proj(2), proj(3), k3, quintic, g2_cy,
                homogeneous_space("G2", [1])]
    for m in examples:
        d = m.dimension()
        g = elliptic_genus(m, 2).specialize_y1()
        euler = chern_number(m, [d]) if d else chern_number(m, [])
        assert g.coefficient(0) == LaurentY.const(euler), m
        for n in range(1, 3):
            assert g.coefficient(n) == LaurentY(), (m, n)


def test_chi_y_duality(k3, quintic, g2_cy):
    for m in [proj(2), proj(4), k3, quintic, g2_cy,
              homogeneous_space("A3", [2])]:
        v = chi_y(m)
        assert v.reciprocal_y().shift(m.dimension()) == v


def test_chi_y_top_coefficient_counts_todd_genus(k3):
    # chi_y at y=0 equals chi(O); 1 for rational homogeneous spaces, 2 for K3
    for space in [proj(3), homogeneous_space("A4", [3]),
                  homogeneous_space("G2", [2])]:
        assert chi_y(space).c.get(0, 0) == 1
    assert chi_y(k3).c.get(0) == 2


@pytest.mark.parametrize("spec,crossed", [
    ("A5", [2]), ("C3", [1, 2, 3]), ("D5", [5]), ("B3", [2]), ("G2", [1, 2]),
])
def test_chi_y_counts_bruhat_cells(spec, crossed):
    # h^{p,q}(G/P) = 0 for p != q and h^{p,p} counts the Schubert cells of
    # dimension p, one per w in W^P of length p; the length is counted as
    # the positive roots that w sends to negative ones
    space = homogeneous_space(spec, crossed)
    rs = space.root_system
    reps = space.parabolic.coset_representatives()
    cells = Counter(sum(1 for a in rs.positive_roots
                        if not rs.is_positive_root(w.apply(a)))
                    for w in reps)
    assert chi_y(space) == LaurentY({k: Fraction(n) for k, n in cells.items()})
    assert chern_number(space, [space.dimension()]) == len(reps)


# --- symmetric function engine ------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
       st.integers(1, 6))
def test_power_sums_in_elementary_evaluates_on_roots(roots, m):
    dim = len(roots)
    m = 1 + (m - 1) % dim
    e = [Fraction(0)] * (dim + 1)
    e[0] = Fraction(1)
    # elementary symmetric polynomials by iterated multiplication
    for x in roots:
        for i in range(dim, 0, -1):
            e[i] = e[i] + x * e[i - 1]
    poly = power_sum_in_elementary(m, dim)
    value = Fraction(0)
    for exps, coeff in poly.items():
        term = coeff
        for i, a in enumerate(exps):
            term *= e[i + 1] ** a
        value += term
    assert value == sum(Fraction(x) ** m for x in roots)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
       st.integers(1, 6))
def test_elementary_in_power_sums_evaluates_on_roots(roots, m):
    dim = len(roots)
    m = 1 + (m - 1) % dim
    p = [sum(Fraction(x) ** j for x in roots) for j in range(dim + 1)]
    poly = elementary_in_power_sums(m, dim)
    value = Fraction(0)
    for exps, coeff in poly.items():
        term = coeff
        for i, a in enumerate(exps):
            term *= p[i + 1] ** a
        value += term
    expected = [Fraction(1)] + [Fraction(0)] * dim
    for x in roots:
        for i in range(dim, 0, -1):
            expected[i] = expected[i] + x * expected[i - 1]
    assert value == expected[m]
