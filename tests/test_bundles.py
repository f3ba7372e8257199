"""Equivariant vector bundles: frozen listings and multiplicative laws."""

import random
from fractions import Fraction
from math import comb

import pytest

from ellgenus.bundles import (EquivariantVectorBundle,
                              completely_reducible_bundle, irreducible_bundle)
from ellgenus.ci import CompleteIntersection
from ellgenus.cohomology import CohomologyClass
from ellgenus.errors import BaseMismatch, InvalidInput, WedgeTooLarge
from ellgenus.homog import homogeneous_space
from ellgenus.roots import Weight

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


@pytest.fixture(scope="module")
def p4():
    return homogeneous_space("A4", [1])


@pytest.fixture(scope="module")
def gr35():
    return homogeneous_space("A4", [3])


def _cs(bundle):
    return [str(c) for c in bundle.chern_classes()]


def test_line_bundle_character_and_todd(p4):
    o1 = irreducible_bundle(p4, (1, 0, 0, 0))
    assert o1.rank == 1
    assert [str(c) for c in o1.chern_character()] == \
        ["1", "x0", "1/2*x0^2", "1/6*x0^3", "1/24*x0^4"]
    assert [str(c) for c in o1.todd_classes()] == \
        ["1", "1/2*x0", "1/12*x0^2", "0", "-1/720*x0^4"]
    assert _cs(o1) == ["1", "x0", "0", "0", "0"]


def test_bundle_algebra_listing(p4):
    e1 = completely_reducible_bundle(p4, [(2, 0, 0, 0)])
    e2 = completely_reducible_bundle(p4, [(3, 0, 0, 0)])
    assert _cs(e1) == ["1", "2*x0", "0", "0", "0"]
    assert _cs(e2) == ["1", "3*x0", "0", "0", "0"]
    assert _cs(e1 + e2) == ["1", "5*x0", "6*x0^2", "0", "0"]
    assert _cs(e1 * e2) == ["1", "5*x0", "0", "0", "0"]
    both = completely_reducible_bundle(p4, [(2, 0, 0, 0), (3, 0, 0, 0)])
    assert _cs(both) == ["1", "5*x0", "6*x0^2", "0", "0"]
    assert _cs(e1.symmetric_power(3)) == ["1", "6*x0", "0", "0", "0"]
    assert _cs(e1.wedge_power(2)) == ["1", "0", "0", "0", "0"]


def test_irreducible_rank4_listing(p4):
    e = irreducible_bundle(p4, (0, 1, 0, 0))
    assert e.rank == 4
    assert _cs(e) == IRRED_0100_ON_P4


def test_tautological_ranks_on_grassmannian(gr35):
    # the irreducible bundle with highest weight omega_4 restricts from the
    # rank-2 dual tautological factor of Gr(3,5)
    e = irreducible_bundle(gr35, (0, 0, 0, 1))
    assert e.rank == 2
    assert irreducible_bundle(gr35, (1, 0, 0, 0)).rank == 3


def test_whitney_sum_identity_random(p4, gr35):
    rng = random.Random(4)
    for base in (p4, gr35):
        n = 5
        for _ in range(10):
            wa = [Weight([rng.randint(-3, 3) for _ in range(n)])
                  for _ in range(rng.randint(1, 3))]
            wb = [Weight([rng.randint(-3, 3) for _ in range(n)])
                  for _ in range(rng.randint(1, 3))]
            a = EquivariantVectorBundle(base, wa)
            b = EquivariantVectorBundle(base, wb)
            left = (a + b).total_chern_class()
            right = (a.total_chern_class() * b.total_chern_class()).truncate(
                base.dimension())
            assert left == right


def test_chern_character_is_additive_and_multiplicative(p4):
    rng = random.Random(11)
    n, d = 5, p4.dimension()
    for _ in range(6):
        a = EquivariantVectorBundle(
            p4, [Weight([rng.randint(-2, 2) for _ in range(n)])
                 for _ in range(2)])
        b = EquivariantVectorBundle(
            p4, [Weight([rng.randint(-2, 2) for _ in range(n)])
                 for _ in range(2)])
        cha = a.chern_character()
        chb = b.chern_character()
        sum_ch = (a + b).chern_character()
        assert all(sum_ch[k] == cha[k] + chb[k] for k in range(d + 1))
        prod_ch = (a * b).chern_character()
        for k in range(d + 1):
            conv = CohomologyClass.zero(n)
            for i in range(k + 1):
                conv = conv + cha[i].times(chb[k - i], max_degree=d)
            assert prod_ch[k] == conv.graded_component(k)


def test_todd_class_is_multiplicative(p4):
    a = irreducible_bundle(p4, (2, 0, 0, 0))
    b = irreducible_bundle(p4, (0, 1, 0, 0))
    d = p4.dimension()
    ta, tb = a.todd_classes(), b.todd_classes()
    tsum = (a + b).todd_classes()
    for k in range(d + 1):
        conv = CohomologyClass.zero(5)
        for i in range(k + 1):
            conv = conv + ta[i].times(tb[k - i], max_degree=d)
        assert tsum[k] == conv.graded_component(k)


def test_power_operation_ranks(p4):
    e = irreducible_bundle(p4, (0, 1, 0, 0))  # rank 4
    for k in range(5):
        assert e.symmetric_power(k).rank == comb(4 + k - 1, k)
        assert e.wedge_power(k).rank == comb(4, k)
    assert e.wedge_power(4).rank == 1
    det = e.determinant()
    assert det.rank == 1
    assert det.chern_classes()[1] == e.chern_classes()[1]


def test_wedge_above_rank_is_rank_zero(p4):
    e = irreducible_bundle(p4, (2, 0, 0, 0))
    top = e.wedge_power(2)
    assert top.rank == 0
    assert _cs(top) == ["1", "0", "0", "0", "0"]
    assert e.wedge_power(5).rank == 0
    with pytest.raises(WedgeTooLarge):
        e.wedge_power(-1)
    with pytest.raises(InvalidInput):
        e.symmetric_power(-1)


def test_negative_wedge_power_is_invalid_input(p4):
    with pytest.raises(InvalidInput):
        irreducible_bundle(p4, (1, 0, 0, 0)).wedge_power(-1)


def test_non_integer_highest_weight_is_refused(p4):
    # int() would truncate (2.7, 0, 0, 0) to O(2)
    for bad in (2.7, Fraction(2)):
        with pytest.raises(InvalidInput, match="must be an integer"):
            irreducible_bundle(p4, (bad, 0, 0, 0))


def test_dual_is_an_involution(p4):
    e = irreducible_bundle(p4, (0, 1, 0, 0))
    assert e.dual().dual() == e
    assert e.dual().chern_classes()[1] == -e.chern_classes()[1]
    o2 = irreducible_bundle(p4, (2, 0, 0, 0))
    assert (o2 * o2.dual()).chern_classes()[1] == CohomologyClass.zero(5)


def test_base_mismatch_is_rejected(p4):
    p3 = homogeneous_space("A3", [1])
    a = irreducible_bundle(p4, (1, 0, 0, 0))
    b = irreducible_bundle(p3, (1, 0, 0))
    with pytest.raises(BaseMismatch):
        a + b
    with pytest.raises(BaseMismatch):
        a * b


def test_tangent_bundle_weights_and_rank(p4, gr35):
    assert p4.tangent_bundle().rank == 4
    assert gr35.tangent_bundle().rank == 6
    assert p4.cotangent_bundle() == p4.tangent_bundle().dual()


def test_chern_character_top_recovers_integrals(p4):
    # chi(P^4, O(k)) = binomial(k+4, 4) by Hirzebruch-Riemann-Roch
    td = p4.todd_classes()
    for k in range(5):
        ok = irreducible_bundle(p4, (k, 0, 0, 0))
        ch = ok.chern_character()
        total = CohomologyClass.zero(5)
        for i in range(5):
            total = total + ch[i].times(td[4 - i], max_degree=4)
        assert p4.integrate(total) == comb(k + 4, 4)


# --- Chern classes against the product loops they replaced -------------------

def _product_chern_classes(bundle):
    """Test-only reference: c(E) = prod_w (1 + x_w) truncated at the base
    dimension, as [c_0, ..., c_d] and as the total class."""
    dim, n = bundle.base.dimension(), bundle.base.ambient_dim
    total = CohomologyClass.one(n)
    for w in bundle.weights:
        total = total.times(CohomologyClass.one(n) + CohomologyClass.linear_form(w),
                            dim)
    return [total.graded_component(k) for k in range(dim + 1)], total


def _product_euler_class(manifold):
    """Test-only reference: the product of the section bundle's linear
    forms, truncated at the ambient dimension."""
    total = CohomologyClass.one(manifold.ambient_dim)
    for w in manifold.bundle.weights:
        total = total.times(CohomologyClass.linear_form(w),
                            manifold.ambient.dimension())
    return total


def _tangent(spec, crossed):
    return lambda: homogeneous_space(spec, crossed).tangent_bundle()


def _on_p4(build):
    def bundle():
        p4 = homogeneous_space("A4", [1])
        o = lambda k: completely_reducible_bundle(p4, [(k, 0, 0, 0)])
        return build(p4.tangent_bundle(), o)
    return bundle


BUNDLES = {
    "T A4[3]": _tangent("A4", [3]),
    "T B3[1,3]": _tangent("B3", [1, 3]),
    "T G2[1,2]": _tangent("G2", [1, 2]),
    "O(2)+O(3) on P4": _on_p4(lambda t, o: o(2) + o(3)),
    "T+T* on P4": _on_p4(lambda t, o: t + t.dual()),
    "T*O(1) on P4": _on_p4(lambda t, o: t * o(1)),
    "T*T on P4": _on_p4(lambda t, o: t * t),
    "(T+O(1))*T* on P4": _on_p4(lambda t, o: (t + o(1)) * t.dual()),
}


@pytest.mark.parametrize("name", BUNDLES)
def test_chern_classes_match_product_loop(name):
    bundle = BUNDLES[name]()
    classes, total = _product_chern_classes(bundle)
    assert bundle.chern_classes() == classes
    assert bundle.total_chern_class() == total


SECTIONS = {
    "K3": ("A3", [1], [(4, 0, 0)]),
    "quintic": ("A4", [1], [(5, 0, 0, 0)]),
    "Gr(2,5)(1,1,3)": ("A4", [2], [(0, 1, 0, 0), (0, 1, 0, 0), (0, 3, 0, 0)]),
    "G2 CY3": ("G2", [1, 2], [(2, 0), (0, 1), (0, 1)]),
}


@pytest.mark.parametrize("name", SECTIONS)
def test_section_bundle_classes_match_product_loops(name):
    spec, crossed, highest_weights = SECTIONS[name]
    space = homogeneous_space(spec, crossed)
    manifold = CompleteIntersection(
        completely_reducible_bundle(space, highest_weights))
    classes, total = _product_chern_classes(manifold.bundle)
    assert manifold.bundle.chern_classes() == classes
    assert manifold.bundle.total_chern_class() == total
    assert manifold.euler_class() == _product_euler_class(manifold)
    assert manifold.euler_class() == classes[manifold.bundle.rank]
