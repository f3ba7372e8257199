"""Homogeneous spaces: Chern data and exact fixed-point integration."""

import random
from fractions import Fraction

import pytest

from ellgenus.cohomology import CohomologyClass
from ellgenus.errors import DegeneratePoint
from ellgenus.homog import HomogeneousSpace, homogeneous_space, localize
from ellgenus.roots import Weight, WeylElement, parabolic

GR35_C2 = ("x0^2 + 4*x0*x1 + x1^2 + 4*x0*x2 + 4*x1*x2 + x2^2 - 5*x0*x3 "
           "- 5*x1*x3 - 5*x2*x3 + 3*x3^2 - 5*x0*x4 - 5*x1*x4 - 5*x2*x4 "
           "+ 9*x3*x4 + 3*x4^2")
P4_C2 = ("6*x0^2 - 3*x0*x1 - 3*x0*x2 + x1*x2 - 3*x0*x3 + x1*x3 + x2*x3 "
         "- 3*x0*x4 + x1*x4 + x2*x4 + x3*x4")


def proj(n):
    return homogeneous_space(f"A{n}", [1])


def test_projective_space_tangent_listing():
    p4 = proj(4)
    cs = p4.tangent_bundle().chern_classes()
    assert str(cs[0]) == "1"
    assert str(cs[1]) == "4*x0 - x1 - x2 - x3 - x4"
    assert str(cs[2]) == P4_C2
    cot = p4.cotangent_bundle().chern_classes()
    assert str(cot[1]) == "-4*x0 + x1 + x2 + x3 + x4"
    assert str(cot[2]) == P4_C2
    assert p4.chern_classes() == cs


def test_grassmannian_listing_and_numbers():
    gr = homogeneous_space("A4", [3])
    assert gr.dimension() == 6
    cs = gr.chern_classes()
    assert str(cs[1]) == "2*x0 + 2*x1 + 2*x2 - 3*x3 - 3*x4"
    assert str(cs[2]) == GR35_C2
    assert gr.integrate(cs[6]) == 10
    assert gr.integrate(cs[1].power(6)) == 78125
    assert gr.integrate(cs[1] * cs[2] * cs[3]) == 4275
    assert gr.integrate(cs[3] * cs[4]) == 0


def test_non_integral_integral_is_the_exact_rational():
    # c1^6 / 7 is not an integer
    gr = homogeneous_space("A4", [3])
    f = gr.chern_classes()[1].power(6) / 7
    assert gr.integrate(f) == Fraction(78125, 7)


def test_fixed_point_counts():
    assert proj(4).fixed_point_count() == 5
    assert homogeneous_space("A4", [3]).fixed_point_count() == 10
    assert homogeneous_space("G2", [1, 2]).fixed_point_count() == 12


@pytest.mark.parametrize("spec,crossed", [
    ("A2", [1]), ("A3", [2]), ("B2", [1]), ("B2", [2]),
    ("G2", [1]), ("A4", [3]),
])
def test_localization_identities(spec, crossed):
    space = homogeneous_space(spec, crossed)
    d = space.dimension()
    # top Todd class integrates to chi(O) = 1, top Chern class to the
    # Euler number = the number of fixed points
    assert space.integrate(space.todd_classes()[d]) == 1
    assert space.integrate(space.chern_classes()[d]) == space.fixed_point_count()


def test_localization_sum_of_constant_vanishes(rng):
    space = homogeneous_space("A3", [1])
    point = Weight([rng.randint(-10**6, 10**6) for _ in range(4)])
    one = CohomologyClass.one(4)
    assert space.localization_sum(
        point, [lambda moved, chern: (one.evaluate(moved),)]) == [0]


@pytest.mark.parametrize("spec,crossed", [("G2", [1]), ("E6", [1])])
def test_localization_reads_only_the_integer_matrices(spec, crossed, monkeypatch):
    # every integrand sees D A_w p in ints for an int point p; the factor D
    # cancels from each top-degree total, and no Fraction matrix is built
    space = homogeneous_space(spec, crossed)
    reps = space.parabolic.coset_representatives()
    monkeypatch.setattr(WeylElement, "matrix", property(
        lambda self: pytest.fail("localization read a Fraction matrix")))
    point = tuple(7 ** i for i in range(space.ambient_dim))  # on no root hyperplane
    seen = []

    def euler(moved, chern):
        seen.append(moved)
        return (chern[-1],)

    assert space.localization_sum(point, [euler]) == [len(reps)]
    assert seen == [tuple(sum(v * p for v, p in zip(row, point)) for row in w.scaled)
                    for w in reps]
    assert all(type(v) is int for moved in seen for v in moved)


def test_integration_selects_top_degree_component():
    p2 = proj(2)
    c = p2.chern_classes()
    mixed = CohomologyClass.constant(3, 7) + c[1] + c[2] * Fraction(5)
    assert p2.integrate(mixed) == 5 * p2.integrate(c[2])


def test_integration_is_rng_independent():
    gr = homogeneous_space("A4", [3])
    c1 = gr.chern_classes()[1]
    v1 = gr.integrate(c1.power(6), rng=random.Random(1))
    v2 = gr.integrate(c1.power(6), rng=random.Random(999))
    assert v1 == v2 == 78125


def _euler(moved, chern):
    return (chern[-1],)


def test_degenerate_points_raise():
    # only a point supplied by the caller can lie on a root hyperplane,
    # here x0 = x1 on P3, where the tangent root x0 - x1 of the first
    # fixed point vanishes
    with pytest.raises(DegeneratePoint):
        proj(3).localization_sum((1, 1, 0, 0), [_euler])


class ConstantRng:
    """Random source whose randint always returns the same value."""

    def __init__(self, value):
        self.value = value

    def randint(self, a, b):
        return self.value


ONE_PER_TYPE = [("A1", [1]), ("A4", [2]), ("B3", [1]), ("C3", [1]),
                ("D4", [1]), ("G2", [1]), ("F4", [1]), ("E6", [1]),
                ("E7", [7]), ("E8", [8])]


@pytest.mark.parametrize("spec,crossed", ONE_PER_TYPE,
                         ids=[f"{spec}{crossed}" for spec, crossed in ONE_PER_TYPE])
def test_localize_draws_two_dominant_points(spec, crossed, monkeypatch):
    space = homogeneous_space(spec, crossed)
    rs = space.root_system
    points = []

    def record(self, point, integrands, section=()):
        points.append(point)
        return [0] * len(integrands)

    monkeypatch.setattr(HomogeneousSpace, "localization_sum", record)
    for rng in ([random.Random(seed) for seed in range(10)]
                + [ConstantRng(1), ConstantRng(20)]):
        points.clear()
        assert localize(space, [_euler, _euler], rng) == [0, 0]
        # one sum per point, whatever the number of integrands
        assert len(points) == 2
        # in the open dominant chamber: off every root hyperplane, at
        # every fixed point, since W permutes the roots
        assert all(sum(a * x for a, x in zip(alpha.coords, p)) > 0
                   for p in points for alpha in rs.positive_roots)
        # rank 1 has one ray; above it the two points are never
        # proportional, so the two-point check compares distinct sums
        first, second = points
        proportional = all(first[i] * second[j] == first[j] * second[i]
                           for i in range(len(first)) for j in range(i))
        assert proportional == (rs.rank == 1)


def test_evaluate_is_exact_at_integer_points():
    c = CohomologyClass.linear_form((1, 3))   # x0 + 3*x1
    square = c * c
    assert square.evaluate((1, 2)) == 49
    assert isinstance(square.evaluate((1, 2)), Fraction)
    big = square.evaluate((10 ** 9, 3))
    assert big == 1000000018000000081 and isinstance(big, Fraction)
    assert square.evaluate((Fraction(1, 2), 1)) == Fraction(49, 4)
    at_float = square.evaluate((1.0, 2))
    assert at_float == 49.0 and isinstance(at_float, float)


def test_hyperplane_class_powers_on_projective_space():
    p4 = proj(4)
    x0 = CohomologyClass.linear_form(Weight([1, 0, 0, 0, 0]))
    assert p4.integrate(x0.power(4)) == 1
    p2 = proj(2)
    x0 = CohomologyClass.linear_form(Weight([1, 0, 0]))
    assert p2.integrate(x0.power(2)) == 1


def test_degree_of_grassmannian_insides_plucker():
    # deg Gr(2,4) in P^5 is the Catalan number 2
    gr24 = homogeneous_space("A3", [2])
    c1 = gr24.chern_classes()[1]
    # c1 = 4*sigma_1, and the Plucker degree is int sigma_1^4 = 2
    assert gr24.integrate(c1.power(4)) == 2 * 4 ** 4


def test_tangent_weights_are_nilradical_roots():
    p = parabolic("A4", [1])
    space = HomogeneousSpace(p)
    assert space.tangent_weights == tuple(p.nilradical_roots) or \
        list(space.tangent_weights) == list(p.nilradical_roots)
    assert len(space.tangent_weights) == space.dimension()
