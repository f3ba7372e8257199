"""Complete intersections: adjunction, pushforward and classic numbers."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import ellgenus
from ellgenus.bundles import completely_reducible_bundle
from ellgenus.ci import (CompleteIntersection, chern_number, chern_numbers,
                         complete_intersection)
from ellgenus.cohomology import CohomologyClass
from ellgenus.errors import ConsistencyError, DegeneratePoint, InvalidInput
from ellgenus.homog import HomogeneousSpace, homogeneous_space


def _ci(space_spec, crossed, highest_weights):
    space = homogeneous_space(space_spec, crossed)
    return CompleteIntersection(
        completely_reducible_bundle(space, highest_weights))


@pytest.fixture(scope="module")
def k3():
    return _ci("A3", [1], [(4, 0, 0)])


@pytest.fixture(scope="module")
def quintic():
    return _ci("A4", [1], [(5, 0, 0, 0)])


def test_k3_quartic(k3):
    assert k3.dimension() == 2
    assert k3.integrate(k3.chern_classes()[2]) == 24
    assert chern_number(k3, [2]) == 24
    assert chern_number(k3, [1, 1]) == 0


def test_quintic_threefold(quintic):
    assert quintic.dimension() == 3
    assert chern_number(quintic, [3]) == -200
    # c1 vanishes in the cohomology of a Calabi-Yau even though its ambient
    # polynomial representative is a nonzero central form
    assert quintic.chern_classes()[1].is_zero() is False
    assert chern_number(quintic, [1, 1, 1]) == 0
    assert chern_number(quintic, [1, 2]) == 0


def test_chern_number_validation(quintic):
    with pytest.raises(ValueError):
        chern_number(quintic, [4])
    with pytest.raises(ValueError):
        chern_number(quintic, [0, 3])
    # mismatch in total degree gives exact zero without integrating
    assert chern_number(quintic, [1]) == Fraction(0)
    assert chern_number(quintic, [2]) == Fraction(0)


def test_adjunction_division_consistency(k3, quintic):
    for ci in (k3, quintic):
        ambient_classes = ci.ambient.chern_classes()
        bundle_classes = ci.bundle.chern_classes()
        quotient = ci.chern_classes()
        n = ci.ambient_dim
        for k in range(ci.dimension() + 1):
            conv = CohomologyClass.zero(n)
            for j in range(k + 1):
                if j < len(bundle_classes) and k - j <= ci.dimension():
                    conv = conv + bundle_classes[j].times(
                        quotient[k - j], ci.ambient.dimension())
            assert conv.graded_component(k) == \
                ambient_classes[k].graded_component(k)


def test_negative_dimension_rejected():
    from ellgenus.errors import NegativeDimension
    with pytest.raises(NegativeDimension):
        _ci("A2", [1], [(1, 0), (1, 0), (1, 0)])


def test_dimension_zero_point_count():
    conic = _ci("A1", [1], [(2,)])
    assert conic.dimension() == 0
    assert chern_number(conic, []) == 2
    line_pair = _ci("A2", [1], [(1, 0), (2, 0)])
    assert line_pair.dimension() == 0
    assert chern_number(line_pair, []) == 2


def test_rank_zero_section_bundle_is_identity():
    p2 = homogeneous_space("A2", [1])
    ci = complete_intersection(completely_reducible_bundle(p2, []))
    assert ci.dimension() == 2
    assert chern_number(ci, [1, 1]) == 9
    assert chern_number(p2, [1, 1]) == 9
    assert ci.euler_class() == CohomologyClass.one(3)


def test_classical_hypersurface_numbers():
    # degree-d surfaces in P^3: c2 = d^3 - 4d^2 + 6d
    for d in range(1, 6):
        surf = _ci("A3", [1], [(d, 0, 0)])
        assert chern_number(surf, [2]) == d ** 3 - 4 * d ** 2 + 6 * d
    # cubic threefold: Euler number -6; even complete intersection (2,2):
    # Euler number 0 would need P^5; use cubic surface instead (chi = 9)
    cubic3 = _ci("A4", [1], [(3, 0, 0, 0)])
    assert chern_number(cubic3, [3]) == -6
    cubic_surface = _ci("A3", [1], [(3, 0, 0)])
    assert chern_number(cubic_surface, [2]) == 9
    assert chern_number(cubic_surface, [1, 1]) == 3  # K^2 of a del Pezzo of degree 3


def test_complete_intersection_in_grassmannian():
    # the CY threefold of two hyperplanes and the quadric... simplest
    # Gr(2,4) cut by a section of O(1)^2 x O(2): dim 4 - 3 = 1
    gr24 = homogeneous_space("A3", [2])
    w = (0, 1, 0)
    curve = CompleteIntersection(
        completely_reducible_bundle(gr24, [w, w, (0, 2, 0)]))
    assert curve.dimension() == 1
    # genus from degree: c1 number is an even integer
    val = chern_number(curve, [1])
    assert val.denominator == 1 and val % 2 == 0


# --- chern_numbers: the fixed-point-first path ---------------------------------


def _partitions(n, largest=None):
    """Partitions of n as non-increasing lists."""
    largest = n if largest is None else largest
    if n == 0:
        yield []
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest


CROSS_CHECKED = {
    "Gr(3,5)": ("A4", [3], []),
    "quintic": ("A4", [1], [(5, 0, 0, 0)]),
    "Gr(2,5)(1,1,3)": ("A4", [2], [(0, 1, 0, 0), (0, 1, 0, 0), (0, 3, 0, 0)]),
    "G2[1,2]": ("G2", [1, 2], []),
}


@pytest.mark.parametrize("name", CROSS_CHECKED)
def test_chern_numbers_match_polynomial_integration(name):
    spec, crossed, weights = CROSS_CHECKED[name]
    manifold = (_ci(spec, crossed, weights) if weights
                else homogeneous_space(spec, crossed))
    classes = manifold.chern_classes()
    parts = list(_partitions(manifold.dimension()))
    expected = []
    for degrees in parts:
        f = CohomologyClass.one(manifold.ambient_dim)
        for k in degrees:
            f = f * classes[k]
        expected.append(manifold.integrate(f))
    assert chern_numbers(manifold, parts) == expected


PUSHFORWARD_CHECKED = {
    "K3": ("A3", [1], [(4, 0, 0)]),
    "quintic": ("A4", [1], [(5, 0, 0, 0)]),
    "Gr(2,5)(1,1,3)": ("A4", [2], [(0, 1, 0, 0), (0, 1, 0, 0), (0, 3, 0, 0)]),
    "G2 CY3": ("G2", [1, 2], [(2, 0), (0, 1), (0, 1)]),
}


@pytest.mark.parametrize("name", PUSHFORWARD_CHECKED)
def test_integrate_matches_euler_class_pushforward(name, rng):
    # int_X f localized with the weight e(E)/e(TM) equals int_M f_d * c_top(E)
    # integrated over the ambient space as one polynomial
    manifold = _ci(*PUSHFORWARD_CHECKED[name])
    dim = manifold.dimension()
    classes = manifold.chern_classes()
    integrands = [manifold.todd_classes()[dim]]
    for degrees in _partitions(dim):
        f = CohomologyClass.one(manifold.ambient_dim)
        for k in degrees:
            f = f * classes[k]
        integrands.append(f)

    def pushed(f):
        return f.graded_component(dim).times(manifold.euler_class())

    for f in integrands:
        assert manifold.integrate(f) == manifold.ambient.integrate(pushed(f))
    top = classes[dim]
    assert (manifold.integrate(top, rng=rng)
            == manifold.ambient.integrate(pushed(top), rng=rng))


def test_chern_numbers_validation(quintic):
    # lists whose degrees do not sum to the dimension, the empty one
    # included, are zero; the others are integrated in the same call
    assert chern_numbers(quintic, [[], [1], [3], [1, 1]]) == [0, 0, -200, 0]
    assert chern_numbers(quintic, []) == []
    for bad in ([4], [0, 3], [-1, 4]):
        with pytest.raises(ValueError):
            chern_numbers(quintic, [[3], bad])


def test_non_integer_chern_degrees_are_refused():
    # int() would truncate them to c_1^4 and c_2 c_1 of P^4
    p4 = homogeneous_space("A4", [1])
    for bad in ([1.5, 1.5, 1, 1], [2.9, 1.2], [Fraction(4)]):
        with pytest.raises(InvalidInput, match="must be an integer"):
            chern_number(p4, bad)


def test_localization_sum_raises_at_a_degenerate_point(k3):
    # P3 and the quartic K3 in it, a G/P and a complete intersection, at a
    # point supplied by the caller on the root hyperplane x0 = x1
    for manifold in (k3.ambient, k3):
        with pytest.raises(DegeneratePoint):
            k3.ambient.localization_sum(
                (1, 1, 0, 0), [lambda moved, chern: (chern[-1],)],
                manifold.section)


def test_disagreeing_points_raise_consistency_error(drifting_point_sums):
    # a fresh quintic: the module's one has its Chern numbers stored
    quintic = _ci("A4", [1], [(5, 0, 0, 0)])
    with pytest.raises(ConsistencyError):
        chern_numbers(quintic, [[3], [1, 2]])
    with pytest.raises(ConsistencyError):
        chern_number(homogeneous_space("A2", [1]), [2])


def _counted_sums(monkeypatch):
    """Wrap localization_sum; returns the number of integrands of each
    call, in call order."""
    original = HomogeneousSpace.localization_sum
    calls = []

    def counted(self, point, integrands, section=()):
        calls.append(len(integrands))
        return original(self, point, integrands, section)

    monkeypatch.setattr(HomogeneousSpace, "localization_sum", counted)
    return calls


def test_chern_numbers_are_localized_once_per_manifold(monkeypatch):
    calls = _counted_sums(monkeypatch)
    quintic = _ci("A4", [1], [(5, 0, 0, 0)])
    genus = ellgenus.elliptic_genus(quintic, 5)
    assert chern_number(quintic, [3]) == -200
    assert ellgenus.chi_y(quintic) == genus.coefficient(0)
    # the genus's one localization, at two points, served all three
    assert len(calls) == 2 and calls[0] == calls[1]
    # a repeated monomial, in either order, is integrated once
    calls.clear()
    quintic = _ci("A4", [1], [(5, 0, 0, 0)])
    assert chern_numbers(quintic, [[1, 2], [2, 1]]) == [0, 0]
    assert calls == [1, 1]
    assert chern_numbers(quintic, [[2, 1], [3]]) == [0, -200]
    assert calls == [1, 1, 1, 1]
    # G/P keeps its own table
    p2 = homogeneous_space("A2", [1])
    assert chern_numbers(p2, [[2], [1, 1]]) == [3, 9]
    assert chern_number(p2, [1, 1]) == 9
    assert calls == [1, 1, 1, 1, 2, 2]


def test_failed_check_stores_no_chern_number(drifting_point_sums):
    quintic = _ci("A4", [1], [(5, 0, 0, 0)])
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            chern_numbers(quintic, [[3], [1, 2]])
    assert drifting_point_sums == [2, 2, 2, 2] and quintic._chern_numbers == {}


def test_failed_check_stores_nothing_under_optimized_python():
    script = textwrap.dedent("""
        from ellgenus import HomogeneousSpace, ci, homogeneous_space
        from ellgenus.errors import ConsistencyError

        assert False, "assert statements are still active"
        original = HomogeneousSpace.localization_sum
        calls = []

        def drifting(self, point, integrands, section=()):
            calls.append(len(integrands))
            return [t + len(calls)
                    for t in original(self, point, integrands, section)]

        HomogeneousSpace.localization_sum = drifting
        p2 = homogeneous_space("A2", [1])
        for _ in range(2):
            try:
                ci.chern_number(p2, [2])
            except ConsistencyError:
                print("ConsistencyError")
        print(len(calls))
    """)
    src = str(Path(ellgenus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["ConsistencyError"] * 2 + ["4"]


def test_polynomial_integration_checks_its_two_points(monkeypatch):
    drift = iter(range(100))
    monkeypatch.setattr(HomogeneousSpace, "localization_sum",
                        lambda self, point, integrands, section=():
                        [Fraction(next(drift))] * len(integrands))
    p2 = homogeneous_space("A2", [1])
    with pytest.raises(ConsistencyError):
        p2.integrate(p2.chern_classes()[2])


def test_consistency_check_survives_optimized_python():
    script = textwrap.dedent("""
        from fractions import Fraction
        from itertools import count

        from ellgenus import HomogeneousSpace, ci, homogeneous_space
        from ellgenus.errors import ConsistencyError

        assert False, "assert statements are still active"
        calls = count()
        HomogeneousSpace.localization_sum = (
            lambda self, point, integrands, section=():
            [Fraction(next(calls))] * len(integrands))
        p2 = homogeneous_space("A2", [1])
        try:
            ci.chern_number(p2, [2])
        except ConsistencyError:
            print("ConsistencyError")
        try:
            p2.integrate(p2.chern_classes()[2])
        except ConsistencyError:
            print("ConsistencyError")
    """)
    src = str(Path(ellgenus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["ConsistencyError"] * 2
