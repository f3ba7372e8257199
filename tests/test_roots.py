"""Root systems, Weyl groups and parabolic subgroups."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellgenus
from ellgenus import roots
from ellgenus.errors import (ConsistencyError, InvalidInput, NotPDominant, TooLarge,
                             UnknownType)
from ellgenus.roots import (MAX_FIXED_POINTS, ParabolicSubgroup, RootSystem, Weight,
                            WeylElement, min_coset_reps, parabolic,
                            root_system, weyl_elements, weyl_orbit)

POSITIVE_ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A4": 10, "B2": 4, "B3": 9, "C3": 9, "C4": 16,
    "D4": 12, "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
}

CARTAN_DETERMINANTS = {
    "A4": 5, "B3": 2, "C3": 2, "D4": 4, "G2": 1, "F4": 1,
    "E6": 3, "E7": 2, "E8": 1,
}


def _det(mat):
    m = [[Fraction(v) for v in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


@pytest.mark.parametrize("spec,count", sorted(POSITIVE_ROOT_COUNTS.items()))
def test_positive_root_counts(spec, count):
    assert len(root_system(spec).positive_roots) == count


@pytest.mark.parametrize("spec,det", sorted(CARTAN_DETERMINANTS.items()))
def test_cartan_determinants(spec, det):
    assert _det(root_system(spec).cartan_matrix()) == det


def test_simple_root_coordinates():
    assert [a.coords for a in root_system("A2").simple_roots] == \
        [(1, -1, 0), (0, 1, -1)]
    assert root_system("B3").simple_roots[2].coords == (0, 0, 1)
    assert root_system("C3").simple_roots[2].coords == (0, 0, 2)
    assert root_system("D4").simple_roots[3].coords == (0, 0, 1, 1)
    assert [a.coords for a in root_system("G2").simple_roots] == \
        [(0, 1, -1), (1, -2, 1)]
    f4 = root_system("F4")
    assert [a.coords for a in f4.simple_roots] == [
        (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1),
        (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))]


def test_cartan_matrices():
    assert root_system("A2").cartan_matrix() == [[2, -1], [-1, 2]]
    assert root_system("G2").cartan_matrix() == [[2, -3], [-1, 2]]
    b2 = root_system("B2").cartan_matrix()
    assert sorted((b2[0][1], b2[1][0])) == [-2, -1]


def test_root_system_spec_validation():
    for bad in ["Z4", "A0", "E9", "E5", "F3", "G3", "", "A", "4A"]:
        with pytest.raises(UnknownType):
            root_system(bad)
    assert root_system("e8").rank == 8  # case-insensitive


def test_fundamental_weights_pair_to_identity():
    for spec in ["A3", "B3", "C3", "D4", "G2", "F4", "E6"]:
        rs = root_system(spec)
        for i, fw in enumerate(rs.fundamental_weights):
            for j, a in enumerate(rs.simple_roots):
                assert fw.pair(a) == (1 if i == j else 0)


def test_type_a_fundamental_weights_are_partial_sums():
    rs = root_system("A4")
    assert [fw.coords for fw in rs.fundamental_weights] == [
        (1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 1, 1, 0, 0), (1, 1, 1, 1, 0)]


def test_weight_from_fundamental_roundtrip():
    rs = root_system("B3")
    for coeffs in [(1, 0, 0), (0, 2, 1), (3, -1, 4)]:
        w = rs.weight_from_fundamental(coeffs)
        assert rs.fundamental_coordinates(w) == coeffs
    with pytest.raises(ValueError):
        rs.weight_from_fundamental((1, 2))


def test_weyl_group_orders():
    assert len(weyl_elements(root_system("A4"))) == 120
    assert len(weyl_elements(root_system("B3"))) == 48
    assert len(weyl_elements(root_system("D4"))) == 192
    assert len(weyl_elements(root_system("G2"))) == 12
    assert len(weyl_elements(root_system("F4"))) == 1152


def test_weyl_orbit_sizes():
    a4 = root_system("A4")
    assert len(weyl_orbit(a4, a4.fundamental_weights[0])) == 5
    assert len(weyl_orbit(a4, a4.fundamental_weights[1])) == 10
    b3 = root_system("B3")
    assert len(weyl_orbit(b3, b3.fundamental_weights[0])) == 6
    g2 = root_system("G2")
    assert len(weyl_orbit(g2, g2.fundamental_weights[0])) == 6


def test_weyl_element_algebra():
    rs = root_system("A3")
    w = rs.simple_reflection(1) * rs.simple_reflection(2) * rs.simple_reflection(3)
    assert w * w.inverse() == WeylElement.identity(rs.ambient_dim)
    assert w.inverse().word == (3, 2, 1)
    for a in rs.simple_roots:
        assert a.reflect(a) == -a
        assert a.reflect(a).reflect(a) == a


@pytest.mark.parametrize("spec,den", [("A3", 1), ("G2", 3), ("F4", 2), ("E6", 4)])
def test_weyl_element_holds_one_integer_matrix(spec, den):
    # the walk's elements hold D M in ints with the type's D; the Fraction
    # matrix is built from it, and equality ignores D
    rs = root_system(spec)
    for w in weyl_elements(rs)[:50]:
        assert w.den == den
        assert all(type(v) is int for row in w.scaled for v in row)
        assert w.matrix == tuple(tuple(Fraction(v, den) for v in row)
                                 for row in w.scaled)
        assert w.apply(rs.simple_roots[0]) == Weight(
            [sum(m * a for m, a in zip(row, rs.simple_roots[0])) for row in w.matrix])
    n = rs.ambient_dim
    one, scaled_one = WeylElement.identity(n), WeylElement.identity(n, den)
    assert one == scaled_one and hash(one) == hash(scaled_one)
    s = rs.simple_reflection(1)
    assert s * s == one
    assert (s * s).den == den * den
    assert s.inverse() == s


def test_weyl_element_equality_and_hash_read_integer_rows(monkeypatch):
    # D M is compared across denominators with no Fraction matrix built
    monkeypatch.setattr(WeylElement, "matrix",
                        property(lambda self: pytest.fail("a Fraction matrix was built")))
    one, four = WeylElement.identity(8), WeylElement.identity(8, 4)
    assert one == four and hash(one) == hash(four)
    assert WeylElement.identity(7) != one
    reps = parabolic("E6", [2]).coset_representatives()
    assert len(set(reps)) == 72
    assert set(w * one for w in reps) == set(reps)
    assert reps[1] != reps[0] and reps[1] * reps[1].inverse() == four


def test_reflections_permute_roots():
    for spec in ["A3", "B2", "G2"]:
        rs = root_system(spec)
        allroots = set(r.coords for r in rs.positive_roots) | \
            set((-r).coords for r in rs.positive_roots)
        for a in rs.simple_roots:
            for r in rs.positive_roots:
                assert r.reflect(a).coords in allroots


def test_parabolic_frozen_grassmannian_listing():
    p = parabolic("A4", [3])
    assert [a.coords for a in p.levi_simple_roots] == [
        (1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (0, 0, 0, 1, -1)]
    assert [a.coords for a in p.levi_positive_roots] == [
        (1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (0, 0, 0, 1, -1), (1, 0, -1, 0, 0)]
    assert p.dimension() == 6
    assert len(p.coset_representatives()) == 10


def test_weight_multiplicities_frozen():
    p = parabolic("A4", [3])
    got = p.weight_multiplicities((1, 0, 3, 1))
    expected_order = [(5, 4, 4, 1, 0), (4, 5, 4, 1, 0), (5, 4, 4, 0, 1),
                      (4, 4, 5, 1, 0), (4, 5, 4, 0, 1), (4, 4, 5, 0, 1)]
    assert [w.coords for w in got] == expected_order
    assert all(m == 1 for m in got.values())

    got2 = p.weight_multiplicities((0, 1, -1, 0))
    assert [w.coords for w in got2] == [
        (0, 0, -1, 0, 0), (0, -1, 0, 0, 0), (-1, 0, 0, 0, 0)]
    assert all(m == 1 for m in got2.values())


def test_weight_multiplicities_rejects_non_dominant():
    p = parabolic("A4", [3])
    with pytest.raises(NotPDominant):
        p.weight_multiplicities((-1, 0, 3, 1))
    with pytest.raises(NotPDominant):
        p.weight_multiplicities((0, 0, 0, -1))
    # negative coefficient on the crossed node is allowed
    assert len(p.weight_multiplicities((0, 1, -1, 0))) == 3


def test_adjoint_multiplicities_on_borel():
    # crossing every node of A2 leaves a torus Levi: the representation
    # with highest weight 2*omega_1 is sl3-irreducible over the torus only
    # through its highest weight line
    p = parabolic("A2", [1, 2])
    got = p.weight_multiplicities((2, 0))
    assert list(got.values()) == [1]


def test_weyl_dimension_matches_multiplicity_total():
    cases = [
        ("A4", [3], (1, 0, 3, 1)),
        ("A4", [3], (0, 1, -1, 0)),
        ("A4", [1], (5, 0, 0, 0)),
        ("A3", [2], (2, 1, 0)),
        ("B3", [1], (3, 1, 0)),
        ("G2", [1], (2, 1)),
        ("G2", [1, 2], (2, 3)),
        ("C3", [2], (1, 2, 1)),
    ]
    for spec, crossed, hw in cases:
        p = parabolic(spec, crossed)
        mult = p.weight_multiplicities(hw)
        assert p.weyl_dimension(hw) == sum(mult.values()), (spec, crossed, hw)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([("A3", (1,)), ("A3", (2,)), ("B2", (1,)),
                        ("G2", (2,)), ("A2", (1, 2))]),
       st.data())
def test_weyl_dimension_matches_multiplicity_total_random(case, data):
    spec, crossed = case
    p = parabolic(spec, list(crossed))
    rank = p.root_system.rank
    hw = tuple(
        data.draw(st.integers(-2, 3) if (i + 1) in p.crossed
                  else st.integers(0, 3), label=f"hw{i}")
        for i in range(rank))
    mult = p.weight_multiplicities(hw)
    assert p.weyl_dimension(hw) == sum(mult.values())
    assert all(m >= 1 for m in mult.values())


def test_coset_representatives_are_minimal_and_complete():
    for spec, crossed, levi_order in [("A4", [3], 12), ("G2", [1], 2),
                                      ("A3", [1], 6), ("B2", [2], 2)]:
        p = parabolic(spec, crossed)
        rs = p.root_system
        reps = p.coset_representatives()
        total = len(weyl_elements(rs))
        assert len(reps) * levi_order == total
        for v in reps:
            vinv = v.inverse()
            for a in p.levi_simple_roots:
                assert rs.is_positive_root(vinv.apply(a))
        assert len(set(reps)) == len(reps)
        assert min_coset_reps(p) == reps


def test_parabolic_crossed_validation():
    with pytest.raises(ValueError):
        parabolic("A4", [])
    with pytest.raises(ValueError):
        parabolic("A4", [0])
    with pytest.raises(ValueError):
        parabolic("A4", [5])
    assert parabolic("A4", [3, 3]).crossed == (3,)


def test_dynkin_ascii_frozen():
    assert parabolic("A4", [3]).dynkin_ascii() == (
        "O---O---X---O\n"
        "1   2   3   4\n"
        "A4 with node 3 marked")
    assert parabolic("G2", [1, 2]).dynkin_ascii() == (
        "  3\n"
        "X=<=X\n"
        "1   2\n"
        "G2 with nodes (1, 2) marked")
    assert parabolic("D4", [1]).dynkin_ascii() == (
        "    O 4\n"
        "    |\n"
        "X---O---O\n"
        "1   2   3\n"
        "D4 with node 1 marked")
    assert parabolic("E6", [1]).dynkin_ascii() == (
        "        O 2\n"
        "        |\n"
        "X---O---O---O---O\n"
        "1   3   4   5   6\n"
        "E6 with node 1 marked")
    assert parabolic("B3", [2]).dynkin_ascii() == (
        "O---X=>=O\n"
        "1   2   3\n"
        "B3 with node 2 marked")
    assert parabolic("C3", [1]).dynkin_ascii() == (
        "X---O=<=O\n"
        "1   2   3\n"
        "C3 with node 1 marked")


def test_weight_str_uses_integer_tuples():
    assert str(Weight([Fraction(5), Fraction(4), Fraction(0)])) == "(5, 4, 0)"
    assert str(Weight([Fraction(1, 2), Fraction(-1, 2)])) == "(1/2, -1/2)"


# --------------------------------------------------------------------------
# oracles for the orbit walk and the integer root build: the direct
# constructions they replaced, kept here as references


def _reference_bfs(rs, accept):
    """Breadth-first search over products u * s_i by full matrix
    multiplication, keeping the new elements that pass accept."""
    identity = WeylElement.identity(rs.ambient_dim)
    kept = {identity}
    frontier = [identity]
    order = [identity]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(1, rs.rank + 1):
                v = u * rs.simple_reflection(i)
                if v not in kept and accept(v):
                    kept.add(v)
                    order.append(v)
                    nxt.append(v)
        frontier = nxt
    return order


def _reference_cosets(p):
    rs = p.root_system
    return _reference_bfs(rs, lambda v: all(
        rs.is_positive_root(v.inverse().apply(a)) for a in p.levi_simple_roots))


def _row_reduce(aug):
    """Gauss-Jordan elimination of a square Fraction system augmented on
    the right; returns the reduced rows."""
    n = len(aug)
    for col in range(n):
        piv = next(k for k in range(col, n) if aug[k][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for k in range(n):
            if k != col and aug[k][col]:
                f = aug[k][col]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[col])]
    return aug


def _reference_roots(rs):
    """Positive roots by closing the ambient simple roots under reflections
    and expanding each root over the simple roots with the Gram matrix."""
    simple = rs.simple_roots
    found = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for a in simple:
                img = r.reflect(a)
                if img not in found:
                    found.add(img)
                    nxt.append(img)
        frontier = nxt
    n = len(simple)
    gram = [[Fraction(a.dot(b)) for b in simple] for a in simple]
    coeffs = {}
    for r in found:
        # solve gram * c = (r . alpha_j)_j
        aug = _row_reduce([row[:] + [r.dot(a)] for row, a in zip(gram, simple)])
        c = tuple(row[n] for row in aug)
        assert all(x.denominator == 1 for x in c)
        if all(x >= 0 for x in c):
            coeffs[r] = tuple(int(x) for x in c)
    positive = sorted(coeffs, key=lambda r: (sum(coeffs[r]),
                                             tuple(-x for x in coeffs[r])))
    return positive, coeffs


def _reference_cartan(rs):
    """Cartan rows by Fraction pairings of the ambient simple roots."""
    return [[b.pair(a) for b in rs.simple_roots] for a in rs.simple_roots]


def _reference_fundamental_weights(rs):
    """Partial sums of e_i for type A; otherwise the simple roots combined
    with the columns of the Fraction inverse of the Cartan matrix."""
    n = rs.rank
    if rs.letter == "A":
        return [Weight([1 if j <= i else 0 for j in range(n + 1)]) for i in range(n)]
    aug = _row_reduce([[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
                       for i, row in enumerate(_reference_cartan(rs))])
    inv = [row[n:] for row in aug]
    weights = []
    for i in range(n):
        w = Weight([0] * rs.ambient_dim)
        for j, a in enumerate(rs.simple_roots):
            w = w + a * inv[j][i]
        weights.append(w)
    return weights


@pytest.mark.parametrize("spec,crossed", [
    ("A4", [3]), ("B3", [1, 3]), ("C4", [1, 2, 3, 4]), ("D4", [1, 3, 4]),
    ("F4", [2]), ("G2", [1, 2]), ("E6", [1]), ("E7", [7]),
    ("F4", [1, 2, 3, 4]), ("E6", [2])])
def test_coset_walk_matches_matrix_product_bfs(spec, crossed):
    p = parabolic(spec, crossed)
    got = [(w.matrix, w.word) for w in p.coset_representatives()]
    assert got == [(w.matrix, w.word) for w in _reference_cosets(p)]


@pytest.mark.parametrize("spec", ["A3", "B3", "G2", "F4"])
def test_weyl_elements_match_matrix_product_bfs(spec):
    rs = root_system(spec)
    got = [(w.matrix, w.word) for w in weyl_elements(rs)]
    assert got == [(w.matrix, w.word) for w in _reference_bfs(rs, lambda v: True)]


def test_weyl_orbit_matches_reflection_bfs():
    rs = root_system("B3")
    for weight in [rs.fundamental_weights[2],
                   rs.weight_from_fundamental((3, 0, -1)),
                   Weight([Fraction(1, 3), 2, 5])]:
        seen, order, frontier = {weight}, [weight], [weight]
        while frontier:
            nxt = []
            for w in frontier:
                for a in rs.simple_roots:
                    img = w.reflect(a)
                    if img not in seen:
                        seen.add(img)
                        order.append(img)
                        nxt.append(img)
            frontier = nxt
        assert weyl_orbit(rs, weight) == order


@pytest.mark.parametrize("spec,order", [("E7", 2903040), ("E8", 696729600)])
def test_weyl_elements_of_e7_and_e8_refused_before_walking(spec, order, no_walk):
    with pytest.raises(TooLarge, match=str(order)):
        weyl_elements(root_system(spec))


# every supported type through rank 8
SUPPORTED_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                   + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
                   + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("spec", SUPPORTED_TYPES)
def test_integer_root_build_matches_ambient_closure(spec):
    rs = root_system(spec)
    positive, coeffs = _reference_roots(rs)
    assert rs.positive_roots == positive
    assert [rs.root_coefficients(r) for r in rs.positive_roots] == \
        [coeffs[r] for r in positive]
    assert rs.cartan_matrix() == _reference_cartan(rs)
    assert rs.fundamental_weights == _reference_fundamental_weights(rs)


@pytest.mark.parametrize("spec,crossed", [("E7", [1]), ("C4", [1, 2, 3, 4]), ("G2", [1, 2])])
def test_parabolic_and_its_cosets_build_no_weight(spec, crossed, monkeypatch):
    # the root system, the parabolic and the walk are integer-only; the
    # Fraction roots are views built on first use
    def refuse(self, coords):
        raise AssertionError("a Weight was built")

    monkeypatch.setattr(Weight, "__init__", refuse)
    p = parabolic(spec, crossed)
    dim, count, walked = p.dimension(), p.fixed_point_count(), len(p.coset_representatives())
    monkeypatch.undo()
    rs = p.root_system
    positive, coeffs = _reference_roots(rs)
    assert rs.positive_roots == positive
    nilradical = [r for r in positive if any(coeffs[r][i - 1] for i in p.crossed)]
    assert p.nilradical_roots == nilradical
    assert p.levi_positive_roots == [r for r in positive if r not in nilradical]
    assert p.levi_simple_roots == [rs.simple_roots[i - 1] for i in p.levi_nodes]
    assert dim == len(nilradical) and count == walked == len(_reference_cosets(p))


DUAL_COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1, "C": lambda n: n + 1,
                "D": lambda n: 2 * n - 2, "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
                "F": lambda n: 9, "G": lambda n: 4}


@pytest.mark.parametrize("spec", SUPPORTED_TYPES)
def test_invariant_form_scales_are_dual_coxeter_numbers(spec):
    # v_i = s_i omega_i with s_i = h-check |long root|^2 / |alpha_i|^2
    rs = root_system(spec)
    long_norm = max(a.norm2() for a in rs.simple_roots)
    _, scales = rs._dual_basis
    assert scales == [DUAL_COXETER[rs.letter](rs.rank) * long_norm / a.norm2()
                      for a in rs.simple_roots]
    # the evaluation point is sum_i c_i v_i, a positive multiple of
    # sum_i c_i s_i omega_i in primitive integer coordinates
    labels = range(1, rs.rank + 1)
    point = rs.dominant_point(labels)
    assert all(isinstance(x, int) for x in point) and gcd(*point) == 1
    pairs = rs.fundamental_coordinates(Weight(point))
    t = pairs[0] / scales[0]
    assert t > 0 and pairs == tuple(c * s * t for c, s in zip(labels, scales))


@pytest.mark.parametrize("spec", ["A3", "B3", "C4", "D4", "G2", "F4", "E6"])
def test_dropped_positive_root_breaks_the_invariant_form(spec):
    rs = root_system(spec)
    rs._coefficients = rs._coefficients[:-1]
    with pytest.raises(ConsistencyError, match="invariant form"):
        rs.dominant_point([1] * rs.rank)


def test_type_a_invariant_form_holds_the_central_part():
    # v_i = (n+1) omega_i, and omega_i = e_1 + ... + e_i comes from it
    for n in range(1, 9):
        rs = root_system(f"A{n}")
        partial_sums = [tuple(int(j < i) for j in range(n + 1)) for i in range(1, n + 1)]
        vectors, _ = rs._dual_basis
        assert vectors == [tuple((n + 1) * x for x in w) for w in partial_sums]
        assert [fw.coords for fw in rs.fundamental_weights] == partial_sums


def test_root_system_class_refuses_a_non_integer_rank():
    # the rank check lives in RootSystem itself, not only in root_system
    with pytest.raises(InvalidInput, match="a rank must be an integer"):
        RootSystem("A", 4.9)


def test_non_integer_rank_and_crossed_nodes_are_refused():
    # int() would truncate them to A4 and node 1
    for rank in (4.9, Fraction(4)):
        with pytest.raises(InvalidInput, match="must be an integer"):
            root_system(("A", rank))
    for node in (1.5, Fraction(1)):
        with pytest.raises(InvalidInput, match="must be an integer"):
            parabolic("A4", [node])


def test_type_a_point_is_a_multiple_of_fundamental_weights():
    # the central part of sum_i c_i (n+1) omega_i is kept, so the gcd
    # divides the (n+1) out whenever it can
    rng = random.Random(7)
    for n in range(1, 9):
        rs = root_system(f"A{n}")
        for _ in range(20):
            labels = [rng.randint(1, 20) for _ in range(n)]
            full = [(n + 1) * sum(labels[i:]) for i in range(n)] + [0]
            g = gcd(*full)
            assert rs.dominant_point(labels) == tuple(x // g for x in full)


@pytest.mark.parametrize("spec", [s for s in SUPPORTED_TYPES if int(s[1:]) <= 6])
def test_characters_of_p_are_their_own_weights(spec):
    # a combination of crossed fundamental weights pairs to 0 with every
    # Levi simple coroot, so its Levi module is the line {lam: 1}
    rank = root_system(spec).rank
    for crossed in {(1,), (rank,), (1, rank), tuple(range(1, rank + 1))}:
        _check_characters(parabolic(spec, crossed))


def _check_characters(p):
    rank = p.root_system.rank
    rho = Weight([0] * p.root_system.ambient_dim)
    for r in p.levi_positive_roots:
        rho = rho + r * Fraction(1, 2)
    rng = random.Random(repr(p))
    for _ in range(15):
        hw = [rng.randint(-3, 3) if i in p.crossed else 0 for i in range(1, rank + 1)]
        lam = p.root_system.weight_from_fundamental(hw)
        assert p.weight_multiplicities(hw) == {lam: 1}
        assert p.weyl_dimension(hw) == 1
        weyl = Fraction(1)
        for r in p.levi_positive_roots:
            weyl *= (lam + rho).dot(r) / rho.dot(r)
        assert weyl == 1
        for node in p.levi_nodes:
            negative = list(hw)
            negative[node - 1] = -1
            with pytest.raises(NotPDominant):
                p.weight_multiplicities(negative)
            with pytest.raises(NotPDominant):
                p.weyl_dimension(negative)


@pytest.mark.parametrize("spec,crossed", [
    ("E6", [2]), ("E7", [7]), ("E7", [1]), ("E8", [8]), ("A4", [3]),
    ("A5", [1, 3, 5]), ("B5", [1, 2]), ("C4", [1, 2, 3, 4]), ("D5", [5]),
    ("F4", [1, 4]), ("G2", [1, 2])])
def test_fixed_point_count_matches_walk(spec, crossed):
    p = parabolic(spec, crossed)
    assert p.fixed_point_count() == len(p.coset_representatives())


def _poincare(heights):
    """Coefficients of prod_h (1 - q^{h+1}) / (1 - q^h), of degree
    len(heights): the numerator multiplied out, then each 1 - q^h divided
    off, which must leave no remainder."""
    poly = [1]
    for h in heights:
        poly = [a - (poly[i - h - 1] if i > h else 0)
                for i, a in enumerate(poly + [0] * (h + 1))]
    for h in heights:
        for i in range(h, len(poly)):
            poly[i] += poly[i - h]
    degree = len(heights)
    assert not any(poly[degree + 1:])
    return poly[:degree + 1]


MACDONALD_CASES = sorted(
    {(spec, crossed) for spec in SUPPORTED_TYPES if int(spec[1:]) <= 7
     for crossed in [(1,), (int(spec[1:]),), tuple(sorted({1, int(spec[1:])}))]}
    | {(spec, tuple(range(1, int(spec[1:]) + 1))) for spec in SUPPORTED_TYPES
       if int(spec[1:]) <= 4}
    | {("E7", (1,)), ("E7", (7,)), ("E8", (1,)), ("E8", (8,))})


@pytest.mark.parametrize("spec,crossed", MACDONALD_CASES,
                         ids=[f"{spec}{list(crossed)}" for spec, crossed in MACDONALD_CASES])
def test_coset_lengths_follow_macdonald_product(spec, crossed):
    # Macdonald, "The Poincare series of a Coxeter group" (1972): the
    # number of representatives of length k is the q^k coefficient of
    # prod over the nilradical roots beta of (1 - q^{ht beta + 1}) / (1 - q^{ht beta})
    p = parabolic(spec, crossed)
    rs = p.root_system
    heights = [sum(rs.root_coefficients(r)) for r in p.nilradical_roots]
    lengths = [0] * (p.dimension() + 1)
    for w in p.coset_representatives():
        lengths[w.length] += 1
    assert lengths == _poincare(heights)


def test_full_e8_flag_is_counted_and_refused_without_walking(no_walk):
    p = parabolic("E8", range(1, 9))
    assert p.fixed_point_count() == 696729600
    assert parabolic("E7", [1]).fixed_point_count() == 126
    with pytest.raises(TooLarge):
        p.coset_representatives()
    assert parabolic("E7", range(1, 8)).fixed_point_count() > MAX_FIXED_POINTS


# --------------------------------------------------------------------------
# self-checks


def _tripled_rho(monkeypatch):
    original = ParabolicSubgroup._highest_weight

    def wrong(self, coefficients):
        lam, rho = original(self, coefficients)
        return lam, rho * 3

    monkeypatch.setattr(ParabolicSubgroup, "_highest_weight", wrong)


def test_non_integral_cartan_entry_raises(monkeypatch):
    # <(1, 0), (1, 2)-check> = 2/5
    monkeypatch.setattr(roots, "_simple_root_coords",
                        lambda letter, rank: [[1, 0], [1, 2]])
    with pytest.raises(ConsistencyError):
        root_system("G2")


def test_wrong_matrix_denominator_raises(monkeypatch):
    # E6 Weyl matrices have entries in (1/4)Z; claiming D = 1 makes the
    # integer rank-one update inexact at the first reflection in alpha_1
    monkeypatch.setattr(roots, "_DENOMINATORS", {"F": 2, "G": 3})
    with pytest.raises(ConsistencyError):
        parabolic("E6", [1]).coset_representatives()


def test_freudenthal_check_raises(monkeypatch):
    _tripled_rho(monkeypatch)
    with pytest.raises(ConsistencyError):
        parabolic("A2", [1]).weight_multiplicities((0, 1))


def test_weyl_dimension_check_raises(monkeypatch):
    _tripled_rho(monkeypatch)
    with pytest.raises(ConsistencyError):
        parabolic("A2", [1]).weyl_dimension((0, 1))


def test_root_checks_survive_optimized_python():
    script = textwrap.dedent("""
        from ellgenus import roots
        from ellgenus.errors import ConsistencyError

        assert False, "assert statements are still active"
        original = roots.ParabolicSubgroup._highest_weight
        roots.ParabolicSubgroup._highest_weight = (
            lambda self, c: (original(self, c)[0], original(self, c)[1] * 3))
        p = roots.parabolic("A2", [1])
        for check in (p.weight_multiplicities, p.weyl_dimension):
            try:
                check((0, 1))
            except ConsistencyError:
                print("ConsistencyError")
        rs = roots.root_system("B3")
        rs._coefficients = rs._coefficients[:-1]
        try:
            rs.dominant_point([1, 1, 1])
        except ConsistencyError:
            print("ConsistencyError")
        roots._simple_root_coords = lambda letter, rank: [[1, 0], [1, 2]]
        try:
            roots.root_system("G2")
        except ConsistencyError:
            print("ConsistencyError")
    """)
    src = str(Path(ellgenus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["ConsistencyError"] * 4
