"""Elliptic genus: frozen listings, an independent sheaf-theoretic oracle,
and the structural identities expected of weak Jacobi forms."""

import hashlib
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgenus.bundles import EquivariantVectorBundle, completely_reducible_bundle
from ellgenus.ci import CompleteIntersection, chern_number
from ellgenus.cohomology import CohomologyClass
from ellgenus import genus as genus_module
from ellgenus import jacobi as jacobi_module
from ellgenus import qseries
from ellgenus.errors import ConsistencyError, InvalidInput, PrecisionZero, TooLarge
from ellgenus.genus import (MAX_CHERN_MONOMIALS, MAX_LOCALIZATION_TERMS,
                            ChernSymbolSeries, _decoded,
                            _partition_count, _partitions, _power_sums, chi_y,
                            elliptic_genus, elliptic_genus_chernnum)
from ellgenus.homog import homogeneous_space
from ellgenus.jacobi import linear_fit, shifted_basis, solve
from ellgenus.qseries import LaurentY, PackedLayout, QYSeries
from ellgenus.roots import MAX_FIXED_POINTS, Weight, parabolic

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


def test_chernnum_coefficient_beyond_order_is_precision_zero():
    # past q^order nothing is known, for a listed monomial or an absent one,
    # just as for the monomial's own QYSeries
    g = elliptic_genus_chernnum(3, 1)
    assert g.coefficient(1, (0, 3, 0)) == LaurentY()
    for exponents in [(3, 0, 0), (0, 3, 0)]:
        with pytest.raises(PrecisionZero):
            g.coefficient(2, exponents)
    with pytest.raises(PrecisionZero):
        g.series[3, 0, 0].coefficient(2)


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


# sha256 of str(elliptic_genus_chernnum(d, k)) as printed by the earlier
# construction through rational functions over (1-y)^k: every d <= 10 and
# k <= 6 with d + 2k <= 16, plus (12, 0), (12, 1) and (14, 0).
CHERNNUM_DIGESTS = {
    (1, 0): "23c0b47bb8106c3280ae4b0b683dbe000cff414a4eb44022acdc60c601aec106",
    (1, 1): "4da57b8e8a288abc011bcb0ad9c4be5f78b9332abbae04a22441a796f60d34ab",
    (1, 2): "209caf69783c2fb4b5bd54be489d803928e0c9c16b6541badfd185fe09d91738",
    (1, 3): "1a7f5b7f3f535798d5d928bc23f172c4b5351a4e88ff95aceef45690d752e205",
    (1, 4): "fb2c95348dff0832e1729358426f65dc073677ffb3d27f2c1c375d2159e49ad8",
    (1, 5): "5ad442aa718f74a73cc066cfdde18db68b95c809a42fa04d2b8c912420508162",
    (1, 6): "468b1b2a068d753cf60dbf0c20b6ed687dc6a86aa8d1b4cf2632aff72870ea19",
    (2, 0): "2da72290fe0ef45dab2dd488bca3dc56554e2b46d7a82f618886b728c2c60004",
    (2, 1): "9460453537cddfb238afa47bfacd7ef0d461dfca0973384ef9e390516e6aa6b2",
    (2, 2): "4f8ed2325f929d56bbca35cad35892d338b0e84bc2e0c2594283b63b8a98c3e6",
    (2, 3): "08b254229348971f9a58d49892efdc3aaf3b2c39e64c3f2c30fe03f8d263dee5",
    (2, 4): "282f6a7962ebd6dff0662d8411ffec3b32d9590bc196e1ff1683e27c3a515d90",
    (2, 5): "beb8312090b495348809a612e554b84df738b97a2275055a415e032f055413bd",
    (2, 6): "2098b71418812ea9a456f2eb44fd0631fa4663230df513a172210db288d02fbd",
    (3, 0): "ff65b51ae0326a468126329ab693c5d0ba0f16ad78c2e6ee44d31ceabfd2ba75",
    (3, 1): "82bc90a041720f9de7cc2acd0f082e921d944666c875dda6454de577aef59b00",
    (3, 2): "a3605547cb679b4fcb24a392e2d1e987b3b7a8fc01a86cd1219cebb8e730b735",
    (3, 3): "62089740247782ccfe21eb13d141b9576d1117fe5488dec0f0181c1e83360e20",
    (3, 4): "b4d86b0914dbbb7310fafe371bd2e79d45cb5b6225087789c0661171bbaa9a22",
    (3, 5): "dcd288ed88d219c0053e642ac81cdadb1b75afda42c7c9827745d82d0cf22487",
    (3, 6): "ca513d05750e1a8854fcd0f9befe4c7c600cb3e9d4f7bf3ef0c4d196c5def23b",
    (4, 0): "b90b0cee209ec2462af93a43d1b867e8871145bde32fb03a6b56867c1b9ccded",
    (4, 1): "4372dea8f85879d3c52500b796564e04a5a0e55e746657ed392a400730bb6baa",
    (4, 2): "30fd135cc8daf135bc4ca637887ae505e0cfb8ad9bf570aaa639e1f6bf01d0e5",
    (4, 3): "d31a2327b54491a9d9caf7dba48bf554d2abe2a5c2b03d61485d51ac0d0c4afd",
    (4, 4): "9f7ce8f4e19c11ecd06f7087f02b515b43fe58d19d33c19576b55797743405f0",
    (4, 5): "0ec02e1b8f18a550c1a39019b4a4f04e50af398b63e943ea9f5071a9f4c45faa",
    (4, 6): "23cc31ce4f4875c2b751bc0b467ff4995eed71be46489a6b879b691436fe6688",
    (5, 0): "32268a05113788c9e6f1d3a4bde1a4e0c69189f4aa0d251d3bafc3b1dde1e6ae",
    (5, 1): "b0a6635a6eb1cee4f4ae73fe8c6f03019e7a58d3963275d0ed7d374316a91d76",
    (5, 2): "5690b8d0ab8f3a7691f1132ecbe92f3177c6bbe915f5ea5ae5570adbc374689d",
    (5, 3): "9d76af104efa6281a6da50cac044fecabfe2dee99e6ecb67408bfa205c57a198",
    (5, 4): "30c981dfc07ed507d1df3baca48caaf18b49bf0b3dae83e72fc4cccd139d1618",
    (5, 5): "8280436f40337375ae98fe425015b8e24ce003d75352b6444d2d348d4b6d873d",
    (6, 0): "88bd1f339752602f520ee0ae2540a2daabe9f8dfd70d14f9ac66250e5e3870e6",
    (6, 1): "ad1ea1f33de76b794a8653e89d70273dbb0aa054e364d61b8086c28d55f2e10f",
    (6, 2): "1d8a2e2b9df9113cfc75b400336e4ef322072d7aa300173521607e2fdff27e37",
    (6, 3): "ba44de2559fc689632c661ec63a71985ee6c17fdfcfc194702c4333909bdb041",
    (6, 4): "9e170c200352f34b2dbd5d4c0ca6731df26953d5765ecd8a657cf35a753880b1",
    (6, 5): "5dda1ebbf222fd2e94588eb4aa3d7dabac82e8956a5e4e075be663220786970b",
    (7, 0): "cfdcff1ec020539040a72d965084ee54b8f8d3b22830f9725f818f4ddfd5ad6b",
    (7, 1): "30ac19b6775488cb9e95e67466dbe3c7b1651276934261bdd89e617434899171",
    (7, 2): "0a46642688fb4b4f56b60025cc06f9e4a88bf9d9947cc8aa7ca5a42580d8c10c",
    (7, 3): "32c20f12f7295f2f2b5383b12c797b1ad789633b148e388d46f00801128f4abd",
    (7, 4): "4e4619182d4897174852c45426ef453b4d4cf7f33a514c9e210bf2131cc4fef0",
    (8, 0): "6c08fdad6c5f44a04e09dc006fb5dc618f746e78528342a27faa3cd9b6012bbd",
    (8, 1): "871ce2c45c466e712be280a657fded2d5fcb31624646fcc50a4264f5f446be75",
    (8, 2): "17627beac12393697c7b2faefbaeccd355c6fa08e619efd04a8684982cae960d",
    (8, 3): "7f7c859a07a118d0daeba95e2c960bb6622a855a72d7531fa01bb57e7d8c657f",
    (8, 4): "cb8951077504002aebd97ff7a34e80191fa113314d7b09ab830c66c1cfc65b23",
    (9, 0): "45b3def8dc49f8736b4e14f0b68c9fb4142482dfccdbb8d7fe58e09546c6ec97",
    (9, 1): "250f2a6030577d03dbbadbadd1f366637ae861b24206ccb3e79918b1ac8a4936",
    (9, 2): "fb4e415ce60eb15050a4a6243de33ec033e91bcffebbbea0bc93646a1e20e75f",
    (9, 3): "1f8cf006d115e5377d1cb0f01913caab25ec382eeba5df5ed20332b93717f156",
    (10, 0): "7aaf4ef9c7ebaa5d39e530dff6c56a48cedd975d4341cdcff6a27b3cd29704fd",
    (10, 1): "b4c10b16b35c12b15a5f6158e72afaeb9d400a6b3827dd2e9dfe3e53bcb645b4",
    (10, 2): "e4a75973902b126df29cc747c90db13d9ce89ef4b77367dffafbfbd7ccafee7f",
    (10, 3): "0ff9d39b00fa7dbee89bc4069ead2e4221908481e268f4d4875169343f80052b",
    (12, 0): "029e36584579dd4e02fe31812657fc0237e8fde0477a20c93a8919ba636947c6",
    (12, 1): "962985ccc3dbaea1adad4052f560566fb055415e13fc94b74c4de1e27101c567",
    (14, 0): "4f97a9fdca30ccd8f53ae98d615035dc245431ea5e80ca55eadc5a6def7c054d",
    # printed by the partition sum in Fraction-valued QYSeries arithmetic,
    # before the integer accumulation
    (16, 0): "e7b13ea3a0b8a7ead0c8e0049cf41289b62e3397fd58236f7b1e5b246e768047",
    (18, 0): "a951a954372ed17175f564415c9544091a760c8a194baeda88fe6a549d6b6343",
    (12, 3): "d288ec22606433613016d584456ca67989b57362c5e43b2b280d70c0908b1fbc",
    # printed by the integer accumulation, before the packed integers
    (20, 0): "53d398d1ddb4fddb815dc96f7cc8fc5742f8eb93b73086f58b8bb20bc16d9289",
    (21, 0): "95df439fd33a9f80b9c5178aba15f7c32d04226a5eaf90d6a4a354dbe6b6c5cc",
    # E7 scale (the size of E7[7]), printed by the packed walk that formed
    # the rows of the power-sum-to-Chern transition, before Horner's rule
    (27, 0): "07e78659499953121a6a55eae277d833cc23276cf1ef82ae5f9f606efc256216",
}


@pytest.mark.parametrize("dim,k", sorted(CHERNNUM_DIGESTS))
def test_chernnum_listing_digests(dim, k):
    g = elliptic_genus_chernnum(dim, k)
    assert hashlib.sha256(str(g).encode()).hexdigest() == CHERNNUM_DIGESTS[dim, k]
    # the listed monomials are exactly those with a nonzero series
    assert not any(s.is_zero() for s in g.series.values())


def test_chernnum_adds_no_series_per_monomial(monkeypatch):
    # the partition sum runs on packed integers: building the series adds
    # or multiplies no QYSeries at all, where a sum formed in series
    # arithmetic adds one per (partition, Chern monomial) pair
    calls = []
    for name in ("__add__", "__mul__"):
        real = getattr(QYSeries, name)
        monkeypatch.setattr(QYSeries, name, lambda self, other, real=real:
                            calls.append(1) or real(self, other))
    elliptic_genus_chernnum.cache_clear()
    try:
        elliptic_genus_chernnum(12, 0)
    finally:
        elliptic_genus_chernnum.cache_clear()
    assert calls == []


def test_chernnum_unpacks_each_numerator_once(monkeypatch):
    # the self-checks unpack every numerator; the text and a widened
    # substitution reuse those cells, which leaves one unpack, the
    # substituted series
    unpacked = []
    real = PackedLayout.cells
    monkeypatch.setattr(PackedLayout, "cells", lambda self, x:
                        unpacked.append(x) or real(self, x))
    elliptic_genus_chernnum.cache_clear()
    try:
        g = elliptic_genus_chernnum(7, 2)
        built = len(unpacked)
        text = str(g)
        big = {e: Fraction(10 ** 40 + i) for i, e in enumerate(g.packed)}
        substituted = g.substitute(big)
    finally:
        elliptic_genus_chernnum.cache_clear()
    assert built >= len(g.packed) and "c7" in text
    assert len(unpacked) == built + 1
    assert substituted == sum((s * big[e] for e, s in g.series.items()),
                              QYSeries.zero(4))


def test_packed_width_covers_every_intermediate(monkeypatch):
    # the bound fixes the width before any packing; rerun with 64 spare
    # bits, so nothing can overflow, and record every product and every
    # partial sum of Horner's rule
    for m in range(1, 9):
        assert sum(map(abs, _power_sums(8)[m].values())) == 2 ** m - 1
    real_bits, real_mul = qseries._bits_for, PackedLayout.mul
    real_poly_times = genus_module._poly_times
    largest, sums = [], []

    def recording_mul(self, a, b):
        product = real_mul(self, a, b)
        largest.append(max((abs(v) for _, v in self.cells(product)), default=0))
        return product

    def recording_poly_times(a, b):
        product = real_poly_times(a, b)
        sums.extend([*a.values(), *product.values()])
        return product

    for dim in range(1, 9):
        for k in range(5):
            elliptic_genus_chernnum.cache_clear()
            bits = elliptic_genus_chernnum(dim, k).layout.bits
            largest.clear()
            sums.clear()
            with monkeypatch.context() as patch:
                patch.setattr(qseries, "_bits_for", lambda b: real_bits(b) + 64)
                patch.setattr(PackedLayout, "mul", recording_mul)
                patch.setattr(genus_module, "_poly_times", recording_poly_times)
                elliptic_genus_chernnum.cache_clear()
                wide = elliptic_genus_chernnum(dim, k)
            assert wide.layout.bits == bits + 64
            assert (dim == 1) or sums, (dim, k)
            largest += [abs(v) for x in sums for _, v in wide.layout.cells(x)]
            assert max(largest + [wide.largest]).bit_length() <= bits - 1, (dim, k)
    elliptic_genus_chernnum.cache_clear()


def test_overflowing_width_fails_the_check_at_y_equal_1(monkeypatch):
    # one byte short of the bound, the (2, 1) sums wrap around; at y = 1
    # the universal series must be c_2, and the wrapped one is not
    real_bits = qseries._bits_for
    monkeypatch.setattr(qseries, "_bits_for", lambda b: real_bits(b) - 8)
    elliptic_genus_chernnum.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="y = 1"):
            elliptic_genus_chernnum(2, 1)
    finally:
        elliptic_genus_chernnum.cache_clear()


def test_overflow_that_passes_y_equal_1_fails_serre_symmetry(monkeypatch):
    # two bytes short (16-bit digits), the (5, 2) sums wrap around with
    # carries that cancel within each q-row, so the y = 1 check alone
    # passes them; the wrapped rows are not symmetric under y -> 5 - y
    elliptic_genus_chernnum.cache_clear()
    assert elliptic_genus_chernnum(5, 2).layout.bits == 32
    real_bits = qseries._bits_for
    monkeypatch.setattr(qseries, "_bits_for", lambda b: real_bits(b) - 16)
    elliptic_genus_chernnum.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="Serre symmetric"):
            elliptic_genus_chernnum(5, 2)
    finally:
        elliptic_genus_chernnum.cache_clear()


def test_chernnum_validation():
    with pytest.raises(InvalidInput):
        elliptic_genus_chernnum(0, 1)
    with pytest.raises(InvalidInput):
        elliptic_genus_chernnum(2, -1)
    with pytest.raises(InvalidInput):
        elliptic_genus_chernnum(2, 1).coefficient(0, (2, 0, 0))


def test_non_integer_chernnum_arguments_are_refused():
    # a float must fail as InvalidInput (exit 3), not as a bare TypeError from range()
    for args, what in [((3, 1.5), "a q-order"), ((1.5, 3), "a dimension")]:
        with pytest.raises(InvalidInput, match=f"{what} must be an integer"):
            elliptic_genus_chernnum(*args)


def test_substitute_matches_direct_genus():
    p2 = proj(2)
    g = elliptic_genus_chernnum(2, 1)
    series = g.substitute({(2, 0): Fraction(9), (0, 1): Fraction(3)})
    assert series == elliptic_genus(p2, 1)
    # values too large for the packed width of the sums widen it
    big = {(2, 0): Fraction(10 ** 40, 7), (0, 1): Fraction(-3 ** 90, 11)}
    assert g.substitute(big) == sum((s * big[e] for e, s in g.series.items()),
                                    QYSeries.zero(2))


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


# --- Calabi-Yau genera from the weak Jacobi basis ---------------------------

# (type, crossed nodes, section weights) of the Calabi-Yau and K3 complete
# intersections of the benchmark's cy_series workload
CY_SPACES = {
    "K3": ("A3", (1,), ((4, 0, 0),)),
    "quintic": ("A4", (1,), ((5, 0, 0, 0),)),
    "P5_33": ("A5", (1,), ((3, 0, 0, 0, 0), (3, 0, 0, 0, 0))),
    "P5_24": ("A5", (1,), ((2, 0, 0, 0, 0), (4, 0, 0, 0, 0))),
    "sextic": ("A5", (1,), ((6, 0, 0, 0, 0),)),
    "Gr25_113": ("A4", (2,), ((0, 1, 0, 0), (0, 1, 0, 0), (0, 3, 0, 0))),
    "G2_CY3": ("G2", (1, 2), ((2, 0), (0, 1), (0, 1))),
}

# a degree-14 hypersurface in P^13: dimension 12, where the q^0 rows of the
# basis do not have full rank and the fit needs q^1 (k0 = 1)
CY12 = ("A13", (1,), ((14,) + (0,) * 12,))

# sha256 of str(elliptic_genus(quintic, 20)), computed on the universal
# path alone, before the Calabi-Yau path existed
QUINTIC_GENUS_20_SHA256 = \
    "d1bcff44af0962c1e206b2edc32b9df9a4fefcf533422d16b3d49b02bca3dab9"


def _ci(kind, crossed, weights):
    space = homogeneous_space(kind, list(crossed))
    return CompleteIntersection(
        completely_reducible_bundle(space, [list(w) for w in weights]))


def _elliptic_curve():
    return _ci("A2", (1,), ((3, 0),))


@pytest.fixture
def chernnum_calls(monkeypatch):
    """Record the (dim, k) of every universal series the genus path builds."""
    calls = []
    real = genus_module.elliptic_genus_chernnum

    def spy(dim, k):
        calls.append((dim, k))
        return real(dim, k)

    monkeypatch.setattr(genus_module, "elliptic_genus_chernnum", spy)
    return calls


@pytest.mark.parametrize("name,k", [
    *((name, k) for name in CY_SPACES for k in range(1, 7)),
    ("quintic", 12), ("elliptic curve", 1), ("elliptic curve", 5),
    ("CY12", 2)])
def test_cy_path_matches_universal_path(name, k):
    manifold = (_elliptic_curve() if name == "elliptic curve"
                else _ci(*CY12) if name == "CY12" else _ci(*CY_SPACES[name]))
    got = elliptic_genus(manifold, k)
    oracle = genus_module._universal_genus(manifold, k, random.Random(k))
    assert got == oracle
    assert str(got) == str(oracle)


def test_elliptic_curve_genus_is_zero():
    assert elliptic_genus(_elliptic_curve(), 3) == QYSeries.zero(6)


def test_quintic_genus_to_q20_is_pinned(quintic):
    text = str(elliptic_genus(quintic, 20))
    assert hashlib.sha256(text.encode()).hexdigest() == QUINTIC_GENUS_20_SHA256


@pytest.mark.parametrize("spec,k,k0", [
    (CY_SPACES["quintic"], 20, 0), (CY_SPACES["K3"], 6, 0),
    (CY_SPACES["sextic"], 5, 0), (CY_SPACES["G2_CY3"], 3, 0), (CY12, 3, 1)],
    ids=["quintic", "K3", "sextic", "G2_CY3", "CY12"])
def test_cy_genus_builds_universal_series_only_at_k0(spec, k, k0,
                                                     chernnum_calls):
    manifold = _ci(*spec)
    elliptic_genus(manifold, k)
    assert chernnum_calls == [(manifold.dimension(), k0)]


def test_cy_at_k0_itself_takes_the_universal_path(chernnum_calls):
    # the rows reach full rank only at q^1 = q^k: nothing is left to expand
    manifold = _ci(*CY12)
    elliptic_genus(manifold, 1)
    assert chernnum_calls == [(12, 1)]


def test_k0_is_the_least_order_of_full_rank():
    # dimension 12 needs the q^1 row: the q^0 rows alone have rank below 7
    basis = shifted_basis(12, 2)
    ranks = [solve(QYSeries.zero(2 * j), basis)[1] for j in range(3)]
    assert len(basis) == 7 and ranks[0] < 7 and ranks[1:] == [7, 7]


def test_rank_deficient_basis_falls_back_to_universal_path(
        quintic, chernnum_calls, monkeypatch):
    real = genus_module.shifted_basis
    # a repeated element: the rank never reaches the number of elements
    monkeypatch.setattr(genus_module, "shifted_basis",
                        lambda dim, prec: real(dim, prec) * 2)
    got = elliptic_genus(quintic, 4)
    assert chernnum_calls == [(3, 4)]
    assert got == genus_module._universal_genus(quintic, 4, random.Random(1))


def test_cy_rows_outside_the_jacobi_span_raise(quintic, monkeypatch):
    real = genus_module._universal_genus
    # a constant term: no weak Jacobi form of weight 0 and index 3/2 has it
    monkeypatch.setattr(genus_module, "_universal_genus",
                        lambda m, k, rng: real(m, k, rng) + 1)
    with pytest.raises(ConsistencyError, match="not a weak Jacobi form"):
        elliptic_genus(quintic, 3)


def test_cy_expansion_that_misses_its_rows_raises(quintic, monkeypatch):
    real = jacobi_module.solve

    def doubled(target, elements):
        coords, rank = real(target, elements)
        return [2 * c for c in coords], rank

    # the solve inside linear_fit: its own check sees the wrong coordinates
    monkeypatch.setattr(jacobi_module, "solve", doubled)
    with pytest.raises(ConsistencyError, match="not a weak Jacobi form"):
        elliptic_genus(quintic, 3)


def test_failed_cy_fit_raises(quintic, monkeypatch):
    monkeypatch.setattr(genus_module, "linear_fit", lambda target, elements: None)
    with pytest.raises(ConsistencyError, match="not a weak Jacobi form"):
        elliptic_genus(quintic, 3)


def test_c1_is_read_on_dynkin_labels(quintic):
    space = quintic.ambient
    tangent = [sum(c) for c in zip(*(w.coords for w in space.tangent_weights))]
    section = list(quintic.section[0].coords)
    # the raw ambient coordinates differ by the central direction of A4
    assert (tangent, section) == ([4, -1, -1, -1, -1], [5, 0, 0, 0, 0])
    assert genus_module._c1_vanishes(quintic)
    assert all(genus_module._c1_vanishes(_ci(*spec))
               for spec in CY_SPACES.values())
    assert genus_module._c1_vanishes(_elliptic_curve())


NON_CY = {
    "quartic threefold": ("A4", (1,), ((4, 0, 0, 0),)),
    "cubic surface": ("A3", (1,), ((3, 0, 0),)),
    "Gr(2,5) cut by (1,1,1)": ("A4", (2,), ((0, 1, 0, 0),) * 3),
}


@pytest.mark.parametrize("manifold", [
    *(lambda spec=spec: _ci(*spec) for spec in NON_CY.values()),
    *(lambda s=s, c=c: homogeneous_space(s, c) for s, c in (
        ("A3", [2]), ("A4", [1]), ("A3", [1, 2, 3]), ("B3", [3]),
        ("C3", [3]), ("D4", [1]), ("G2", [1, 2])))],
    ids=[*NON_CY, "A3[2]", "A4[1]", "A3[1,2,3]", "B3[3]", "C3[3]", "D4[1]",
         "G2[1,2]"])
def test_non_cy_takes_the_universal_path(manifold, chernnum_calls):
    manifold = manifold()
    assert not genus_module._c1_vanishes(manifold)
    elliptic_genus(manifold, 2)
    assert chernnum_calls == [(manifold.dimension(), 2)]


def test_too_large_cy_is_refused_before_building_its_basis(quintic,
                                                           monkeypatch):
    # with the limit below p(3) = 3, the quintic stands in for a CY whose
    # universal series is too large
    monkeypatch.setattr(genus_module, "MAX_CHERN_MONOMIALS", 2)
    monkeypatch.setattr(genus_module, "shifted_basis", None)
    with pytest.raises(TooLarge, match="3 Chern monomials"):
        elliptic_genus(quintic, 2)


# --- weak Jacobi form structure ----------------------------------------------

@pytest.mark.parametrize("name,coeffs", [
    ("k3", [Fraction(2)]), ("quintic", [Fraction(-100)]),
    ("g2_cy", [Fraction(-36)])])
def test_cy_genus_lies_in_weak_jacobi_space(name, coeffs, request):
    manifold = request.getfixturevalue(name)
    d = manifold.dimension()
    k = 3
    genus = elliptic_genus(manifold, k)
    assert linear_fit(genus, shifted_basis(d, k)) == coeffs


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
    # exceptional spaces of dimension 15 and 16
    ("F4", [1]), ("E6", [1]),
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
    value = Fraction(0)
    for code, coeff in _power_sums(dim)[m].items():
        exps = _decoded(code, dim, dim + 1)
        term = Fraction(coeff)
        for i, a in enumerate(exps):
            term *= e[i + 1] ** a
        value += term
    assert value == sum(Fraction(x) ** m for x in roots)


def elementary_in_power_sums(m, dim):
    """e_m as a CohomologyClass in p_1..p_dim (variable i-1 standing for
    p_i), the inverse Newton recurrence
    e_m = (1/m) sum_{i=1}^m (-1)^{i-1} e_{m-i} p_i."""
    if m == 0:
        return CohomologyClass.one(dim)
    if not 1 <= m <= dim:
        raise ValueError("elementary index out of range")
    total = CohomologyClass.zero(dim)
    for i in range(1, m + 1):
        p_i = CohomologyClass.linear_form([int(j == i - 1) for j in range(dim)])
        rec = elementary_in_power_sums(m - i, dim)
        total = total + p_i.times(rec) * Fraction((-1) ** (i - 1), m)
    return total


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
       st.integers(1, 6))
def test_elementary_in_power_sums_evaluates_on_roots(roots, m):
    dim = len(roots)
    m = 1 + (m - 1) % dim
    p = [sum(Fraction(x) ** j for x in roots) for j in range(dim + 1)]
    poly = elementary_in_power_sums(m, dim)
    value = Fraction(0)
    for exps, coeff in poly.c.items():
        term = coeff
        for i, a in enumerate(exps):
            term *= p[i + 1] ** a
        value += term
    expected = [Fraction(1)] + [Fraction(0)] * dim
    for x in roots:
        for i in range(dim, 0, -1):
            expected[i] = expected[i] + x * expected[i - 1]
    assert value == expected[m]


def test_partition_count_matches_enumeration():
    assert [_partition_count(n) for n in range(1, 26)] == [
        sum(1 for _ in _partitions(n, n)) for n in range(1, 26)]
    assert (_partition_count(0), _partition_count(27), _partition_count(36)) \
        == (1, 3010, 17977)


def test_universal_series_size_guard():
    # E7[7] (dim 27, p = 3010 monomials) stays under the limit
    assert parabolic("E7", [7]).dimension() == 27
    assert _partition_count(27) <= MAX_CHERN_MONOMIALS
    # and under the localization limit, 56 x 3010; the full A7 flag, which
    # passes both other guards, is over it
    assert parabolic("E7", [7]).fixed_point_count() * _partition_count(27) \
        <= MAX_LOCALIZATION_TERMS
    a7 = parabolic("A7", range(1, 8))
    assert a7.fixed_point_count() <= MAX_FIXED_POINTS
    assert _partition_count(a7.dimension()) <= MAX_CHERN_MONOMIALS
    assert a7.fixed_point_count() * _partition_count(a7.dimension()) \
        > MAX_LOCALIZATION_TERMS
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="17977"):
        elliptic_genus_chernnum(36, 0)
    assert time.perf_counter() - start < 1.0
