"""Weak Jacobi form generators, bases and exact linear fitting.

The generators are checked against a test-only reference that builds them
the classical way, as quotients of Jacobi theta functions."""

import hashlib
from fractions import Fraction

import pytest

from ellgenus.errors import OddWeight
from ellgenus.jacobi import (JacobiBasisElement, basis_half_integral,
                             basis_integral, linear_fit, phi_0_1, phi_0_3half,
                             phi_m2_1, shifted_basis, solve)
from ellgenus.qseries import LaurentY, QYSeries, eisenstein
from theta_reference import (reference_phi_0_1, reference_phi_0_3half,
                             reference_phi_m2_1)

# --- the generators ---------------------------------------------------------


@pytest.mark.parametrize("prec", range(21))
def test_generators_equal_theta_quotients(prec):
    assert phi_0_1(prec) == reference_phi_0_1(prec)
    assert phi_m2_1(prec) == reference_phi_m2_1(prec)
    assert phi_0_3half(prec) == reference_phi_0_3half(prec)


def test_generators_at_y_equal_one():
    # phi_{0,1}(tau, 0) = 12, phi_{-2,1}(tau, 0) = 0 and y^{1/2} phi_{0,3/2} -> 2
    for phi, value in ((phi_0_1, 12), (phi_m2_1, 0), (phi_0_3half, 2)):
        assert phi(12).specialize_y1() == QYSeries.const(value, 24)


def test_index_one_generators_are_symmetric_in_y():
    for phi in (phi_0_1, phi_m2_1):
        s = phi(12)
        for n in range(13):
            assert s.coefficient(n).reciprocal_y() == s.coefficient(n)


PINNED_BASIS_DIGESTS = {
    (7, 0): "a0e93319d5b0241ae83e3936396f37ba0ce6cedbb2ce81e07682e23e61e8c5f6",
    (7, 1): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (7, 2): "c256c6d35d6b09a905fe658f5d3e664fa314caf73e70d8676de6203d1b1eb1d7",
    (7, 3): "84229973b74313c98517259dfddfc5e502892a6f4a795f08f2b966076c5e7db9",
    (7, 4): "58b341f9d65392e5e60380fb9eddbac0e6077b6e3f9e29780547c9e3eb52bfc5",
    (7, 5): "fcd1ce42e1ebf43af774b2279d80de6cfcc6ce8d1ea80448f3389f7d68255675",
    (7, 6): "7c49408ecbdc09dcb6c9d175536657126cb1e37a879ddc12cdda52a1e2596a43",
    (7, 7): "ea29564ef80a47b6a75c3c22a923a235057c454308fb03f2b9c0ad86b434d2ae",
    (7, 8): "aec140ae845cf9e28cdd102b8f5480a59116f47b160476abcdd952aeca86a576",
    (7, 9): "facd2aa7ee01c31a204bc45cbc2847dddab669525e1692b455b20d4713fe051b",
    (7, 10): "57150cc59a6a720c26158c75b29b202e18341589f270c05dea760f4b604fc961",
    (7, 11): "bf6ffb4306b8fcb52fbb14188f00f0399f8db2dbf9065d687e7d27d408ddbedd",
    (7, 12): "abe5f9fce52230818ade2799b25a6869aa5d1a96a14052e06d879ffefdba02b5",
    (7, 13): "631c6004aa0e9e7c10a76898f4c0d165eec7eaaf1d5ad104ada6c2a88f286b28",
    (7, 14): "c71b514aa5bc87937e9e5635975f7efd2f14340266abff3edf27c09c83dc9156",
    (7, 15): "1702add9d0f6fd6888c87e75dfbe291a6b2414cc67071f1cb395f264963e6a02",
    (7, 16): "ccf688ee08f6a984639131bf12aeb708039d8deca25ecdd169bc43df1f66a5c1",
    (7, 17): "e8a12f3b90fce142f9366dd00d7c69f01a699714775ccebf4b395f8c04e3a834",
    (7, 18): "d6199eec7632b19a760fd1b4ba3423916ca469a98afb8875ec0210dbfe381870",
    (7, 19): "235261a8784830efe28c6c5bc349b1ba2e21e1c8e6be7e93b7fb53b2797c8bc8",
    (7, 20): "d80667aaae4c8e7400ffa80d100f36425fe8d0acd1bebcf977d4ff1833b3ccaa",
    (15, 5): "c743ecc3b9ad2e522ba0dc2a836cd2aeafd2565bc9627ec57cd9e9cb6cbf7b49",
    (15, 6): "cc3151abb3083527f6447f92ecf4748e7a3b01f7cdd22e2dfdbb0969e4d0bc28",
    (15, 7): "1c893d033c0eaedb4fc3e49b7737bdf4af2bc6d42552cdc824f3772d3e17e25b",
    (15, 9): "96ac7d67eb2c25d145657fcdc9503a3e6212580b033d322a1b305865a9e35a41",
    (15, 10): "054a5ba9265e37b52906c3b4c7bf89f8f296bba3d9926677d7e4dbaed81b640a",
    (15, 12): "49c88fa0e49f6eba737830c096904aae70a306e68ae515197be0aab70cf075e7",
    (16, 5): "713469fc66b5b9e5ca2501e902846e850e97c9fdc0c410a6a8f8b4edcaa9529e",
    (16, 6): "ff785734cac0a55dfb1be3dac7eb2a49916120cc423201a3376f23485977b65c",
    (16, 7): "6dd3ae6915a69f3ad4f9b81d1aa8dc40e95c5dedb102ca4a992698d74995c1de",
    (16, 9): "b1bf1562018dd2b059d0d4b5bd3ab75c5987363af0c791a28969be3f65bac608",
    (16, 10): "2e6977ffc4d44379f88c6ae502a2b7453fd193135b9c1d4019371cabf0f5742a",
    (16, 12): "2445e6256afacc0863de36e7f851271d53d52d58b838cedcf7e649d545342322",
    (17, 5): "3e04b019d26829542af9e93e7e9d2b3e31d2022a487af9c01154c9b8492ad607",
    (17, 6): "f9a87034a9c61d44ccbacbc1935c471c55453501c9096b405fdbd632fc31009b",
    (17, 7): "9ef754d5854046f688ed8735ad00dd57d3692286ce592a722ba78bf2200e4350",
    (17, 9): "1d1b7c7904951589422d191e849b71a4555eded00298747725406bcc918b5abb",
    (17, 10): "70c0ec2bf24ff4dd1b51cf48cb3cb4c0acf5eeb4af1180b020e88de7e9d41cd3",
    (17, 12): "ccebfc2b0016e87a5f52406938eb53682192e54489aa03443af93ebd9b336ce6",
    (18, 5): "1d1ee1751215fdf32bc2567592130f4522aeb46d9da94f94732b470da66046ae",
    (18, 6): "63d591e0854f84b9045a35e4308dd079bd877914dc15f309cf3c8b98783d9277",
    (18, 7): "ccfcebaa8d5a5b9b0d600fcdb40386bc781948fb487d12912b77f67eac1e6d3b",
    (18, 9): "167017a8b3c38fb6c2e24f6a07dd0f34807b930824a0c9ef161fd9500deaa4f2",
    (18, 10): "d5e6a6e972748948ec0f8483502138f3bf921ae4afeef04208a5a06658542a73",
    (18, 12): "7eed843db4ddbbc5e5d99d925824f44906c0f158f50c8f92b39080b52e223e9b",
    (19, 5): "5a3b4792aa2039155e2769104406c8bfa1e818720ab829ce00a640a799e9d252",
    (19, 6): "3845be31a1eaae05112ae1842a99bf979a29288dd72bc99e5d1f5b80e2e73c85",
    (19, 7): "4b87c73e7abf638920808f1a25c7c385f0fb12073a0e76ea9305cf6cacaddda0",
    (19, 9): "6b88475506cf6c580e5008860e47528e9e8e8eb8c295f6acc4f544d9a7a1ef43",
    (19, 10): "59f779a8cd4093f5ad4a84fec47949f439a58590ff446ad494cfd6425e990d1e",
    (19, 12): "8d3db84a06c3dd3a90aa27a3d1648c3daba7b44cf1c573eb5dd691856441d603",
    (20, 5): "8c105787e788a2fd38e2c0f68dbffd92f08f491b816d2f249b574373235cce8e",
    (20, 6): "a1ad08344be8f83017d70d5e731b8062e845980dd8d312489cd5bde5281524ca",
    (20, 7): "1f49d8b9092b93dbb1ecfe70eb9f8db9e96bffc938f90a925a6b38cfb1f55580",
    (20, 9): "2ad392dd87cabf3863f82cd0db3cd8aeec3a0ae117a28aefe723dd7c5e77dc82",
    (20, 10): "099e21529a47e9b9df009ff18101bab895c745149ebc34f1fea8ff6a1008c733",
    (20, 12): "4d7e3d6a632d6e332e509541ba2356063d75db38bb168e4e7b08e3a05e82c885",
}



def _basis_digest(double_index, prec):
    text = "\n".join(e.label() + "\t" + str(e.series)
                     for e in basis_half_integral(0, double_index, prec))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("prec", [7] + list(range(15, 21)))
def test_weight0_bases_are_pinned(prec):
    for (p, i), digest in PINNED_BASIS_DIGESTS.items():
        if p == prec:
            assert _basis_digest(i, prec) == digest, (prec, i)



def test_generator_q0_rows():
    assert phi_0_1(4).coefficient(0) == LaurentY({-1: 1, 0: 10, 1: 1})
    assert phi_m2_1(4).coefficient(0) == LaurentY({-1: 1, 0: -2, 1: 1})
    assert phi_0_3half(4).coefficient(0) == LaurentY({0: 1, 1: 1})


def test_basis_weight0_index3_rows():
    els = basis_integral(0, 3)
    assert [e.label() for e in els] == [
        "phi_{0,1}^3",
        "phi_{0,1}*phi_{-2,1}^2*E4",
        "phi_{-2,1}^3*E6",
    ]
    rows = [e.series.coefficient(0) for e in els]
    assert rows[0] == LaurentY({-3: 1, -2: 30, -1: 303, 0: 1060,
                                1: 303, 2: 30, 3: 1})
    assert rows[1] == LaurentY({-3: 1, -2: 6, -1: -33, 0: 52,
                                1: -33, 2: 6, 3: 1})
    assert rows[2] == LaurentY({-3: 1, -2: -6, -1: 15, 0: -20,
                                1: 15, 2: -6, 3: 1})


def test_basis_weight2_half_index_5_rows():
    els = basis_half_integral(2, 5)
    assert len(els) == 1
    s = els[0].series
    assert s.coefficient(0) == LaurentY({-1: 1, 0: -1, 1: -1, 2: 1})
    assert s.coefficient(1) == LaurentY({-3: -1, -1: 246, 0: -245,
                                         1: -245, 2: 246, 4: -1})


def test_basis_dimensions_match_polynomial_ring_count():
    # the weight-0 graded pieces are spanned by phi_{0,1}^c phi_{-2,1}^d E4^a E6^b,
    # so their dimensions follow the modular-forms dimension sum
    assert [len(basis_integral(0, m, prec=2)) for m in range(1, 5)] == [1, 2, 3, 4]
    assert len(basis_integral(0, 6, prec=2)) == 7
    assert len(basis_integral(-2, 1, prec=2)) == 1
    assert len(basis_integral(2, 1, prec=2)) == 1
    assert basis_integral(2, 1, prec=2)[0].label() == "phi_{-2,1}*E4"


def test_basis_weights_and_indices_are_consistent():
    for w, di in [(0, 6), (0, 7), (-2, 2), (2, 5), (4, 4)]:
        for el in basis_half_integral(w, di, prec=2):
            assert el.weight == w
            assert el.double_index == di


def test_half_integral_delegation_and_edge_cases():
    even = basis_half_integral(0, 6, prec=2)
    integral = basis_integral(0, 3, prec=2)
    assert [e.series for e in even] == [e.series for e in integral]
    assert basis_half_integral(0, 1, prec=2) == []
    with pytest.raises(OddWeight):
        basis_integral(1, 2)
    with pytest.raises(OddWeight):
        basis_half_integral(-1, 3)
    with pytest.raises(ValueError):
        basis_integral(0, -1)
    with pytest.raises(ValueError):
        basis_half_integral(0, -2)


def test_linear_fit_recovers_exact_coordinates():
    els = basis_integral(0, 2, prec=5)
    target = els[0].series * Fraction(3) + els[1].series * Fraction(-7, 2)
    assert linear_fit(target, [e.series for e in els]) == [3, Fraction(-7, 2)]

    square = phi_0_1(5) * phi_0_1(5)
    fit = linear_fit(square, [e.series for e in els])
    assert fit is not None
    rebuilt = QYSeries.zero(square.prec2)
    for c, e in zip(fit, els):
        rebuilt = rebuilt + e.series * c
    assert rebuilt == square.truncate(rebuilt.prec2)


def test_linear_fit_rejects_outside_span():
    els = basis_integral(0, 2, prec=4)
    assert linear_fit(QYSeries.one(8), [e.series for e in els]) is None
    assert linear_fit(eisenstein(4, 4), [e.series for e in els]) is None


def test_solve_reports_rank_and_sets_free_columns_to_zero():
    els = [e.series for e in basis_integral(0, 2, prec=4)]
    target = els[0] * Fraction(3) + els[1] * Fraction(-7, 2)
    assert solve(target, els) == ([3, Fraction(-7, 2)], 2)
    # a repeated element adds a free column and no rank
    assert solve(target, els + [els[1]]) == ([3, Fraction(-7, 2), 0], 2)
    assert solve(QYSeries.one(8), els) == (None, 2)
    assert solve(QYSeries.zero(8), []) == ([], 0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 12])
def test_shifted_basis_is_the_basis_times_y_to_half_the_dimension(dim):
    shifted = shifted_basis(dim, 3)
    basis = basis_half_integral(0, dim, prec=3)
    assert len(shifted) == len(basis)
    for s, e in zip(shifted, basis):
        assert s.prec2 == e.series.prec2
        assert s.c == {k2: lau.shift(dim // 2) for k2, lau in e.series.c.items()}
        # index dim/2 and the y^{floor(dim/2)} shift: y-exponents in 0..dim
        # at q^0, as in the genus of a dim-fold
        assert set(s.coefficient(0).c) <= set(range(dim + 1))


def test_linear_fit_with_no_elements():
    assert linear_fit(QYSeries.zero(4), []) == []
    assert linear_fit(QYSeries.one(4), []) is None


def test_basis_element_weight_and_index_are_read_off_its_exponents():
    one = QYSeries.one(4)
    assert JacobiBasisElement(1, 0, 0, 0, False, one).weight == 4
    half = JacobiBasisElement(0, 0, 0, 0, True, one)
    assert (half.weight, half.double_index) == (0, 3)
