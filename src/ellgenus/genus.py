"""Two-variable elliptic genus, chi_y genus, and their Chern-number form.

The genus of a d-fold is int_M prod_i G(x_i) over the Chern roots, with the
per-root factor (already multiplied by the y^{d/2} normalization so that
all outputs have integer powers of y)

    G(x) = prod_{n>=1} (1 - y q^{n-1} e^{-x})(1 - y^{-1} q^n e^x)
           / ((1 - q^n e^{-x})(1 - q^n e^x)) * x/(1 - e^{-x}).

Writing G(x) = G(0) * exp(sum_{m>=1} a_m x^m), the coefficients a_m close
up exactly: log(1 - c e^{sx}) - log(1 - c) expands as
-(s^m/m!) sum_j j^{m-1} c^j per power x^m, so

    a_m = t_m + (-1)^{m+1} L_m(y)/m!
          + (1/m!) sum_{n,j >= 1, nj <= k} j^{m-1} q^{nj}
            (-(-1)^m y^j - y^{-j} + (-1)^m + 1),

with t_m the log-Todd coefficients and L_m(y) = sum_j j^{m-1} y^j =
N_m(y)/(1-y)^m.  The product over the roots is G(0)^d exp(sum_m a_m p_m)
in the power sums p_m, and only its weighted-degree-d part survives
integration: one term prod_m (a_m p_m)^{e_m}/e_m! per partition
(e_1, ..., e_d) of d = sum_m m e_m.  Its denominator divides (1-y)^d and
G(0) carries one factor (1-y), so the series is built with no quotient
from

    b_m = (1-y)^m a_m,   q^0 term (1-y)^m t_m + (-1)^{m+1} N_m/m!,

as (G(0)/(1-y))^d times the sum over partitions of
prod_m (b_m p_m)^{e_m}/e_m!, each power-sum monomial rewritten in the
elementary symmetric polynomials (the Chern classes) by Newton's
identities.  Every partition has sum_m m e_m = d, so the factor is folded
into the b_m: with g = G(0)/(1-y), each b_m is replaced by g^m b_m and no
product by (G(0)/(1-y))^d is left.

That sum is formed in integers.  Newton's identities have integer
coefficients, so the transition T[lambda, mu] from the power-sum monomial
prod_m p_m^{e_m} of a partition lambda to the Chern monomials mu is
integral.  The partitions are walked recursively, largest part first,
carrying two partial products built from memoized powers: prod_m b_m^{e_m}
as a QYSeries and prod_m p_m^{e_m} as an integer polynomial in
e_1..e_d whose monomials are encoded as one int in radix d+1, so that a
monomial product is one addition.  Every partition series
S_lambda = prod_m b_m^{e_m}/e_m! is put over one common denominator D,
fixed before the walk, and sum_lambda T[lambda, mu] S_lambda is added
cell by cell in Python ints (qseries.IntegerCombination) one partition at
a time, so no transition row outlives its partition.  One QYSeries per
Chern monomial is built only at the end.  Substituting Chern numbers forms
sum_mu c_mu S_mu by the same integer combination.

Factors with n > k contribute only beyond q^k, so the products are
truncated at n = k.  The universal genus is kept as one QYSeries per Chern
monomial and printed by the one series renderer, render.format_series;
doubled q-exponents appear here only as the doubled precisions handed to
QYSeries constructors.

A Calabi-Yau d-fold takes a shorter path.  Its elliptic genus is a weak
Jacobi form of weight 0 and index d/2 (Kawai-Yamada-Yang 1994,
Borisov-Libgober 2000), so it is determined by its coordinates in the
basis of jacobi.basis_half_integral, shifted by y^{floor(d/2)} as the
genus is (jacobi.shifted_basis).  When c_1 = 0 (every Dynkin label of the
tangent weights minus the section weights is 0) and the basis rows up to
some q^k0 with k0 < k have full column rank, the genus is computed to
q^k0 only, by the universal path, its unique coordinates are solved for
there (jacobi.solve), and sum_i c_i phi_i is returned to q^k, so the cost
stops growing with k past k0.  k0 is the least such order, read from the
basis alone: 0 for d = 1-11 and 13, 1 for d = 12 and 14-23, 2 for d = 24.
Rows outside the span, or an expansion that does not reproduce them,
raise ConsistencyError.  Every G/P, every other complete intersection,
and every case whose rank is not full below q^k takes the universal path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .ci import chern_number, chern_numbers
from .cohomology import CohomologyClass
from .errors import ConsistencyError, InvalidInput, PrecisionZero, TooLarge
from .jacobi import shifted_basis, solve
from .qseries import IntegerCombination, LaurentY, QYSeries, _product_series, _rows
from .render import format_series
from .roots import Weight
from .taylor import log_todd_coefficients

_F = Fraction
MAX_CHERN_MONOMIALS = 5000
"""Largest number p(dim) of Chern monomials, one per partition of dim, of
a universal elliptic genus; beyond it TooLarge is raised before any work.
E7[7] (dim 27, p = 3010) still runs; the full E6 flag (dim 36) does not."""
_ONE_MINUS_Y = LaurentY({0: _F(1), 1: _F(-1)})


# --------------------------------------------------------------------------
# the per-root log coefficients, cleared of (1-y)


def _l_numerators(max_m):
    """Numerators N_m with sum_j j^{m-1} y^j = N_m/(1-y)^m, m = 1..max_m."""
    nums = [None, LaurentY.y_pow(1)]
    for m in range(1, max_m):
        n = nums[m]
        nxt = (n.derivative() * _ONE_MINUS_Y + n * m).shift(1)
        nums.append(nxt)
    return nums


def _log_coefficients(dim, k):
    """g^m b_m for m = 1..dim, with b_m = (1-y)^m a_m and g = G(0)/(1-y),
    as QYSeries to q^k."""
    t = log_todd_coefficients(dim)
    lnum = _l_numerators(dim)
    g = _g0_series(k)
    g_m = QYSeries.one(2 * k)
    out = {}
    for m in range(1, dim + 1):
        fm = _F(1, factorial(m))
        sign = _F(-1) if m % 2 else _F(1)  # (-1)^m
        terms = {0: LaurentY.const(t[m])}
        for n in range(1, k + 1):
            for j in range(1, k // n + 1):
                body = LaurentY({j: -sign, -j: _F(-1), 0: sign + 1})
                piece = body * (fm * j ** (m - 1))
                nj = n * j
                terms[nj] = terms[nj] + piece if nj in terms else piece
        g_m = g_m * g
        out[m] = (QYSeries.from_q_dict(k, terms) * _ONE_MINUS_Y ** m
                  + lnum[m] * (-sign * fm)) * g_m
    return out


def _g0_series(k):
    """G(0)/(1-y) as a QYSeries to q^k: prod_{n<=k}
    (1-yq^n)(1-y^{-1}q^n)/(1-q^n)^2."""
    factors = ((1, 1), (-1, 1), (0, -2))  # (s, e): (1 - q^n y^s)^e
    return _product_series(_rows(LaurentY.const(1), k), factors)


def _partitions(total, largest):
    """Partitions of total into parts <= largest, as multiplicity tuples
    (e_1, ..., e_largest) with sum m e_m = total."""
    if largest == 1:
        yield (total,)
        return
    for e in range(total // largest + 1):
        for head in _partitions(total - largest * e, largest - 1):
            yield head + (e,)


def _partition_count(n):
    """p(n), by Euler's pentagonal-number recurrence
    p(m) = sum_{j>=1} (-1)^(j+1) (p(m - j(3j-1)/2) + p(m - j(3j+1)/2)),
    without listing the partitions."""
    p = [1]
    for m in range(1, n + 1):
        p.append(sum((1 if j % 2 else -1) * p[m - g] for j in range(1, m + 1)
                     for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if g <= m))
    return p[n]


# --------------------------------------------------------------------------
# symmetric-function bookkeeping: a polynomial in e_1..e_d is a
# CohomologyClass in d variables, variable m-1 standing for e_m


@lru_cache(maxsize=None)
def power_sum_in_elementary(m, dim):
    """p_m as a CohomologyClass in dim variables, variable i-1 standing for
    e_i, by Newton's identity
    p_m = sum_{i<m} (-1)^{i-1} e_i p_{m-i} + (-1)^{m-1} m e_m."""
    if not 1 <= m <= dim:
        raise InvalidInput("power sum index out of range")
    e = lambda i: CohomologyClass.linear_form([int(j == i - 1) for j in range(dim)])
    total = e(m) * ((-1) ** (m - 1) * m)
    for i in range(1, m):
        rec = power_sum_in_elementary(m - i, dim)
        total = total + e(i).times(rec) * (-1) ** (i - 1)
    return total


def _encoded(poly, radix):
    """A CohomologyClass with integral coefficients as {code: int}, the
    exponent tuple (a_1, ..., a_d) encoded as sum_i a_i radix^(i-1)."""
    return {sum(a * radix ** i for i, a in enumerate(e)): int(c)
            for e, c in poly.c.items()}


def _decoded(code, dim, radix):
    """The exponent tuple of length dim that _encoded maps to code."""
    exponents = []
    for _ in range(dim):
        code, a = divmod(code, radix)
        exponents.append(a)
    return tuple(exponents)


def _poly_times(a, b):
    """Product of two {code: int} polynomials: a monomial product is the sum
    of the codes while no exponent reaches the radix."""
    out = {}
    for ca, va in a.items():
        for cb, vb in b.items():
            c = ca + cb
            out[c] = out.get(c, 0) + va * vb
    return {c: v for c, v in out.items() if v}


# --------------------------------------------------------------------------
# the universal genus


def _check_monomial_count(dim):
    """TooLarge when a dim-fold's universal genus has more than
    MAX_CHERN_MONOMIALS Chern monomials."""
    count = _partition_count(dim)
    if count > MAX_CHERN_MONOMIALS:
        raise TooLarge(f"a {dim}-fold's universal elliptic genus has {count} "
                       f"Chern monomials, more than the limit of "
                       f"{MAX_CHERN_MONOMIALS}")


class ChernSymbolSeries:
    """The universal genus of a dim-fold to q^order: one QYSeries per Chern
    monomial c_1^{a_1} ... c_d^{a_d} of weighted degree exactly d, keyed by
    the exponent tuple (a_1, ..., a_d), zero series dropped."""

    def __init__(self, dim, order, series):
        self.dim = dim
        self.order = order
        self.series = {e: s for e, s in series.items() if not s.is_zero()}

    def monomials(self):
        return sorted(self.series, reverse=True)

    def coefficient(self, q, exponents):
        """LaurentY coefficient of one Chern monomial at q^q, exponents
        (a_1, ..., a_d); PrecisionZero past the order, as for a QYSeries."""
        e = tuple(exponents)
        if len(e) != self.dim:
            raise InvalidInput(f"expected {self.dim} exponents")
        if q > self.order:
            raise PrecisionZero(f"q^{q} beyond retained precision")
        return self.series[e].coefficient(q) if e in self.series else LaurentY()

    def substitute(self, values):
        """QYSeries obtained by replacing each Chern monomial by a number;
        values maps exponent tuples to Fractions.  The sum is one integer
        combination over the common denominator of its terms."""
        terms = [(values[e], s) for e, s in self.series.items() if values[e]]
        total = IntegerCombination(lcm(*(v.denominator * s.denominator()
                                         for v, s in terms)), 2 * self.order)
        for v, s in terms:
            total.add(v.numerator, s.numerators(total.den // v.denominator))
        return total.series()

    def __str__(self):
        # row q, y-power y^j: the (coefficient, monomial) pairs, monomials
        # descending
        rows = {}
        for e in self.monomials():
            label = "*".join(f"c{m}" if a == 1 else f"c{m}^{a}"
                             for m, a in enumerate(e, start=1) if a)
            for q, ly in self.series[e].terms():
                row = rows.setdefault(q, {})
                for j, c in ly.c.items():
                    row.setdefault(j, []).append((c, label))
        return format_series(sorted((q, sorted(row.items()))
                                    for q, row in rows.items()), self.order)

    def __repr__(self):
        return str(self)


@lru_cache(maxsize=None)
def elliptic_genus_chernnum(dim, k):
    """Universal elliptic genus of a dim-fold to q-order k, as Chern
    monomials; multiplied by y^{dim/2} so y-exponents are integers.
    TooLarge, before any work, past MAX_CHERN_MONOMIALS monomials."""
    if dim < 1:
        raise InvalidInput("dimension must be at least 1")
    if k < 0:
        raise InvalidInput("q-order must be nonnegative")
    _check_monomial_count(dim)
    b = _log_coefficients(dim, k)
    radix = dim + 1  # no exponent of a weighted-degree-dim monomial exceeds dim
    # b_m^e/e! and p_m^e for e <= dim // m, index e
    series_pows, poly_pows = {}, {}
    for m in range(1, dim + 1):
        p = _encoded(power_sum_in_elementary(m, dim), radix)
        series_pows[m], poly_pows[m] = [QYSeries.one(2 * k), b[m]], [{0: 1}, p]
        for e in range(2, dim // m + 1):
            series_pows[m].append(series_pows[m][-1] * b[m] * _F(1, e))
            poly_pows[m].append(_poly_times(poly_pows[m][-1], p))
    # one common denominator for every partition's prod_m b_m^{e_m}/e_m!
    dens = {m: [s.denominator() for s in pows] for m, pows in series_pows.items()}
    den = lcm(*(prod(dens[m][e] for m, e in enumerate(partition, start=1))
                for partition in _partitions(dim, dim)))
    # the weighted-degree-dim part of exp(sum_m b_m p_m): per partition,
    # its series is added into each Chern monomial's integer combination
    # with the monomial's coefficient in prod_m p_m^{e_m}
    sums = {}

    def walk(m, rest, series, poly):
        # choose e_m, ..., e_1 with sum_i i e_i = rest
        if rest == 0:
            cells = series.numerators(den)
            for code, t in poly.items():
                if code not in sums:
                    sums[code] = IntegerCombination(den, 2 * k)
                sums[code].add(t, cells)
            return
        for e in range(rest // m + 1) if m > 1 else (rest,):
            walk(m - 1, rest - m * e,
                 series * series_pows[m][e] if e else series,
                 _poly_times(poly, poly_pows[m][e]) if e else poly)

    walk(dim, dim, QYSeries.one(2 * k), {0: 1})
    return ChernSymbolSeries(dim, k, {_decoded(code, dim, radix): acc.series()
                                      for code, acc in sums.items()})


def elliptic_genus(manifold, k, rng=None):
    """Elliptic genus of a homogeneous space or complete intersection to
    q-order k (multiplied by y^{d/2}).  A Calabi-Yau complete intersection
    whose shifted weak Jacobi basis has full rank on its rows up to some
    q^k0 with k0 < k is fitted there and expanded from the basis
    (_jacobi_expansion); every other input substitutes its Chern numbers
    into the universal expression to q^k (_universal_genus)."""
    dim = manifold.dimension()
    rng = rng if rng is not None else random.Random()
    if dim == 0:
        points = chern_number(manifold, [], rng=rng)
        return QYSeries.const(points, 2 * k)
    # the fixed-point guard runs first and without walking; the universal
    # series' size is checked next, both before any work
    manifold.ambient.parabolic.check_fixed_point_count()
    if k > 0 and _c1_vanishes(manifold):
        _check_monomial_count(dim)
        basis = shifted_basis(dim, k)
        k0 = next((j for j in range(k)
                   if solve(QYSeries.zero(2 * j), basis)[1] == len(basis)), None)
        if k0 is not None:
            return _jacobi_expansion(_universal_genus(manifold, k0, rng),
                                     basis, k)
    return _universal_genus(manifold, k, rng)


def _c1_vanishes(manifold):
    """Whether c_1 of the manifold is 0.  It is the sum of the tangent
    weights of G/P minus the section weights, a character of P, and
    Pic(G/P) is P's character group, so c_1 = 0 exactly when every Dynkin
    label of that sum is 0.  Raw ambient coordinates do not decide it:
    on type A the labels ignore the central direction."""
    space = manifold.ambient
    total = Weight([0] * space.ambient_dim)
    for w in space.tangent_weights:
        total = total + w
    for w in manifold.section:
        total = total - w
    return not any(space.root_system.fundamental_coordinates(total))


def _universal_genus(manifold, k, rng):
    """The genus to q^k from the universal expression and the manifold's
    Chern numbers, all computed in one chern_numbers call."""
    universal = elliptic_genus_chernnum(manifold.dimension(), k)
    monomials = universal.monomials()
    degree_lists = [[m for m, e in enumerate(emon, start=1) for _ in range(e)]
                    for emon in monomials]
    values = chern_numbers(manifold, degree_lists, rng=rng)
    return universal.substitute(dict(zip(monomials, values)))


def _jacobi_expansion(rows, basis, k):
    """sum_i c_i basis_i to q^k, with c the unique coordinates of a genus's
    rows up to q^k0 (a QYSeries to q^k0) in the basis, whose coefficients
    there have full rank.  A Calabi-Yau d-fold's genus is a weak Jacobi
    form of weight 0 and index d/2, so the basis fixes every higher row;
    ConsistencyError when the rows are outside the span, or when the
    expansion does not reproduce them."""
    coords, _ = solve(rows, basis)
    if coords is None:
        raise ConsistencyError("the low q-rows of a Calabi-Yau genus are "
                               "not a weak Jacobi form of weight 0")
    genus = QYSeries.zero(2 * k)
    for c, phi in zip(coords, basis):
        genus = genus + phi * c
    if genus.truncate(rows.prec2) != rows:
        raise ConsistencyError("the weak Jacobi expansion of a Calabi-Yau "
                               "genus does not reproduce its low q-rows")
    return genus


def chi_y(manifold, rng=None):
    """chi_y genus (times y^{d/2}): the q^0 coefficient of the elliptic
    genus."""
    return elliptic_genus(manifold, 0, rng=rng).coefficient(0)
