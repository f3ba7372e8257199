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

That sum is formed in integers, each series numerator packed into one int
(qseries.PackedLayout): cell (q, y) to q^k is digit q W + y, W = d + 2k + 2,
in base 2^B with signed digits, so a series product is one big-int product
cut to q^k by one mask (factors with n > k act only beyond q^k).  Each
g^m b_m is g^m base_m / delta_m, with g integral and base_m an int
polynomial of y-span m over delta_m = lcm(den t_m, m!), cleared of its
content.  Newton's identities have integer coefficients, so the transition
T[lambda, mu] from the power-sum monomial p_lambda = prod_m p_m^{e_m} to
the Chern monomials mu is integral; monomials in e_1..e_d are encoded as
one int in radix d+1, so that a monomial product is one addition.  The
partitions are walked recursively, largest part first, one packed product
per step by a memoized power (g^m base_m)^e, each partition's numerator
x_lambda scaled to the common denominator D = lcm of the
den_lambda = prod_m delta_m^{e_m} e_m!.  T is never formed (1.8 million
nonzeros at d = 27): at level m the walk returns A = sum_lambda x_lambda
prod_{i<=m} p_i^{e_i} over the partitions completing the parts chosen
above m, which is sum_e p_m^e A_e over the levels A_e below, formed by
Horner's rule A_0 + p_m (A_1 + p_m (A_2 + ...)): p(d) - 1 dict products
by p_m, 0.26 million multiply-adds of a packed int at d = 27.

B is fixed before any packing, from row norms (sums of |cells| per
q-row): those of a product are dominated by the product of the row-norm
series cut at q^k, as the L1 norm of Laurent polynomials is
submultiplicative, and a factor with nonnegative coefficients and
constant term >= 1 never lowers a bound.  (1 - y q^n)(1 - y^-1 q^n) has
row norms (1 + q^n)^2, so g^s is dominated by G^d for s <= d, with
G = prod_{n<=k} (1 + q^n)^2 / (1 - q^n)^2.  The row norms W_m of base_m
have constant term >= 1, as the q^0 row of a_m is not constant in y.  The
monomials of p_m carry the sign (-1)^{m - length}, multiplicative in the
e_i, so none cancel and sum_mu |T[lambda, mu]| is prod_m p_m^{e_m} at
e_i = (-1)^{i-1}, where prod_i (1 + x_i t) = (1 + 2t)/(1 + t): that is
prod_m (2^m - 1)^{e_m}.  So no cell in row n of a Chern monomial's sum
exceeds the q^n coefficient of

    G^d * sum_lambda (D / den_lambda) prod_m ((2^m - 1) W_m)^{e_m},

nor does a cell of a partial product, power or factor of g (part of a
partition's term, factors dominating 1 left out) or of a partial sum of
Horner's rule (fewer partitions, fewer factors of each T row); B - 1 bits
hold its largest coefficient.  Row by row, (8, 3) needs 56 bits, not the
80 of whole-series norms.

As a check, G(x) = x at y = 1, so every q-row of every monomial's
numerator sums to 0 over y, but the q^0 row of c_d, which sums to D.
As a second check, G with y -> 1/y at -x is -G(x)/y, so every q-row is
symmetric, cell (q, y) = cell (q, d - y); it sees an overflow whose
carries cancel within a row.  The checks unpack each numerator's cells
once; the text and a widened substitution read those same cells.

A Calabi-Yau d-fold takes a shorter path.  Its elliptic genus is a weak
Jacobi form of weight 0 and index d/2 (Kawai-Yamada-Yang 1994,
Borisov-Libgober 2000), so it is determined by its coordinates in the
basis of jacobi.basis_half_integral, shifted by y^{floor(d/2)} as the
genus is (jacobi.shifted_basis).  When c_1 = 0 (every Dynkin label of the
tangent weights minus the section weights is 0) and the basis rows up to
some q^k0 with k0 < k have full column rank, the genus is computed to
q^k0 only, by the universal path, its unique coordinates are solved for
there by one fit (jacobi.linear_fit, which checks every fitted row), and
sum_i c_i phi_i is returned to q^k, so the cost stops growing with k past
k0.  k0 is the least such order, read from the basis alone: 0 for d = 1-11
and 13, 1 for d = 12 and 14-23, 2 for d = 24.  Rows outside the span
raise ConsistencyError.  Every G/P, every other complete intersection,
and every case whose rank is not full below q^k takes the universal path.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

from .ci import chern_number, chern_numbers
from .errors import ConsistencyError, InvalidInput, TooLarge, integer
from .jacobi import linear_fit, shifted_basis, solve
from .qseries import PackedLayout, QYSeries
from .render import format_series
from .roots import Weight
from .taylor import log_todd_coefficients

MAX_CHERN_MONOMIALS = 5000
"""Largest number p(dim) of Chern monomials, one per partition of dim, of
a universal elliptic genus; beyond it TooLarge is raised before any work.
E7[7] (dim 27, p = 3010) still runs; the full E6 flag (dim 36) does not."""
MAX_LOCALIZATION_TERMS = 10 ** 6
"""Largest product of fixed points and Chern monomials of one genus, past
which TooLarge is raised before any work: about a minute at the 65-80 us
per pair measured on chi_y of E6[2], E7[7] (56 x 3010, 16 s) and the full
A5 flag on a 2-core host.  The full A7 flag (40320 x 3718) is refused."""


# --------------------------------------------------------------------------
# the per-root log coefficients, cleared of (1-y), in ints


def _log_bases(dim, k):
    """Per m = 1..dim, (cells, delta_m): the int cells {(q, y): v} to q^k
    of delta_m b_m, b_m = (1-y)^m a_m before g^m is folded in, over its
    least denominator delta_m."""
    t = log_todd_coefficients(dim)
    out = {}
    for m in range(1, dim + 1):
        sign = (-1) ** m
        delta = lcm(t[m].denominator, factorial(m))
        f = delta // factorial(m)
        binom = [(-1) ** i * comb(m, i) for i in range(m + 1)]  # (1-y)^m
        cells = {}
        for q, y, v in [(0, 0, int(delta * t[m]))] + [
                (n * j, y, c * f * j ** (m - 1)) for n in range(1, k + 1)
                for j in range(1, k // n + 1)
                for y, c in ((j, -sign), (-j, -1), (0, sign + 1)) if c]:
            for i, b in enumerate(binom):
                cells[q, y + i] = cells.get((q, y + i), 0) + b * v
        for y in range(1, m + 1):  # N_m, its coefficients Eulerian numbers
            cells[0, y] -= sign * f * sum(binom[i] * (y - i) ** (m - 1) for i in range(y))
        content = gcd(delta, *cells.values())
        out[m] = ({cell: v // content for cell, v in cells.items() if v},
                  delta // content)
    return out


def _g_packed(layout):
    """g = G(0)/(1-y) = prod_{n<=k} (1-yq^n)(1-y^{-1}q^n)/(1-q^n)^2, packed."""
    k, g = layout.order, 1
    for n in range(1, k + 1):
        geometric = layout.pack(((n * j, 0), 1) for j in range(k // n + 1))
        for s in (1, -1):
            g = layout.mul(g, layout.pack((((0, 0), 1), ((n, s), -1))))
        g = layout.mul(layout.mul(g, geometric), geometric)
    return g


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
# symmetric-function bookkeeping: a polynomial in e_1..e_d is a dict
# {code: int}, its monomials encoded as one int in radix d+1


def _power_sums(dim):
    """p_1..p_dim in e_1..e_dim, index m, as {code: int}: the exponent
    tuple (a_1, ..., a_dim) encoded as sum_i a_i radix^(i-1), radix dim+1.
    By Newton's identity p_m = sum_{i<m} (-1)^{i-1} e_i p_{m-i}
    + (-1)^{m-1} m e_m, where multiplying by e_i adds radix^(i-1)."""
    radix = dim + 1
    p = [None]
    for m in range(1, dim + 1):
        poly = {radix ** (m - 1): (-1) ** (m - 1) * m}
        for i in range(1, m):
            shift, sign = radix ** (i - 1), (-1) ** (i - 1)
            for code, v in p[m - i].items():
                poly[code + shift] = poly.get(code + shift, 0) + sign * v
        p.append(poly)
    return p


def _decoded(code, dim, radix):
    """The exponent tuple of length dim encoded as code in radix."""
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
    return count


class ChernSymbolSeries:
    """The universal genus of a dim-fold to q^order: per Chern monomial
    c_1^{a_1} ... c_d^{a_d} of weighted degree exactly d, keyed by the
    exponent tuple (a_1, ..., a_d), the numerator of its series over the
    common denominator den, packed in layout (qseries.PackedLayout), zero
    series dropped; no cell exceeds largest in absolute value.  cells
    holds each numerator's nonzero ((q, y), int) cells, unpacked once by
    the self-checks and read again by the text and by substitute."""

    def __init__(self, dim, order, layout, den, packed, largest, cells):
        self.dim, self.order = dim, order
        self.layout, self.den, self.largest = layout, den, largest
        self.packed, self.cells = packed, cells

    @property
    def series(self):
        """One QYSeries per Chern monomial."""
        return {e: self.layout.series(x, self.den) for e, x in self.packed.items()}

    def monomials(self):
        return sorted(self.packed, reverse=True)

    def coefficient(self, q, exponents):
        """LaurentY coefficient of one Chern monomial at q^q, exponents
        (a_1, ..., a_d); PrecisionZero past the order, as for a QYSeries."""
        e = tuple(exponents)
        if len(e) != self.dim:
            raise InvalidInput(f"expected {self.dim} exponents")
        return self.layout.series(self.packed.get(e, 0), self.den).coefficient(q)

    def substitute(self, values):
        """QYSeries obtained by replacing each Chern monomial by a number;
        values maps exponent tuples to Fractions.  One multiply-add per
        monomial, in a layout widened when the sum could outgrow it."""
        terms = [(values[e], x, e) for e, x in self.packed.items() if values[e]]
        scale = lcm(*(v.denominator for v, _, _ in terms))
        coeffs = [v.numerator * (scale // v.denominator) for v, _, _ in terms]
        wide = PackedLayout(self.order, self.dim, sum(map(abs, coeffs)) * self.largest)
        layout = self.layout if wide.bits <= self.layout.bits else wide
        total = sum(c * (x if layout is self.layout else wide.pack(self.cells[e]))
                    for c, (_, x, e) in zip(coeffs, terms))
        return layout.series(total, self.den * scale)

    def __str__(self):
        # per cell (q, j), the (numerator, den, monomial) terms of y^j q^q,
        # the monomials descending
        terms, den = {}, self.den
        for e in self.monomials():
            label = "*".join(f"c{m}" if a == 1 else f"c{m}^{a}"
                             for m, a in enumerate(e, start=1) if a)
            for cell, v in self.cells[e]:
                if cell in terms:
                    terms[cell].append((v, den, label))
                else:
                    terms[cell] = [(v, den, label)]
        rows = {}
        for (q, j), row in sorted(terms.items()):
            rows.setdefault(q, []).append((j, row))
        return format_series(list(rows.items()), self.order)

    def __repr__(self):
        return str(self)


def _times(a, b):
    """The product of two q-series given as equally long lists of their
    coefficients, truncated to that length."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _layout(dim, k, bases, dens):
    """(D, layout): the common denominator D of the partitions' terms and
    the PackedLayout to q^k whose digits hold every cell of the walk, by
    the row-by-row bound of the module docstring."""
    # G = prod_{n<=k} (1 + q^n)^2 / (1 - q^n)^2: times (1 + q^n) is the
    # descending pass a[i] += a[i-n], divided by (1 - q^n) the ascending one
    g_norm = [1] + [0] * k
    for n in range(1, k + 1):
        for ks in (range(k, n - 1, -1),) * 2 + (range(n, k + 1),) * 2:
            for i in ks:
                g_norm[i] += g_norm[i - n]
    dominant = [1] + [0] * k
    for _ in range(dim):
        dominant = _times(dominant, g_norm)
    # per m, the powers of the row norms of (2^m - 1) base_m
    norm_pows = {}
    for m, (cells, _) in bases.items():
        w = [0] * (k + 1)
        for (q, _), v in cells.items():
            w[q] += (2 ** m - 1) * abs(v)
        norm_pows[m] = [[1] + [0] * k, w]
        for _ in range(2, dim // m + 1):
            norm_pows[m].append(_times(norm_pows[m][-1], w))
    parts = [[(m, e) for m, e in enumerate(part, start=1) if e]
             for part in _partitions(dim, dim)]
    den_parts = [prod(dens[m][e] for m, e in part) for part in parts]
    den = lcm(*den_parts)
    total = [0] * (k + 1)
    for part, den_l in zip(parts, den_parts):
        term = [den // den_l] + [0] * k
        for m, e in part:
            term = _times(term, norm_pows[m][e])
        total = [a + b for a, b in zip(total, term)]
    return den, PackedLayout(k, dim, max(_times(dominant, total)))


@lru_cache(maxsize=None)
def elliptic_genus_chernnum(dim, k):
    """Universal elliptic genus of a dim-fold to q-order k, as Chern
    monomials; multiplied by y^{dim/2} so y-exponents are integers.
    TooLarge, before any work, past MAX_CHERN_MONOMIALS monomials;
    ConsistencyError when the result at y = 1 is not c_dim or a q-row is
    not symmetric under y -> dim - y."""
    dim, k = integer(dim, "a dimension"), integer(k, "a q-order")
    if dim < 1:
        raise InvalidInput("dimension must be at least 1")
    if k < 0:
        raise InvalidInput("q-order must be nonnegative")
    _check_monomial_count(dim)
    bases = _log_bases(dim, k)
    # delta_m^e e!, the denominator of b_m^e/e!, for e <= dim // m
    dens = {m: [delta ** e * factorial(e) for e in range(dim // m + 1)]
            for m, (_, delta) in bases.items()}
    den, layout = _layout(dim, k, bases, dens)
    # (g^m b_m)^e for e <= dim // m, index e
    g, g_m, pows = _g_packed(layout), 1, {}
    for m, (cells, _) in bases.items():
        g_m = layout.mul(g_m, g)
        b = layout.mul(layout.pack(cells.items()), g_m)
        pows[m] = [1, b]
        for e in range(2, dim // m + 1):
            pows[m].append(layout.mul(pows[m][-1], b))
    p = _power_sums(dim)

    def walk(m, rest, series, den_l):
        # the weighted-degree-rest part of exp(sum_{i<=m} b_i p_i) times
        # series / den_l, over den: per partition of rest into parts <= m,
        # its numerator times prod_i p_i^{e_i}, in e_1..e_m, summed by
        # Horner's rule in p_m, e_m descending
        if m == 1 or rest == 0:
            if rest:  # p_1^rest = e_1^rest, code rest
                series, den_l = layout.mul(series, pows[1][rest]), den_l * dens[1][rest]
            return {rest: series * (den // den_l)}
        acc = None
        for e in range(rest // m, -1, -1):
            inner = walk(m - 1, rest - m * e,
                         layout.mul(series, pows[m][e]) if e else series,
                         den_l * dens[m][e])
            if acc is None:
                acc = inner
            else:
                acc = _poly_times(acc, p[m])
                for code, x in inner.items():
                    acc[code] = acc.get(code, 0) + x
        return acc

    sums = walk(dim, dim, 1, 1)
    # G(x) = x at y = 1: every q-row of every numerator sums to 0 over y,
    # but the q^0 row of c_dim, which sums to den; and every row is Serre
    # symmetric, cell (q, y) = cell (q, dim - y)
    radix = dim + 1  # no exponent of a weighted-degree-dim monomial exceeds dim
    top = radix ** (dim - 1)
    largest, symmetric, packed, unpacked = 0, True, {}, {}
    for code in sums.keys() | {top}:
        x = sums.get(code, 0)
        rows, cells = [0] * (k + 1), layout.cells(x)
        by_cell = dict(cells)
        for (q, _), v in cells:
            rows[q] += v
        largest = max(largest, max(map(abs, by_cell.values()), default=0))
        symmetric = symmetric and by_cell == {(q, dim - y): v for (q, y), v in cells}
        if rows != [den if code == top else 0] + [0] * k:
            raise ConsistencyError("the universal elliptic genus is not c_d at y = 1")
        if x:
            e = _decoded(code, dim, radix)
            packed[e], unpacked[e] = x, cells
    if not symmetric:
        raise ConsistencyError("the universal elliptic genus is not Serre symmetric")
    return ChernSymbolSeries(dim, k, layout, den, packed, largest, unpacked)


def elliptic_genus(manifold, k, rng=None):
    """Elliptic genus of a homogeneous space or complete intersection to
    q-order k (multiplied by y^{d/2}).  A Calabi-Yau complete intersection
    whose shifted weak Jacobi basis has full rank on its rows up to some
    q^k0 with k0 < k is fitted there (jacobi.linear_fit) and expanded from
    the basis; ConsistencyError when those rows are not a weak Jacobi
    form.  Every other input substitutes its Chern numbers into the
    universal expression to q^k (_universal_genus)."""
    dim = manifold.dimension()
    if dim == 0:
        points = chern_number(manifold, [], rng=rng)
        return QYSeries.const(points, 2 * k)
    # the fixed-point guard runs first and without walking; the universal
    # series' size is checked next, then their product, all before any work
    terms = (manifold.ambient.parabolic.check_fixed_point_count()
             * _check_monomial_count(dim))
    if terms > MAX_LOCALIZATION_TERMS:
        raise TooLarge(f"the localization of a {dim}-fold's Chern numbers "
                       f"has {terms} (fixed point, Chern monomial) pairs, "
                       f"more than the limit of {MAX_LOCALIZATION_TERMS}")
    if k > 0 and _c1_vanishes(manifold):
        basis = shifted_basis(dim, k)
        k0 = next((j for j in range(k)
                   if solve(QYSeries.zero(2 * j), basis)[1] == len(basis)), None)
        if k0 is not None:
            coords = linear_fit(_universal_genus(manifold, k0, rng), basis)
            if coords is None:
                raise ConsistencyError("the low q-rows of a Calabi-Yau genus "
                                       "are not a weak Jacobi form of weight 0")
            genus = QYSeries.zero(2 * k)
            for c, phi in zip(coords, basis):
                genus = genus + phi * c
            return genus
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


def chi_y(manifold, rng=None):
    """chi_y genus (times y^{d/2}): the q^0 coefficient of the elliptic
    genus."""
    return elliptic_genus(manifold, 0, rng=rng).coefficient(0)
