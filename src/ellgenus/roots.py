"""Root systems, Weyl groups and parabolic subgroups in ambient coordinates.

Realizations follow the standard ambient spaces with Bourbaki node
numbering: A_n lives in R^{n+1} with fundamental weights
e_1 + ... + e_k, B_n/C_n/D_n in R^n, G_2 in R^3, F_4 in R^4 and the E
types in R^8.  Construction and the walk are integer-only: the Cartan
matrix and coroots come from the simple roots as integer vectors, and the
positive roots are coefficient tuples over them, closed under the ascents
s_i(c) = c - <c, alpha_i-check> e_i.  The exact rational coordinates of the
simple, positive, Levi and nilradical roots are built on first use.
Weyl group elements, Weyl orbits and the minimal coset representatives
W^P all come from one breadth-first walk over a W-orbit of weights in
fundamental-weight coordinates (Humphreys, Reflection Groups and Coxeter
Groups, 1.10-1.12): the orbit of lambda = sum of the crossed fundamental
weights is in bijection with W^P, and each accepted step multiplies the
carried matrix by a simple reflection with a rank-one update on integers:
every Weyl matrix of a type has entries k/D with |k| <= D for one
denominator D (1 for A-D, 2 for F4, 3 for G2, 4 for E6-E8), so a
WeylElement holds only the integer matrix D M with its D, which
localization reads as it is.  No matrix is inverted: on first use, the
form S = sum_{beta > 0} c c^T over the coefficient tuples gives
v_i = sum_j S[i][j] alpha_j = s_i omega_i in integers, which yields the
fundamental weights, the evaluation points of localization and the Levi
root-order test of Freudenthal's recursion.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm, prod

from .errors import (ConsistencyError, InvalidInput, NotPDominant, TooLarge, UnknownType,
                     integer)
from .render import format_dynkin

_F = Fraction
MAX_FIXED_POINTS = 10 ** 5
"""Largest |W^P| that ParabolicSubgroup.coset_representatives enumerates;
beyond it TooLarge is raised before any walking (the full E8 flag has
696729600 fixed points)."""
_RANK_RULES = {"A": lambda n: n >= 1, "B": lambda n: n >= 2, "C": lambda n: n >= 3,
               "D": lambda n: n >= 4, "E": lambda n: n in (6, 7, 8),
               "F": lambda n: n == 4, "G": lambda n: n == 2}
_SUPPORTED = "A1+, B2+, C3+, D4+, E6-E8, F4, G2"
_DENOMINATORS = {"E": 4, "F": 2, "G": 3}
"""Denominator D of the Weyl matrices of each type; 1 for the types absent."""


class Weight:
    """Vector in the ambient space, also used for roots and linear forms."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(c if isinstance(c, Fraction) else _F(c) for c in coords)

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __hash__(self):
        return hash(self.coords)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.coords == other.coords

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Weight(tuple(-a for a in self.coords))

    def __mul__(self, scalar):
        s = _F(scalar)
        return Weight(tuple(a * s for a in self.coords))

    __rmul__ = __mul__

    def dot(self, other):
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def norm2(self):
        return self.dot(self)

    def pair(self, alpha):
        """<self, alpha-check> = 2 (self, alpha) / (alpha, alpha)."""
        return 2 * self.dot(alpha) / alpha.norm2()

    def reflect(self, alpha):
        return self - alpha * self.pair(alpha)

    def is_zero(self):
        return all(not c for c in self.coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"Weight{self}"


def _matvec(mat, vec):
    return tuple(sum(r * v for r, v in zip(row, vec)) for row in mat)


class WeylElement:
    """Orthogonal ambient matrix M with a reduced word, held only as the
    int tuples `scaled` of D M for a denominator `den` = D of its entries.
    The Fraction matrix is built on demand; equality cross-multiplies the
    rows by the other D and the hash reads them in lowest terms, so
    elements with different D can be equal and neither builds a Fraction."""

    __slots__ = ("scaled", "den", "word")

    def __init__(self, scaled, den, word=()):
        self.scaled, self.den, self.word = scaled, den, tuple(word)

    @classmethod
    def identity(cls, n, den=1):
        return cls(tuple(tuple(den if i == j else 0 for j in range(n)) for i in range(n)), den)

    @property
    def matrix(self):
        return tuple(tuple(_F(v, self.den) for v in row) for row in self.scaled)

    @property
    def length(self):
        return len(self.word)

    def apply(self, weight):
        return Weight([v / self.den for v in _matvec(self.scaled, weight.coords)])

    def __mul__(self, other):
        cols = list(zip(*other.scaled))
        prod = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                     for row in self.scaled)
        return WeylElement(prod, self.den * other.den, self.word + other.word)

    def inverse(self):
        return WeylElement(tuple(zip(*self.scaled)), self.den, reversed(self.word))

    def __hash__(self):
        g = gcd(self.den, *(v for row in self.scaled for v in row))
        return hash((self.den // g, tuple(tuple(v // g for v in row) for row in self.scaled)))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and (
            [[v * other.den for v in row] for row in self.scaled]
            == [[v * self.den for v in row] for row in other.scaled])

    def __repr__(self):
        return f"WeylElement(word={self.word})"


def _simple_root_coords(letter, rank):
    if letter == "A":
        dim = rank + 1
        return [[1 if j == i else -1 if j == i + 1 else 0 for j in range(dim)]
                for i in range(rank)]
    if letter in "BCD":
        rows = [[1 if j == i else -1 if j == i + 1 else 0 for j in range(rank)]
                for i in range(rank - 1)]
        last = [0] * rank
        if letter == "B":
            last[rank - 1] = 1
        elif letter == "C":
            last[rank - 1] = 2
        else:
            last[rank - 2] = 1
            last[rank - 1] = 1
        return rows + [last]
    if letter == "E":
        half = _F(1, 2)
        rows = [[half, -half, -half, -half, -half, -half, -half, half],
                [1, 1, 0, 0, 0, 0, 0, 0],
                [-1, 1, 0, 0, 0, 0, 0, 0],
                [0, -1, 1, 0, 0, 0, 0, 0],
                [0, 0, -1, 1, 0, 0, 0, 0],
                [0, 0, 0, -1, 1, 0, 0, 0],
                [0, 0, 0, 0, -1, 1, 0, 0],
                [0, 0, 0, 0, 0, -1, 1, 0]]
        return rows[:rank]
    if letter == "F":
        half = _F(1, 2)
        return [[0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1], [half, -half, -half, -half]]
    if letter == "G":
        return [[0, 1, -1], [1, -2, 1]]
    raise UnknownType(letter)


def _integral_cartan(vectors):
    """Rows a[i] = (<alpha_j, alpha_i-check>)_j = (2 (alpha_j, alpha_i) /
    (alpha_i, alpha_i))_j from the simple roots as integer vectors;
    ConsistencyError when an entry is not an integer, which no
    crystallographic root system allows."""
    rows = []
    for i, a in enumerate(vectors, 1):
        norm = sum(x * x for x in a)
        row = []
        for j, b in enumerate(vectors, 1):
            twice = 2 * sum(x * y for x, y in zip(a, b))
            if twice % norm:
                raise ConsistencyError(f"Cartan entry <alpha_{j}, alpha_{i}-check> = "
                                       f"{_F(twice, norm)} is not an integer")
            row.append(twice // norm)
        rows.append(tuple(row))
    return tuple(rows)


class RootSystem:
    """Irreducible root system of one of the types A..G."""

    def __init__(self, letter, rank):
        rank = integer(rank, "a rank")
        if letter not in _RANK_RULES or not _RANK_RULES[letter](rank):
            raise UnknownType(f"unsupported type {letter}{rank}; the supported "
                              f"types are {_SUPPORTED}")
        self.letter, self.rank = letter, rank
        # the simple roots times a common denominator, as integer vectors
        coords = _simple_root_coords(letter, rank)
        scale = lcm(*(a.denominator for alpha in coords for a in alpha))
        scaled = [[a.numerator * (scale // a.denominator) for a in alpha] for alpha in coords]
        self.ambient_dim = len(scaled[0])
        self._cartan = _integral_cartan(scaled)
        # per simple root: the primitive integer vector p along it, over its
        # nonzero coordinates, and |p|^2, so that alpha-check = 2 p / |p|^2
        supports = [[(j, a // gcd(*vec)) for j, a in enumerate(vec) if a] for vec in scaled]
        self._coroots = [(sup, sum(a * a for _, a in sup)) for sup in supports]
        self._den = _DENOMINATORS.get(letter, 1)
        self._build_roots(scale, scaled)

    def __repr__(self):
        return f"RootSystem({self.letter}{self.rank})"

    @property
    def type_name(self):
        return f"{self.letter}{self.rank}"

    def simple_reflection(self, i):
        """Reflection in the i-th simple root, i in 1..rank."""
        return self._times_simple(WeylElement.identity(self.ambient_dim, self._den), i)

    def _times_simple(self, elem, i):
        """elem * s_i by the rank-one update M - (M alpha_i)(alpha_i-check)^T
        on N = D M in integers: row r loses k_r p, k_r = 2 (N p)_r / |p|^2,
        touching only the columns where alpha_i is nonzero.  Rows it leaves
        alone are shared with elem; ConsistencyError when a k_r is not an
        integer, that is when D is not a denominator of the result."""
        support, norm = self._coroots[i - 1]
        rows = []
        for row in elem.scaled:
            t = 2 * sum(row[j] * a for j, a in support)
            if t:
                k, r = divmod(t, norm)
                if r:
                    raise ConsistencyError(f"a {self.type_name} Weyl matrix entry is "
                                           f"not a multiple of 1/{elem.den}")
                row = list(row)
                for j, a in support:
                    row[j] -= k * a
                row = tuple(row)
            rows.append(row)
        return WeylElement(tuple(rows), elem.den, elem.word + (i,))

    def _build_roots(self, scale, scaled):
        """Positive roots as integer coefficient tuples c, each carrying its
        pairings (<c, alpha_k-check>)_k, by the ascents s_i c = c - p e_i with
        p = <c, alpha_i-check> < 0 alone; the image's pairings lose p times
        Cartan column i.  A non-simple positive beta has (beta, alpha_i) > 0
        for some i, so it is an ascent from the lower positive root s_i beta."""
        self._scale, self._columns = scale, list(zip(*scaled))
        columns = list(zip(*self._cartan))
        frontier = {tuple(int(i == j) for j in range(self.rank)): columns[i]
                    for i in range(self.rank)}
        found = dict(frontier)
        while frontier:
            nxt = {}
            for c, pairs in frontier.items():
                for i, p in enumerate(pairs):
                    if p < 0:
                        img = c[:i] + (c[i] - p,) + c[i + 1:]
                        if img not in found:
                            found[img] = nxt[img] = tuple(q - p * a for q, a
                                                          in zip(pairs, columns[i]))
            frontier = nxt
        self._coefficients = sorted(found, key=lambda c: (sum(c), tuple(-x for x in c)))

    @cached_property
    def simple_roots(self):
        return [Weight(_F(v, self._scale) for v in row) for row in zip(*self._columns)]

    @cached_property
    def positive_roots(self):
        return [Weight(_F(v, self._scale) for v in _matvec(self._columns, c))
                for c in self._coefficients]

    @cached_property
    def _root_coefficients(self):
        return dict(zip(self.positive_roots, self._coefficients))

    def root_coefficients(self, root):
        """Expansion of a positive root over the simple roots."""
        return self._root_coefficients[root]

    @cached_property
    def _dual_basis(self):
        """Integer vectors V_i = scale v_i and integers s_i > 0 with
        <v_i, alpha_k-check> = s_i delta_ik, so v_i = s_i omega_i.  On an
        irreducible root system sum_{beta > 0} (beta, x)(beta, y) is a
        multiple of the inner product (Bourbaki, Lie Groups and Lie Algebras,
        VI), on the fundamental coweights S[i][j] = sum_beta c_i c_j; so
        v_i = sum_j S[i][j] alpha_j, and s_i = sum_j S[i][j] a[i][j] is the
        dual Coxeter number times |long root|^2 / |alpha_i|^2.
        ConsistencyError when they do not pair so.  On A_n the central part
        i (1, ..., 1), which pairs to 0 with every root, is added to v_i, so
        that v_i = (n+1) omega_i = (n+1) (e_1 + ... + e_i)."""
        coeffs = list(zip(*self._coefficients))
        form = [_matvec(coeffs, row) for row in coeffs]
        pairs = [_matvec(self._cartan, row) for row in form]
        scales = [row[i] for i, row in enumerate(pairs)]
        if min(scales) <= 0 or pairs != [tuple(s * (i == k) for k in range(self.rank))
                                         for i, s in enumerate(scales)]:
            raise ConsistencyError(f"the positive roots of {self.type_name} do not "
                                   "give an invariant form")
        vectors = [_matvec(self._columns, row) for row in form]
        if self.letter == "A":
            vectors = [tuple(x + i for x in v) for i, v in enumerate(vectors, 1)]
        return vectors, scales

    def dominant_point(self, labels):
        """sum_i labels[i] v_i (_dual_basis) in integers over the gcd of its
        coordinates: with every label positive, a point of the open
        dominant chamber.  On A_n it is sum_i labels[i] (n+1) omega_i, whose
        central part lets the gcd keep its coordinates small."""
        point = _matvec(zip(*self._dual_basis[0]), labels)
        g = gcd(*point)
        return tuple(x // g for x in point)

    @cached_property
    def fundamental_weights(self):
        """omega_i = v_i / s_i (_dual_basis): e_1 + ... + e_i on A_n."""
        return [Weight([_F(x, self._scale * s) for x in v])
                for v, s in zip(*self._dual_basis)]

    def cartan_matrix(self):
        """Entries a[i][j] = <alpha_j, alpha_i-check>."""
        return [list(row) for row in self._cartan]

    def is_positive_root(self, v):
        return v in self._root_coefficients

    def weight_from_fundamental(self, coefficients):
        if len(coefficients) != self.rank:
            raise InvalidInput(f"expected {self.rank} coefficients")
        w = Weight([0] * self.ambient_dim)
        for c, fw in zip(coefficients, self.fundamental_weights):
            if c:
                w = w + fw * c
        return w

    def fundamental_coordinates(self, weight):
        """Pairings with the simple coroots; inverse of weight_from_fundamental
        up to a central summand for the types whose ambient space is larger."""
        return tuple(weight.pair(a) for a in self.simple_roots)


def root_system(spec):
    """Build a RootSystem from 'A4'-style strings or (letter, rank) pairs."""
    if isinstance(spec, RootSystem):
        return spec
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        letter, rank = spec
    else:
        m = re.fullmatch(r"([A-Ga-g])(\d+)", str(spec).strip())
        if not m:
            raise UnknownType(f"malformed type {str(spec)!r}; the supported "
                              f"types are {_SUPPORTED}")
        letter, rank = m.group(1), int(m.group(2))
    return RootSystem(str(letter).upper(), rank)


def _walk(rs, labels, start, step):
    """Breadth-first walk over the W-orbit of a weight mu given by its
    pairings with the simple coroots, trying s_1..s_rank in that order
    from each point.  A step to a new point s_i mu extends the item carried
    by mu to step(item, i); steps with s_i mu = mu or onto a point already
    seen add nothing.  From a dominant start lambda, no step with
    <mu, alpha_i-check> < 0 is tried: if d steps give mu = w lambda, then
    w^{-1} alpha_i < 0, so l(s_i w) < l(w) <= d and s_i mu = s_i w lambda
    was seen.  Returns the items in walk order."""
    mu = tuple(labels)
    dominant = min(mu) >= 0
    seen = {mu}
    order = [start]
    frontier = [(mu, start)]
    while frontier:
        nxt = []
        for mu, item in frontier:
            for i, c in enumerate(mu):
                if c <= 0 and (dominant or not c):
                    continue
                # <s_i mu, alpha_j-check> = mu_j - c <alpha_i, alpha_j-check>
                nu = tuple(m - c * row[i] for m, row in zip(mu, rs._cartan))
                if nu in seen:
                    continue
                seen.add(nu)
                new = step(item, i + 1)
                order.append(new)
                nxt.append((nu, new))
        frontier = nxt
    return order


def weyl_orbit(rs, weight):
    """Orbit of a weight under the full Weyl group, in search order."""
    return _walk(rs, rs.fundamental_coordinates(weight), weight,
                 lambda w, i: w.reflect(rs.simple_roots[i - 1]))


def weyl_elements(rs):
    """All Weyl group elements, in breadth-first order of reduced words:
    the coset representatives of the Borel subgroup (every node crossed),
    whose orbit weight rho is regular, so the walk meets each element of W
    once.  TooLarge, before walking, when |W| exceeds MAX_FIXED_POINTS
    (E7 and E8)."""
    return ParabolicSubgroup(rs, range(1, rs.rank + 1)).coset_representatives()


class ParabolicSubgroup:
    """A root system together with a set of crossed (removed) nodes.

    The Levi factor keeps the uncrossed simple roots; crossing every node
    leaves the Borel with a torus Levi.
    """

    def __init__(self, rs, crossed):
        self.root_system = rs = root_system(rs)
        nodes = sorted(set(integer(k, "a crossed node") for k in crossed))
        if not nodes:
            raise InvalidInput("at least one crossed node is required")
        if nodes[0] < 1 or nodes[-1] > rs.rank:
            raise InvalidInput(f"crossed nodes must lie in 1..{rs.rank}")
        self.crossed = tuple(nodes)
        self.levi_nodes = tuple(i for i in range(1, rs.rank + 1) if i not in nodes)
        self._nil_mask = [any(c[i - 1] for i in nodes) for c in rs._coefficients]
        self._reps = None

    @cached_property
    def levi_simple_roots(self):
        return [self.root_system.simple_roots[i - 1] for i in self.levi_nodes]

    @cached_property
    def levi_positive_roots(self):
        return list(compress(self.root_system.positive_roots, [not n for n in self._nil_mask]))

    @cached_property
    def nilradical_roots(self):
        return list(compress(self.root_system.positive_roots, self._nil_mask))

    def __repr__(self):
        return f"ParabolicSubgroup({self.root_system.type_name}, crossed={list(self.crossed)})"

    def dimension(self):
        """Complex dimension of the associated homogeneous space G/P."""
        return sum(self._nil_mask)

    def fixed_point_count(self):
        """|W^P| = |W| / |W_L| without walking.  |W| is the product of
        (ht alpha + 1) / ht alpha over the positive roots, and likewise for
        the Levi, whose roots keep their heights, so the quotient is the
        product over the nilradical roots."""
        heights = [sum(c) for c in compress(self.root_system._coefficients, self._nil_mask)]
        return prod(h + 1 for h in heights) // prod(heights)

    def check_fixed_point_count(self):
        """The number of fixed points; TooLarge, without walking, when it
        exceeds MAX_FIXED_POINTS."""
        count = self.fixed_point_count()
        if count > MAX_FIXED_POINTS:
            raise TooLarge(f"{self!r} has {count} fixed points, more than "
                           f"the limit of {MAX_FIXED_POINTS}")
        return count

    def coset_representatives(self):
        """Minimal-length representatives v, with v^{-1}(alpha) > 0 for every
        Levi simple root alpha, one per fixed point of the torus action on
        G/P, in breadth-first order of reduced words.

        They come from the walk over the W-orbit of lambda = sum of the
        crossed fundamental weights, whose stabilizer is W_L: a step
        v -> v s_i is a new representative exactly when s_i v^{-1} lambda is
        a new orbit point (Deodhar's lemma).  TooLarge, before walking,
        when there are more than MAX_FIXED_POINTS of them."""
        if self._reps is None:
            self.check_fixed_point_count()
            rs = self.root_system
            labels = [int(i in self.crossed) for i in range(1, rs.rank + 1)]
            start = WeylElement.identity(rs.ambient_dim, rs._den)
            self._reps = _walk(rs, labels, start, rs._times_simple)
        return self._reps

    def _levi_dominant(self, v):
        moved = True
        while moved:
            moved = False
            for a in self.levi_simple_roots:
                p = v.pair(a)
                if p < 0:
                    v = v - a * p
                    moved = True
                    break
        return v

    def _is_weight_of(self, lam, nu):
        """Whether nu can occur in the Levi module with highest weight lam:
        its dominant representative must sit under lam in the root order.
        Both differ from lam by integer sums of Levi simple roots, and the
        coefficient of alpha_j has the sign of the product with v_j
        (RootSystem._dual_basis)."""
        diff = lam - self._levi_dominant(nu)
        vectors, _ = self.root_system._dual_basis
        return min(_matvec((vectors[j - 1] for j in self.levi_nodes), diff)) >= 0

    def weight_multiplicities(self, coefficients):
        """Weights of the irreducible Levi module with the given highest
        weight (integer coefficients over the fundamental weights of the
        ambient group), with multiplicities by Freudenthal's recursion.

        Crossed-node coefficients may be negative; uncrossed ones must be
        nonnegative or NotPDominant is raised.  A highest weight that
        pairs to 0 with every Levi simple coroot is a character of P: its
        Levi module is one-dimensional, with weights {lam: 1}, and no
        recursion runs.  Every line bundle is of this kind.
        """
        lam, rho = self._highest_weight(coefficients)
        if rho is None:
            return {lam: 1}
        levels = [[lam]]
        seen = {lam}
        while levels[-1]:
            nxt = []
            for mu in levels[-1]:
                for a in self.levi_simple_roots:
                    nu = mu - a
                    if nu not in seen and self._is_weight_of(lam, nu):
                        seen.add(nu)
                        nxt.append(nu)
            levels.append(nxt)
        lam_rho = lam + rho
        top_norm = lam_rho.dot(lam_rho)
        mult = {lam: 1}
        for level in levels[1:]:
            for mu in level:
                total = _F(0)
                for a in self.levi_positive_roots:
                    nu = mu + a
                    while nu in seen:
                        m = mult.get(nu, 0)
                        if m:
                            total += m * nu.dot(a)
                        nu = nu + a
                mu_rho = mu + rho
                m = 2 * total / (top_norm - mu_rho.dot(mu_rho))
                if m.denominator != 1 or m <= 0:
                    raise ConsistencyError(f"Freudenthal multiplicity {m} at {mu} "
                                           "is not a positive integer")
                mult[mu] = int(m)
        return mult

    def weyl_dimension(self, coefficients):
        """Dimension of the same Levi module by the Weyl formula, an
        independent cross-check of the multiplicity recursion."""
        lam, rho = self._highest_weight(coefficients)
        if rho is None:
            return 1
        dim = _F(1)
        for r in self.levi_positive_roots:
            dim *= (lam + rho).dot(r) / rho.dot(r)
        if dim.denominator != 1:
            raise ConsistencyError(f"Weyl dimension {dim} is not an integer")
        return int(dim)

    def _highest_weight(self, coefficients):
        """The ambient highest weight with the given integer coefficients over
        the fundamental weights, and the Levi rho (half the sum of the Levi
        positive roots); NotPDominant when it pairs negatively with an
        uncrossed simple coroot.  rho is None, and not built, when every
        such pairing is 0: lam is then a character of P, whose Weyl
        dimension prod_alpha (lam + rho, alpha)/(rho, alpha) is 1.  Since
        <omega_i, alpha_j-check> = delta_ij, the pairings are the
        coefficients of the uncrossed nodes."""
        rs = self.root_system
        coefficients = [integer(c, "a highest-weight coefficient") for c in coefficients]
        lam = rs.weight_from_fundamental(coefficients)
        labels = [coefficients[node - 1] for node in self.levi_nodes]
        for node, label in zip(self.levi_nodes, labels):
            if label < 0:
                raise NotPDominant(f"negative pairing with uncrossed node {node}")
        if not any(labels):
            return lam, None
        rho = Weight([0] * rs.ambient_dim)
        for r in self.levi_positive_roots:
            rho = rho + r * _F(1, 2)
        return lam, rho

    def dynkin_ascii(self):
        return format_dynkin(self.root_system.letter, self.root_system.rank,
                             self.crossed)


def parabolic(spec, crossed):
    """ParabolicSubgroup from a type spec like 'A4' and crossed nodes."""
    return ParabolicSubgroup(root_system(spec), crossed)


def min_coset_reps(p):
    """Module-level alias for ParabolicSubgroup.coset_representatives."""
    return p.coset_representatives()
