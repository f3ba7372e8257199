"""Root systems, Weyl groups and parabolic subgroups in ambient coordinates.

Realizations follow the standard ambient spaces with Bourbaki node
numbering: A_n lives in R^{n+1} with fundamental weights
e_1 + ... + e_k, B_n/C_n/D_n in R^n, G_2 in R^3, F_4 in R^4 and the E
types in R^8.  All coordinates are exact rationals.

Roots are built in integers, as coefficient tuples over the simple roots
closed under s_i(c) = c - <c, alpha_i-check> e_i with the Cartan matrix,
and only then written in ambient coordinates.  Weyl group elements,
Weyl orbits and the minimal coset representatives W^P all come from one
breadth-first walk over a W-orbit of weights in fundamental-weight
coordinates (Humphreys, Reflection Groups and Coxeter Groups, 1.10-1.12):
the orbit of lambda = sum of the crossed fundamental weights is in
bijection with W^P, and each accepted step multiplies the carried matrix
by a simple reflection with a rank-one update.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, prod

from .errors import ConsistencyError, NotPDominant, TooLarge, UnknownType

_F = Fraction
MAX_FIXED_POINTS = 10 ** 5
"""Largest |W^P| that ParabolicSubgroup.coset_representatives enumerates;
beyond it TooLarge is raised before any walking (the full E8 flag has
696729600 fixed points)."""
MAX_CHERN_MONOMIALS = 5000
"""Largest number p(dim) of Chern monomials, one per partition of dim, of
a universal elliptic genus; beyond it TooLarge is raised before any work.
E7[7] (dim 27, p = 3010) still runs; the full E6 flag (dim 36) does not."""
_RANK_RULES = {"A": lambda n: n >= 1, "B": lambda n: n >= 2, "C": lambda n: n >= 3,
               "D": lambda n: n >= 4, "E": lambda n: n in (6, 7, 8),
               "F": lambda n: n == 4, "G": lambda n: n == 2}


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


def _inverse(mat):
    """Exact inverse of a square Fraction matrix by Gauss-Jordan."""
    n = len(mat)
    aug = [[_F(v) for v in row] + [_F(1) if i == j else _F(0) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [v / d for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _matvec(mat, vec):
    return tuple(sum(r * v for r, v in zip(row, vec)) for row in mat)


class WeylElement:
    """Orthogonal ambient matrix together with a reduced word."""

    __slots__ = ("matrix", "word")

    def __init__(self, matrix, word=()):
        self.matrix = tuple(tuple(v if isinstance(v, Fraction) else _F(v) for v in row)
                            for row in matrix)
        self.word = tuple(word)

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(_F(1) if i == j else _F(0) for j in range(n))
                         for i in range(n)))

    @property
    def length(self):
        return len(self.word)

    def apply(self, weight):
        return Weight(_matvec(self.matrix, weight.coords))

    def __mul__(self, other):
        cols = list(zip(*other.matrix))
        prod = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                     for row in self.matrix)
        return WeylElement(prod, self.word + other.word)

    def inverse(self):
        return WeylElement(tuple(zip(*self.matrix)), tuple(reversed(self.word)))

    def __hash__(self):
        return hash(self.matrix)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

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


def _integral_cartan(simple_roots):
    """Rows a[i] = (<alpha_j, alpha_i-check>)_j as integers; ConsistencyError
    when an entry is not an integer, which no crystallographic root system
    allows."""
    rows = []
    for a in simple_roots:
        row = []
        for b in simple_roots:
            v = b.pair(a)
            if v.denominator != 1:
                raise ConsistencyError(f"Cartan entry <{b}, {a}-check> = {v} "
                                       "is not an integer")
            row.append(int(v))
        rows.append(tuple(row))
    return tuple(rows)


class RootSystem:
    """Irreducible root system of one of the types A..G."""

    def __init__(self, letter, rank):
        if letter not in _RANK_RULES or not _RANK_RULES[letter](rank):
            raise UnknownType(f"{letter}{rank}")
        self.letter = letter
        self.rank = rank
        self.simple_roots = [Weight(r) for r in _simple_root_coords(letter, rank)]
        self.ambient_dim = len(self.simple_roots[0])
        self._cartan = _integral_cartan(self.simple_roots)
        # per simple root: (j, alpha_j, alpha-check_j) over its nonzero coordinates
        self._supports = [[(j, a, 2 * a / alpha.norm2()) for j, a in enumerate(alpha)
                           if a] for alpha in self.simple_roots]
        identity = WeylElement.identity(self.ambient_dim)
        self._simple_reflections = [self._times_simple(identity, i)
                                    for i in range(1, rank + 1)]
        self._build_roots()
        self._build_fundamental_weights()

    def __repr__(self):
        return f"RootSystem({self.letter}{self.rank})"

    @property
    def type_name(self):
        return f"{self.letter}{self.rank}"

    def simple_reflection(self, i):
        """Reflection in the i-th simple root, i in 1..rank."""
        return self._simple_reflections[i - 1]

    def _times_simple(self, elem, i):
        """elem * s_i by the rank-one update M - (M alpha_i)(alpha_i-check)^T,
        touching only the columns where alpha_i is nonzero."""
        support = self._supports[i - 1]
        rows = []
        for row in elem.matrix:
            t = sum(row[j] * a for j, a, _ in support)
            if t:
                row = list(row)
                for j, _, k in support:
                    row[j] -= t * k
            rows.append(row)
        return WeylElement(rows, elem.word + (i,))

    def _build_roots(self):
        """Positive roots from integer coefficient tuples: s_i maps a positive
        root other than alpha_i to a positive root, and every positive root
        is reached from a simple one this way."""
        rank = self.rank
        simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        found = set(simple)
        frontier = simple
        while frontier:
            nxt = []
            for c in frontier:
                for i, row in enumerate(self._cartan):
                    p = sum(x * a for x, a in zip(c, row))
                    if not p or c == simple[i]:
                        continue
                    img = c[:i] + (c[i] - p,) + c[i + 1:]
                    if img not in found:
                        found.add(img)
                        nxt.append(img)
            frontier = nxt
        # ambient coordinates in integers over a common denominator
        den = lcm(*(a.denominator for alpha in self.simple_roots for a in alpha))
        columns = list(zip(*([int(a * den) for a in alpha]
                             for alpha in self.simple_roots)))
        coeffs = {}
        positive = []
        for c in sorted(found, key=lambda c: (sum(c), tuple(-x for x in c))):
            root = Weight([_F(sum(x * s for x, s in zip(c, col)), den)
                           for col in columns])
            positive.append(root)
            coeffs[root] = c
        self.positive_roots = positive
        self._positive_set = frozenset(r.coords for r in positive)
        self._root_coefficients = coeffs

    def root_coefficients(self, root):
        """Expansion of a positive root over the simple roots."""
        return self._root_coefficients[root]

    def _build_fundamental_weights(self):
        if self.letter == "A":
            dim = self.rank + 1
            self.fundamental_weights = [
                Weight([1 if j <= i else 0 for j in range(dim)]) for i in range(self.rank)]
            return
        # unique solution inside the span of the simple roots
        inv = _inverse(self._cartan)
        fw = []
        for i in range(self.rank):
            coeffs = [inv[j][i] for j in range(self.rank)]
            w = Weight([0] * self.ambient_dim)
            for c, a in zip(coeffs, self.simple_roots):
                w = w + a * c
            fw.append(w)
        self.fundamental_weights = fw

    def cartan_matrix(self):
        """Entries a[i][j] = <alpha_j, alpha_i-check>."""
        return [list(row) for row in self._cartan]

    def is_positive_root(self, v):
        return v.coords in self._positive_set

    def weight_from_fundamental(self, coefficients):
        if len(coefficients) != self.rank:
            raise ValueError(f"expected {self.rank} coefficients")
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
            raise UnknownType(str(spec))
        letter, rank = m.group(1), int(m.group(2))
    return RootSystem(str(letter).upper(), int(rank))


def _walk(rs, labels, start, step, limit=None):
    """Breadth-first walk over the W-orbit of a weight mu given by its
    pairings with the simple coroots, trying s_1..s_rank in that order
    from each point.  A step to a new point s_i mu extends the item carried
    by mu to step(item, i); steps with s_i mu = mu or onto a point already
    seen add nothing.  Returns the items in walk order; RuntimeError once
    there are more than limit of them."""
    mu = tuple(labels)
    seen = {mu}
    order = [start]
    frontier = [(mu, start)]
    while frontier:
        nxt = []
        for mu, item in frontier:
            for i, c in enumerate(mu):
                if not c:
                    continue
                # <s_i mu, alpha_j-check> = mu_j - c <alpha_i, alpha_j-check>
                nu = tuple(m - c * row[i] for m, row in zip(mu, rs._cartan))
                if nu in seen:
                    continue
                seen.add(nu)
                new = step(item, i + 1)
                order.append(new)
                nxt.append((nu, new))
                if limit is not None and len(order) > limit:
                    raise RuntimeError("orbit larger than the given limit")
        frontier = nxt
    return order


def weyl_orbit(rs, weight):
    """Orbit of a weight under the full Weyl group, in search order."""
    return _walk(rs, rs.fundamental_coordinates(weight), weight,
                 lambda w, i: w.reflect(rs.simple_roots[i - 1]))


def weyl_elements(rs, limit=None):
    """All Weyl group elements, in breadth-first order of reduced words:
    the coset walk with every node crossed, whose orbit weight rho is
    regular, so the walk meets each element of W once.

    Intended for the small groups exercised in tests; pass a limit to
    guard against accidental use on the huge E types.
    """
    return _walk(rs, [1] * rs.rank, WeylElement.identity(rs.ambient_dim),
                 rs._times_simple, limit)


class ParabolicSubgroup:
    """A root system together with a set of crossed (removed) nodes.

    The Levi factor keeps the uncrossed simple roots; crossing every node
    leaves the Borel with a torus Levi.
    """

    def __init__(self, rs, crossed):
        self.root_system = root_system(rs)
        nodes = sorted(set(int(k) for k in crossed))
        if not nodes:
            raise ValueError("at least one crossed node is required")
        if nodes[0] < 1 or nodes[-1] > self.root_system.rank:
            raise ValueError(f"crossed nodes must lie in 1..{self.root_system.rank}")
        self.crossed = tuple(nodes)
        self.levi_nodes = tuple(i for i in range(1, self.root_system.rank + 1)
                                if i not in nodes)
        self.levi_simple_roots = [self.root_system.simple_roots[i - 1]
                                  for i in self.levi_nodes]
        crossed_ix = [i - 1 for i in self.crossed]
        self.levi_positive_roots = [
            r for r in self.root_system.positive_roots
            if all(self.root_system.root_coefficients(r)[i] == 0 for i in crossed_ix)]
        levi = set(self.levi_positive_roots)
        self.nilradical_roots = [r for r in self.root_system.positive_roots
                                 if r not in levi]
        self._levi_gram_inv = (_inverse([[a.dot(b) for b in self.levi_simple_roots]
                                         for a in self.levi_simple_roots])
                               if self.levi_simple_roots else None)
        self._reps = None

    def __repr__(self):
        return f"ParabolicSubgroup({self.root_system.type_name}, crossed={list(self.crossed)})"

    def dimension(self):
        """Complex dimension of the associated homogeneous space G/P."""
        return len(self.nilradical_roots)

    def fixed_point_count(self):
        """|W^P| = |W| / |W_L| without walking.  |W| is the product of
        (ht alpha + 1) / ht alpha over the positive roots, and likewise for
        the Levi, whose roots keep their heights, so the quotient is the
        product over the nilradical roots."""
        rs = self.root_system
        heights = [sum(rs.root_coefficients(r)) for r in self.nilradical_roots]
        return prod(h + 1 for h in heights) // prod(heights)

    def check_fixed_point_count(self):
        """TooLarge, without walking, when there are more than
        MAX_FIXED_POINTS fixed points."""
        count = self.fixed_point_count()
        if count > MAX_FIXED_POINTS:
            raise TooLarge(f"{self!r} has {count} fixed points, more than "
                           f"the limit of {MAX_FIXED_POINTS}")

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
            self._reps = _walk(rs, labels, WeylElement.identity(rs.ambient_dim),
                               rs._times_simple)
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

    def _expand_in_levi(self, v):
        dots = [v.dot(a) for a in self.levi_simple_roots]
        return _matvec(self._levi_gram_inv, dots)

    def _is_weight_of(self, lam, nu):
        """Whether nu can occur in the Levi module with highest weight lam:
        its dominant representative must sit under lam in the root order."""
        diff = lam - self._levi_dominant(nu)
        coeffs = self._expand_in_levi(diff)
        if any(c.denominator != 1 or c < 0 for c in coeffs):
            return False
        rebuilt = Weight([0] * self.root_system.ambient_dim)
        for c, a in zip(coeffs, self.levi_simple_roots):
            rebuilt = rebuilt + a * c
        return rebuilt == diff

    def weight_multiplicities(self, coefficients):
        """Weights of the irreducible Levi module with the given highest
        weight (integer coefficients over the fundamental weights of the
        ambient group), with multiplicities by Freudenthal's recursion.

        Crossed-node coefficients may be negative; uncrossed ones must be
        nonnegative or NotPDominant is raised.
        """
        lam, rho = self._highest_weight(coefficients)
        if not self.levi_simple_roots:
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
        uncrossed simple coroot."""
        rs = self.root_system
        lam = rs.weight_from_fundamental([int(c) for c in coefficients])
        for node, a in zip(self.levi_nodes, self.levi_simple_roots):
            if lam.pair(a) < 0:
                raise NotPDominant(f"negative pairing with uncrossed node {node}")
        rho = Weight([0] * rs.ambient_dim)
        for r in self.levi_positive_roots:
            rho = rho + r * _F(1, 2)
        return lam, rho

    def dynkin_ascii(self):
        return _dynkin_ascii(self.root_system, self.crossed)


def parabolic(spec, crossed):
    """ParabolicSubgroup from a type spec like 'A4' and crossed nodes."""
    return ParabolicSubgroup(root_system(spec), crossed)


def min_coset_reps(p):
    """Module-level alias for ParabolicSubgroup.coset_representatives."""
    return p.coset_representatives()


def _dynkin_ascii(rs, crossed=()):
    letter, rank = rs.letter, rs.rank
    marks = set(crossed)

    def node(i):
        return "X" if i in marks else "O"

    header = []
    if letter in "ABCFG":
        chain = list(range(1, rank + 1))
        if letter == "A":
            edges = ["---"] * (rank - 1)
        elif letter == "B":
            edges = ["---"] * (rank - 2) + ["=>="]
        elif letter == "C":
            edges = ["---"] * (rank - 2) + ["=<="]
        elif letter == "F":
            edges = ["---", "=>=", "---"]
        else:
            edges = ["=<="]
            header = ["  3"]
        branch = None
    elif letter == "D":
        chain = list(range(1, rank))
        edges = ["---"] * (rank - 2)
        branch = (rank, rank - 3)
    else:
        chain = [1] + list(range(3, rank + 1))
        edges = ["---"] * (len(chain) - 1)
        branch = (2, 2)
    line = node(chain[0])
    for e, i in zip(edges, chain[1:]):
        line += e + node(i)
    labels = "".join(str(i).ljust(4) for i in chain).rstrip()
    lines = list(header)
    if branch is not None:
        bn, pos = branch
        pad = " " * (4 * pos)
        lines.append(f"{pad}{node(bn)} {bn}")
        lines.append(f"{pad}|")
    lines.extend([line, labels])
    if marks:
        ms = sorted(marks)
        which = (f"node {ms[0]}" if len(ms) == 1
                 else "nodes (" + ", ".join(str(m) for m in ms) + ")")
        lines.append(f"{letter}{rank} with {which} marked")
    return "\n".join(lines)
