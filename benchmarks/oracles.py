"""Result checks: exact comparison with the reference outputs, plus
closed-form oracles that share no code with the library.

The G/P oracles come from the degrees of the Weyl group (Humphreys,
*Reflection Groups and Coxeter Groups*, 3.7 and 1.11). With
W(y) = prod_i (1 + y + ... + y^(d_i - 1)) for G and W_L(y) for the Levi
factor of P:

* chi_y(G/P) = sum over W^P of y^length = W(y) / W_L(y), because G/P has a
  Bruhat cell decomposition and no odd or off-diagonal Hodge numbers;
* the Euler number is |W^P| = W(1) / W_L(1);
* dim G/P = N(G) - N(L), with N = sum_i (d_i - 1) positive roots.

The Levi type is read off the Dynkin diagram with Bourbaki numbering.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# Known values for the K3 surface, the quintic threefold and the G2-flag
# Calabi-Yau threefold (coefficients over the weight-0 weak Jacobi basis,
# Euler numbers).
KNOWN_FITS = {"K3": ["2"], "quintic": ["-100"], "G2_CY3": ["-36"]}
KNOWN_EULER = {"K3": "24", "quintic": "-200", "G2_CY3": "-72"}


# --------------------------------------------------------------------------
# Dynkin diagrams and Weyl group degrees


def _edges(letter, rank):
    """{(i, j): bond multiplicity} of the Dynkin diagram, Bourbaki labels."""
    if letter == "E":
        simple = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
        return {e: 1 for e in simple if max(e) <= rank}
    if letter == "D":
        edges = {(i, i + 1): 1 for i in range(1, rank - 1)}
        edges[(rank - 2, rank)] = 1
        return edges
    edges = {(i, i + 1): 1 for i in range(1, rank)}
    if letter in "BC":
        edges[(rank - 1, rank)] = 2
    elif letter == "F":
        edges[(2, 3)] = 2
    elif letter == "G":
        edges[(1, 2)] = 3
    return edges


def _component_degrees(nodes, edges):
    """Weyl group degrees of one connected Dynkin diagram."""
    r = len(nodes)
    bonds = [m for (i, j), m in edges.items() if i in nodes and j in nodes]
    if 3 in bonds:
        return [2, 6]
    if 2 in bonds:
        if r == 4 and all(i in nodes for i in (1, 2, 3, 4)) and \
                edges.get((2, 3)) == 2:
            return [2, 6, 8, 12]
        return [2 * i for i in range(1, r + 1)]
    neighbours = {n: [] for n in nodes}
    for i, j in edges:
        if i in nodes and j in nodes:
            neighbours[i].append(j)
            neighbours[j].append(i)
    branch = [n for n in nodes if len(neighbours[n]) == 3]
    if not branch:
        return list(range(2, r + 2))
    centre = branch[0]
    arms = []
    for start in neighbours[centre]:
        length, prev, cur = 1, centre, start
        while True:
            nxt = [n for n in neighbours[cur] if n != prev]
            if not nxt:
                break
            prev, cur, length = cur, nxt[0], length + 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return [2 * i for i in range(1, r)] + [r]
    return {6: [2, 5, 6, 8, 9, 12], 7: [2, 6, 8, 10, 12, 14, 18],
            8: [2, 8, 12, 14, 18, 20, 24, 30]}[r]


def _degrees(letter, rank, nodes):
    """Degrees of the Weyl group of the subdiagram on ``nodes``."""
    edges = _edges(letter, rank)
    left, out = set(nodes), []
    while left:
        comp, frontier = set(), [min(left)]
        while frontier:
            n = frontier.pop()
            if n in comp:
                continue
            comp.add(n)
            frontier += [j for (i, j) in edges if i == n and j in left]
            frontier += [i for (i, j) in edges if j == n and i in left]
        left -= comp
        out += _component_degrees(comp, edges)
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div(num, den):
    """Exact quotient of integer polynomials (low degree first)."""
    num, out = list(num), [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, rem = divmod(num[k + len(den) - 1], den[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _weyl_poincare(degrees):
    poly = [1]
    for d in degrees:
        poly = _poly_mul(poly, [1] * d)
    return poly


def gp_invariants(letter, rank, crossed):
    """(dimension, Euler number, chi_y coefficients) of G/P."""
    levi = [i for i in range(1, rank + 1) if i not in crossed]
    full, sub = _degrees(letter, rank, range(1, rank + 1)), _degrees(letter, rank, levi)
    chi = _poly_div(_weyl_poincare(full), _weyl_poincare(sub))
    dim = sum(d - 1 for d in full) - sum(d - 1 for d in sub)
    return dim, sum(chi), chi


# --------------------------------------------------------------------------
# reading CLI output


def _split_top(text):
    """Signed top-level terms of a rendered sum, outside parentheses."""
    terms, depth, start, sign = [], 0, 0, 1
    i = 0
    while i < len(text):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text.startswith((" + ", " - "), i):
            terms.append((sign, text[start:i]))
            sign = -1 if text[i + 1] == "-" else 1
            i += 3
            start = i
            continue
        i += 1
    terms.append((sign, text[start:]))
    return terms


def _parse_laurent(terms):
    """{y-exponent: coefficient} from rendered monomials like 2*y^3."""
    out = {}
    for sign, body in terms:
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        m = re.fullmatch(r"(?:(\d+(?:/\d+)?)\*?)?(y(?:\^(-?\d+))?)?", body)
        if not m or not body:
            raise ValueError(f"cannot read term {body!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        exp = 0 if not m.group(2) else int(m.group(3) or 1)
        out[exp] = out.get(exp, 0) + sign * coeff
    return out


def _chi_y_from_cli(command, stdout):
    """The q^0 coefficient printed by chi-y or genus, as {exponent: value}."""
    if stdout.lstrip().startswith("{"):
        payload = json.loads(stdout)
        if command == "chi-y":
            coeffs = payload["coeffs"]
        else:
            coeffs = next((t["coeffs"] for t in payload["terms"] if t["q"] == 0), {})
        return {int(e): Fraction(v) for e, v in coeffs.items()}
    text = stdout.strip()
    q0 = [t for t in _split_top(text) if "q" not in t[1] and "O(" not in t[1]]
    return _parse_laurent(q0)


def _cli_space(argv):
    m = re.fullmatch(r"([A-G])(\d+)\[([\d,]+)\]", argv[argv.index("--space") + 1])
    return m.group(1), int(m.group(2)), tuple(int(c) for c in m.group(3).split(","))


def _cli_problems(argv, stdout):
    """Oracle checks of a CLI request on a plain G/P (no --bundle)."""
    if "--bundle" in argv:
        return []
    command = argv[0]
    dim, euler, chi = gp_invariants(*_cli_space(argv))
    if command in ("chi-y", "genus"):
        expect = {e: c for e, c in enumerate(chi) if c}
        got = {e: c for e, c in _chi_y_from_cli(command, stdout).items() if c}
        return [] if got == expect else [f"chi_y {got} != Bruhat count {expect}"]
    if command == "chern":
        degrees = [int(d) for d in argv[argv.index("--degrees") + 1].split(",")]
        if degrees == [dim] and stdout.strip() != str(euler):
            return [f"Euler number {stdout.strip()} != |W^P| = {euler}"]
        return []
    if command == "info":
        expect = f"dimension: {dim}\nfixed points: {euler}"
        if not stdout.rstrip().endswith(expect):
            return [f"info does not end with {expect!r}"]
    return []


# --------------------------------------------------------------------------
# the check of one result


def problems(request, result, canon, reference):
    """Reasons the result is wrong; empty when it is correct."""
    out = []
    if canon != reference:
        out.append("differs from the reference output")
    kind, params = request.kind, request.params
    if kind == "cli":
        out += _cli_problems(list(params), result)
    elif kind == "fit":
        name = params[0]
        d, _, coords, euler = result
        fit = None if coords is None else [str(c) for c in coords]
        if fit is None:
            out.append("genus is not in the weak Jacobi span")
        if name in KNOWN_FITS and fit != KNOWN_FITS[name]:
            out.append(f"fit {fit} != known {KNOWN_FITS[name]}")
        if name in KNOWN_EULER and str(euler) != KNOWN_EULER[name]:
            out.append(f"Euler number {euler} != known {KNOWN_EULER[name]}")
        # Elliptic genus of a K3 is (chi/12) phi_{0,1}; of a CY3 (chi/2) phi_{0,3/2}.
        if d in (2, 3) and fit != [str(Fraction(euler, 12 if d == 2 else 2))]:
            out.append(f"fit {fit} does not match Euler number {euler}")
    elif kind == "cosets":
        spec, crossed = params
        _, euler, chi = gp_invariants(spec[0], int(spec[1:]), crossed)
        if canon["count"] != euler:
            out.append(f"{canon['count']} representatives != |W^P| = {euler}")
        if canon["lengths"] != chi:
            out.append(f"length counts {canon['lengths']} != {chi}")
    elif kind == "weights":
        parabolic, mult = result
        dim = parabolic.weyl_dimension(params[2])
        if sum(mult.values()) != dim:
            out.append(f"multiplicities sum to {sum(mult.values())}, "
                       f"Weyl dimension {dim}")
    return out
