"""Plain-text formatting of Laurent polynomials, q-expansions and Dynkin
diagrams.

One renderer serves the library reprs, the CLI text mode and the CLI JSON
round-trip, so all three agree byte for byte.  Every q-series, numeric or
the universal genus in Chern monomials, is printed by format_series, which
takes integer q-exponents; no doubled exponent reaches this module.  It
imports nothing from the package, so every module can render through it.
"""

from __future__ import annotations

from fractions import Fraction


def _y_part(exponent):
    if exponent == 0:
        return ""
    if exponent == 1:
        return "y"
    return f"y^{exponent}"


def _q_part(n):
    return "q" if n == 1 else f"q^{n}"


def _term_body(coeff, *parts):
    """Positive-magnitude term like 100*y^-1*q, from factors that may be empty."""
    mag = abs(coeff)
    factors = [p for p in parts if p]
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    return "*".join(factors)


def _join(chunks):
    """Join (sign, body) pairs with surrounding +/- separators."""
    pieces = []
    for sign, body in chunks:
        if not pieces:
            pieces.append(("-" if sign < 0 else "") + body)
        else:
            pieces.append((" - " if sign < 0 else " + ") + body)
    return "".join(pieces)


def format_laurent(pairs):
    """Render sorted (y-exponent, coefficient) pairs, ascending in y."""
    chunks = [(-1 if c < 0 else 1, _term_body(c, _y_part(e))) for e, c in pairs if c]
    return _join(chunks) if chunks else "0"


def _entry(e, c):
    """(sign, factors, grouped) of the y^e term of a q-row, whose
    coefficient c is a number or a list of (number, label) pairs; a list
    of several pairs is one parenthesized group."""
    if isinstance(c, list) and len(c) > 1:
        inner = _join([(-1 if v < 0 else 1, _term_body(v, label)) for v, label in c])
        return 1, (1, f"({inner})", _y_part(e)), True
    c, label = c[0] if isinstance(c, list) else (c, "")
    return (-1 if c < 0 else 1), (c, label, _y_part(e)), False


def format_series(terms, order_q):
    """Render sorted (q-exponent, [(y-exponent, coefficient)]) rows plus
    the O-tail; a coefficient is a number or a list of (number, label)
    pairs, such as a y-power's Chern monomials.

    The q^0 row is printed bare; a later row is parenthesized unless it
    is a single term.
    """
    chunks = []
    for q, pairs in terms:
        entries = [_entry(e, c) for e, c in pairs if c]
        if not entries:
            continue
        if q == 0:
            chunks.extend((sign, _term_body(*factors)) for sign, factors, _ in entries)
        elif len(entries) == 1 and not entries[0][2]:
            sign, factors, _ = entries[0]
            chunks.append((sign, _term_body(*factors, _q_part(q))))
        else:
            row = _join([(sign, _term_body(*factors)) for sign, factors, _ in entries])
            chunks.append((1, f"({row})*{_q_part(q)}"))
    tail = f"O(q^{order_q + 1})"
    if not chunks:
        return f"0 + {tail}"
    return f"{_join(chunks)} + {tail}"


def laurent_payload(pairs):
    """JSON-safe dict for sorted (y-exponent, coefficient) pairs."""
    return {str(e): str(Fraction(c)) for e, c in pairs if c}


def parse_laurent_payload(payload):
    return sorted((int(e), Fraction(v)) for e, v in payload.items())


def series_payload(terms):
    """JSON-safe term list for sorted (q-exponent, laurent pairs) rows."""
    payload = [{"q": q, "coeffs": laurent_payload(pairs)} for q, pairs in terms]
    return [t for t in payload if t["coeffs"]]


def format_series_payload(term_list, order_q):
    """Render a JSON term list exactly as format_series renders the series."""
    terms = sorted((t["q"], parse_laurent_payload(t["coeffs"])) for t in term_list)
    return format_series(terms, order_q)


def format_dynkin(letter, rank, crossed=()):
    """Dynkin diagram of type letter+rank in Bourbaki numbering, the crossed
    nodes drawn as X and the others as O, with a line naming them."""
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
