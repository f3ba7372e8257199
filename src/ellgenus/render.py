"""Plain-text formatting of Laurent polynomials, q-expansions and Dynkin
diagrams.

One renderer serves the library reprs, the CLI text mode and the CLI JSON
round-trip, so all three agree byte for byte.  It imports nothing from
the package, so every module can render through it.
"""

from __future__ import annotations

from fractions import Fraction


def _y_part(exponent):
    if exponent == 0:
        return ""
    if exponent == 1:
        return "y"
    return f"y^{exponent}"


def _q_part(k2):
    n = k2 // 2
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
    if not chunks:
        return "0"
    return _join(chunks)


def format_series(terms, order_q):
    """Render sorted (doubled q-exponent, laurent pairs) terms plus the O-tail.

    The q^0 coefficient is printed bare; later coefficients are
    parenthesized unless they consist of a single monomial.
    """
    chunks = []
    for k2, pairs in terms:
        pairs = [(e, c) for e, c in pairs if c]
        if not pairs:
            continue
        if k2 == 0:
            body = format_laurent(pairs)
            if body.startswith("-"):
                chunks.append((-1, body[1:]))
            else:
                chunks.append((1, body))
        elif len(pairs) == 1:
            e, c = pairs[0]
            chunks.append((-1 if c < 0 else 1, _term_body(c, _y_part(e), _q_part(k2))))
        else:
            chunks.append((1, f"({format_laurent(pairs)})*{_q_part(k2)}"))
    tail = f"O(q^{order_q + 1})"
    if not chunks:
        return f"0 + {tail}"
    return f"{_join(chunks)} + {tail}"


def laurent_payload(pairs):
    """JSON-safe dict for sorted (y-exponent, coefficient) pairs."""
    return {str(e): str(Fraction(c)) for e, c in pairs if c}


def parse_laurent_payload(payload):
    return sorted((int(e), Fraction(v)) for e, v in payload.items())


def series_payload(terms, order_q):
    """JSON-safe term list for sorted (doubled exponent, laurent pairs)."""
    out = []
    for k2, pairs in terms:
        coeffs = laurent_payload(pairs)
        if not coeffs:
            continue
        out.append({"q": k2 // 2, "coeffs": coeffs})
    return out


def format_series_payload(term_list, order_q):
    """Render a JSON term list exactly as format_series renders the series."""
    terms = [(2 * t["q"], parse_laurent_payload(t["coeffs"])) for t in term_list]
    terms.sort()
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
