"""Command-line front end.

Subcommands: basis (weak Jacobi form bases), chern (Chern numbers), genus
(elliptic genus), chi-y (the q^0 specialization) and info (space summary).
Spaces use the grammar LETTER RANK [nodes], e.g. A4[1] for P^4 or G2[1,2]
for the full G2 flag; --bundle takes comma-separated highest-weight
coordinates and may repeat, turning the space into the zero locus of a
general section.  The argument parser is the one schema of a request:
parse_args returns its namespace, checked and canonicalized in place.

Exit codes: 0 success, 2 malformed command line (also an unsupported
type or a crossed node out of range), 3 mathematically invalid input
(odd basis weight, negative Jacobi index, non-dominant or wrongly sized
bundle weight, negative-dimensional intersection, bad degree list; any
other ValueError propagates), 4 integration or self-check failure (the
two evaluation points of the exact self-check disagreeing, or another
built-in consistency check failing),
5 a space with more fixed points than roots.MAX_FIXED_POINTS, or a genus
with more Chern monomials than genus.MAX_CHERN_MONOMIALS or more (fixed
point, monomial) pairs than genus.MAX_LOCALIZATION_TERMS (refused before
any enumeration).  Results go to stdout; diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from functools import lru_cache

from .bundles import completely_reducible_bundle
from .ci import CompleteIntersection, chern_number
from .errors import (ConsistencyError, InvalidInput, NegativeDimension,
                     NotPDominant, OddWeight, TooLarge, UnknownType)
from .genus import chi_y, elliptic_genus
from .homog import HomogeneousSpace
from .jacobi import basis_half_integral
from .render import (format_laurent, format_series_payload, laurent_payload,
                     parse_laurent_payload, series_payload)
from .roots import parabolic

_SPACE_RE = re.compile(r"([A-Ga-g])(\d+)\[(\d+(?:,\d+)*)\]")

_MATH_ERRORS = (NotPDominant, NegativeDimension, OddWeight, InvalidInput)


def _series_terms(series):
    """QYSeries -> the (q-exponent, sorted (y, coeff) pairs) list the
    render payload helpers consume."""
    return [(q, sorted(lau.c.items())) for q, lau in series.terms()]


class SpecError(ValueError):
    """Malformed command-line specification (exit code 2)."""


def parse_space(text):
    """'A4[1,3]' -> (letter, rank, crossed nodes); SpecError when malformed."""
    m = _SPACE_RE.fullmatch(text.strip())
    if not m:
        raise SpecError(f"space must look like A4[3] or G2[1,2], got {text!r}")
    crossed = tuple(sorted(int(v) for v in m.group(3).split(",")))
    if len(set(crossed)) != len(crossed):
        raise SpecError(f"duplicate crossed node in {text!r}")
    return m.group(1).upper(), int(m.group(2)), crossed


def _int_list(text, what):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise SpecError(f"{what} must be comma-separated integers, got {text!r}")


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: it keeps no state
    between parses."""
    parser = argparse.ArgumentParser(
        prog="ellgenus",
        description="Elliptic genera of homogeneous spaces and complete "
                    "intersections, and weak Jacobi form bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, space=True, bundle=True):
        if space:
            p.add_argument("--space", required=True,
                           help="homogeneous space, e.g. A4[3]")
        if bundle:
            p.add_argument("--bundle", dest="bundles", action="append",
                           default=[], metavar="W1,W2,...",
                           help="highest weight of a section-bundle component "
                                "(repeatable)")
        p.add_argument("--format", dest="fmt", choices=["text", "json"],
                       default="text")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("basis", help="basis of weak Jacobi forms")
    p.add_argument("--weight", type=int, default=0, help="even weight")
    p.add_argument("--double-index", type=int, required=True,
                   help="twice the index (odd values give half-integral index)")
    p.add_argument("--prec", type=int, default=7, help="q-expansion order")
    add_common(p, space=False, bundle=False)

    p = sub.add_parser("chern", help="Chern number of a manifold")
    p.add_argument("--degrees", required=True, metavar="D1,D2,...",
                   help="degrees of the Chern-class factors")
    add_common(p)

    p = sub.add_parser("genus", help="elliptic genus to a q-order")
    p.add_argument("--order", type=int, default=2, help="highest q power")
    add_common(p)

    p = sub.add_parser("chi-y", help="chi_y genus (q^0 term)")
    add_common(p)

    p = sub.add_parser("info", help="structure of a homogeneous space")
    add_common(p, bundle=False)
    return parser


def parse_args(argv):
    """argv -> the parser's namespace, with the space canonicalized and
    --bundle and --degrees as int tuples; SpecError on malformed input."""
    ns = _build_parser().parse_args(argv)
    if "space" in ns:
        letter, rank, crossed = parse_space(ns.space)
        ns.space = f"{letter}{rank}[{','.join(str(c) for c in crossed)}]"
    if "bundles" in ns:
        ns.bundles = tuple(_int_list(b, "--bundle") for b in ns.bundles)
    if "degrees" in ns:
        ns.degrees = _int_list(ns.degrees, "--degrees")
    if getattr(ns, "prec", 0) < 0:
        raise SpecError("--prec must be nonnegative")
    if getattr(ns, "order", 0) < 0:
        raise SpecError("--order must be nonnegative")
    return ns


def _space_parabolic(space_text):
    """Space string -> ParabolicSubgroup; malformed specs (unsupported type
    or rank, crossed node out of range) raise SpecError."""
    letter, rank, crossed = parse_space(space_text)
    try:
        return parabolic(f"{letter}{rank}", crossed)
    except (UnknownType, InvalidInput) as err:
        raise SpecError(str(err))


def _build_manifold(args):
    space = HomogeneousSpace(_space_parabolic(args.space))
    if not args.bundles:
        return space
    bundle = completely_reducible_bundle(space, [list(hw) for hw in args.bundles])
    return CompleteIntersection(bundle)


def _payload(args, rng):
    """Compute the request's result as a JSON-ready dict; SpecError for a
    command with no handler."""
    if args.command == "basis":
        elements = basis_half_integral(args.weight, args.double_index, args.prec)
        return {"weight": args.weight, "double_index": args.double_index,
                "order": args.prec,
                "elements": [series_payload(_series_terms(e.series))
                             for e in elements]}
    if args.command == "info":
        p = _space_parabolic(args.space)
        space = HomogeneousSpace(p)
        return {"diagram": p.dynkin_ascii(),
                "dimension": space.dimension(),
                "fixed_points": space.fixed_point_count()}
    if args.command in ("chern", "genus", "chi-y"):
        manifold = _build_manifold(args)
    if args.command == "chern":
        value = chern_number(manifold, list(args.degrees), rng=rng)
        return {"value": str(value)}
    if args.command == "genus":
        series = elliptic_genus(manifold, args.order, rng=rng)
        return {"dimension": manifold.dimension(),
                "y_half_power": manifold.dimension(),
                "terms": series_payload(_series_terms(series)),
                "order": args.order}
    if args.command == "chi-y":
        value = chi_y(manifold, rng=rng)
        return {"dimension": manifold.dimension(),
                "y_half_power": manifold.dimension(),
                "coeffs": laurent_payload(sorted(value.c.items()))}
    raise SpecError(f"unknown command {args.command!r}")


def render_payload(payload):
    """Text rendering of any command's JSON payload; the text output path
    uses this same function, so JSON round-trips byte-for-byte."""
    if "elements" in payload:
        return "\n".join(format_series_payload(terms, payload["order"])
                         for terms in payload["elements"])
    if "diagram" in payload:
        return (f"{payload['diagram']}\n"
                f"dimension: {payload['dimension']}\n"
                f"fixed points: {payload['fixed_points']}")
    if "terms" in payload:
        return format_series_payload(payload["terms"], payload["order"])
    if "coeffs" in payload:
        return format_laurent(parse_laurent_payload(payload["coeffs"]))
    return payload["value"]


def main(argv=None):
    """Run the CLI on argv (sys.argv[1:] when None) and return the exit
    code; --seed seeds the evaluation points, which no result depends on."""
    try:
        args = parse_args(argv)
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    rng = random.Random(args.seed)
    try:
        payload = _payload(args, rng)
    except ConsistencyError as err:
        print(f"integration failed: {err}", file=sys.stderr)
        return 4
    except TooLarge as err:
        print(f"too large: {err}", file=sys.stderr)
        return 5
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _MATH_ERRORS as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 3
    if args.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_payload(payload))
    return 0


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
