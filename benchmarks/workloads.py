"""The benchmark's three workloads: which requests each sends, how one
request runs, and the canonical form its result is checked in.

Every request reaches the library through a module attribute
(``cli.main``, ``roots.parabolic``, ...), so the wrappers that
``tracing.py`` installs on those attributes see each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass

from ellgenus import bundles, ci, cli, genus, homog, jacobi, qseries, roots


@dataclass(frozen=True)
class Request:
    """One request. ``id`` is stable across seeds and keys the reference
    output; ``params`` are the inputs the library receives."""

    id: str
    kind: str
    params: tuple


def _cli(line):
    return Request(f"cli {line}", "cli", tuple(line.split()))


# Partitions of 6: the full Chern-number table of Gr(3,5) = A4[3].
_PARTITIONS_OF_6 = ("6", "5,1", "4,2", "4,1,1", "3,3", "3,2,1", "3,1,1,1",
                    "2,2,2", "2,2,1,1", "2,1,1,1,1", "1,1,1,1,1,1")

GP_LOCALIZATION = tuple(
    [_cli(f"chi-y --space {s}") for s in
     ("A3[2]", "A4[1]", "A4[2]", "A3[1,2,3]", "B3[3]", "C3[3]", "D4[1]",
      "G2[1,2]")]
    + [_cli("chi-y --space D4[1] --format json")]
    + [_cli(f"genus --space {s} --order {k}") for s, k in
       (("A3[2]", 2), ("A4[1]", 2), ("B3[3]", 2), ("C3[3]", 1), ("D4[1]", 1),
        ("G2[1,2]", 1), ("C3[3]", 0), ("A3[1]", 0))]
    + [_cli("genus --space B3[3] --order 1 --format json")]
    + [_cli(f"chern --space A4[3] --degrees {p}") for p in _PARTITIONS_OF_6]
    + [_cli(f"chern --space {s} --degrees {d}") for s, d in
       (("A4[1,2]", "7"), ("C3[1,2,3]", "9"), ("B3[1,3]", "8"),
        ("D4[1]", "6"), ("G2[1,2]", "6"))]
    + [_cli(f"info --space {s}") for s in
       ("A4[2]", "A4[1,2]", "A3[1,2,3]", "B3[1,3]", "C3[1,2,3]", "D4[1]",
        "G2[1,2]", "B3[3]")]
)

# Calabi-Yau and K3 complete intersections: (name, type, crossed nodes,
# highest weights of the section bundle).
CY_SPACES = {
    "K3": ("A3", (1,), ((4, 0, 0),)),
    "quintic": ("A4", (1,), ((5, 0, 0, 0),)),
    "P5_33": ("A5", (1,), ((3, 0, 0, 0, 0), (3, 0, 0, 0, 0))),
    "P5_24": ("A5", (1,), ((2, 0, 0, 0, 0), (4, 0, 0, 0, 0))),
    "sextic": ("A5", (1,), ((6, 0, 0, 0, 0),)),
    "Gr25_113": ("A4", (2,), ((0, 1, 0, 0), (0, 1, 0, 0), (0, 3, 0, 0))),
    "G2_CY3": ("G2", (1, 2), ((2, 0), (0, 1), (0, 1))),
}

CY_SERIES = tuple(
    [Request(f"fit {name} k={k}", "fit", (name, k)) for name, k in
     (("K3", 4), ("K3", 5), ("K3", 6), ("quintic", 4), ("quintic", 5),
      ("quintic", 6), ("P5_33", 4), ("P5_24", 5), ("sextic", 4),
      ("Gr25_113", 4), ("G2_CY3", 4), ("G2_CY3", 5), ("G2_CY3", 6))]
    + [Request(f"basis 2i={i} prec={p}", "basis", (i, p)) for i, p in
       ((10, 15), (9, 15), (7, 18), (6, 20), (5, 16))]
    + [Request(f"chernnum d={d} k={k}", "chernnum", (d, k)) for d, k in
       ((10, 0), (8, 2), (6, 4), (9, 1), (7, 3), (5, 5), (4, 6))]
)

# The last six coset and three weight requests cost about the same
# (0.1-0.25 s), so the median latency falls inside a cluster of similar
# requests rather than in a gap between two very different ones.
EXCEPTIONAL_ROOTS = tuple(
    [Request(f"cosets {t}{list(c)}", "cosets", (t, c)) for t, c in
     (("E6", (1,)), ("E6", (2,)), ("E7", (7,)), ("E7", (1,)), ("F4", (1,)),
      ("F4", (4,)), ("B5", (1, 2)), ("D5", (5,)), ("C4", (1, 2, 3, 4)),
      ("F4", (2,)), ("F4", (3,)), ("D4", (1, 3, 4)), ("A5", (3,)),
      ("D6", (1,)), ("C5", (5,)))]
    + [Request(f"weights {t}{list(c)} {list(hw)}", "weights", (t, c, hw))
       for t, c, hw in
       (("E6", (1,), (0, 1, 0, 0, 0, 1)), ("E6", (1,), (0, 0, 0, 0, 0, 1)),
        ("F4", (4,), (1, 0, 1, 0)), ("D5", (5,), (0, 1, 0, 1, 0)),
        ("C4", (4,), (1, 0, 1, 0)), ("B5", (1, 2), (0, 0, 0, 0, 1)),
        ("F4", (1,), (0, 0, 0, 1)), ("D5", (5,), (0, 1, 0, 0, 0)),
        ("B5", (1, 2), (0, 0, 1, 0, 1)), ("D5", (1,), (0, 1, 0, 0, 0)),
        ("D5", (1,), (1, 0, 0, 0, 1)))]
)

WORKLOADS = {
    "gp_localization": GP_LOCALIZATION,
    "cy_series": CY_SERIES,
    "exceptional_roots": EXCEPTIONAL_ROOTS,
}


def schedule(workload, seed):
    """(request, request seed) pairs in the order one pass sends them.

    The workload seed shuffles the order and draws each request's
    integration seed; the results are exact, so neither may change them.
    """
    rng = random.Random(f"{workload}/{seed}")
    requests = list(WORKLOADS[workload])
    rng.shuffle(requests)
    return [(r, rng.randrange(2 ** 31)) for r in requests]


# --------------------------------------------------------------------------
# running one request


def build_ci(name):
    kind, crossed, weights = CY_SPACES[name]
    space = homog.homogeneous_space(kind, list(crossed))
    bundle = bundles.completely_reducible_bundle(space, [list(w) for w in weights])
    return ci.CompleteIntersection(bundle)


def _fit(name, k, rng):
    """The cy_gallery.py computation: genus to q^k, its coordinates in the
    weight-0 weak Jacobi basis of index dim/2, and the Euler number."""
    manifold = build_ci(name)
    d = manifold.dimension()
    series = genus.elliptic_genus(manifold, k, rng=rng)
    shift = (d - d % 2) // 2
    elements = [
        qseries.QYSeries(e.series.prec2,
                         {k2: lau.shift(shift) for k2, lau in e.series.c.items()})
        for e in jacobi.basis_half_integral(0, d, prec=k)]
    coords = jacobi.linear_fit(series, elements)
    euler = ci.chern_number(manifold, [d], rng=rng)
    return d, series, coords, euler


def execute(request, seed):
    """Run one request; returns its raw result. Raises on any failure."""
    kind, params = request.kind, request.params
    if kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(params) + ["--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out.getvalue()
    if kind == "fit":
        return _fit(*params, random.Random(seed))
    if kind == "basis":
        return jacobi.basis_half_integral(0, *params)
    if kind == "chernnum":
        return str(genus.elliptic_genus_chernnum(*params))
    if kind == "cosets":
        letter, crossed = params
        return roots.parabolic(letter, crossed).coset_representatives()
    if kind == "weights":
        letter, crossed, hw = params
        p = roots.parabolic(letter, crossed)
        return p, p.weight_multiplicities(hw)
    raise ValueError(f"unknown request kind {kind!r}")


def canonical(request, result):
    """JSON-ready canonical form of a raw result, compared for equality
    with the reference recorded at the parent commit."""
    kind = request.kind
    if kind in ("cli", "chernnum"):
        return result
    if kind == "fit":
        d, series, coords, euler = result
        return {"dimension": d, "genus": str(series),
                "fit": None if coords is None else [str(c) for c in coords],
                "euler": str(euler)}
    if kind == "basis":
        return {"labels": [e.label() for e in result],
                "series": [str(e.series) for e in result]}
    if kind == "cosets":
        lengths = [0] * (max(w.length for w in result) + 1)
        for w in result:
            lengths[w.length] += 1
        mats = sorted(";".join(",".join(str(v) for v in row) for row in w.matrix)
                      for w in result)
        digest = hashlib.sha256("\n".join(mats).encode()).hexdigest()
        return {"count": len(result), "lengths": lengths, "matrices": digest}
    if kind == "weights":
        _, mult = result
        return sorted(f"{w}:{m}" for w, m in mult.items())
    raise ValueError(f"unknown request kind {kind!r}")
