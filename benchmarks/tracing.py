"""Layer spans and counts, recorded from outside the library.

``install`` replaces the listed public functions and methods of
``ellgenus`` with wrappers that record one span per call (name, start,
end, parent span, request) and update the counts at the same point. The
spans stay in memory; ``write_spans`` saves them when the run ends.
A layer is the first part of a span name, which is the module's name.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter

from ellgenus import genus, homog, jacobi, roots
from ellgenus.errors import DegeneratePoint

# The library's process-wide memo caches, captured before any wrapping:
# each pass clears them, and their statistics give the hit ratios.
CHERNNUM_CACHE = genus.elliptic_genus_chernnum
GENERATOR_CACHES = (jacobi.phi_0_1, jacobi.phi_m2_1, jacobi.phi_0_3half)
ALL_CACHES = tuple(obj for name, mod in sorted(sys.modules.items())
                   if name.startswith("ellgenus")
                   for obj in vars(mod).values() if hasattr(obj, "cache_clear"))
_ORIGINAL_COSET_REPS = roots.ParabolicSubgroup.coset_representatives


def clear_caches():
    for cache in ALL_CACHES:
        cache.cache_clear()


def cache_stats():
    """(hits, lookups) of the universal-series and Jacobi-generator caches
    since they were last cleared."""
    gen = [c.cache_info() for c in GENERATOR_CACHES]
    chern = CHERNNUM_CACHE.cache_info()
    return {"genus.chernnum": (chern.hits, chern.hits + chern.misses),
            "jacobi.generators": (sum(i.hits for i in gen),
                                  sum(i.hits + i.misses for i in gen))}


# --------------------------------------------------------------------------
# counts taken at the span boundaries; each hook performs the call


_seen_parabolics = weakref.WeakSet()


def _count_fixed_points(counts, args, call):
    """Coset representatives enumerated, once per parabolic instance (later
    calls return the instance's cached list)."""
    p = args[0]
    fresh = p not in _seen_parabolics
    result = call()
    if fresh:
        _seen_parabolics.add(p)
        counts["roots.fixed_points"] += len(result)
    return result


def _count_weights(counts, args, call):
    result = call()
    counts["roots.weights"] += len(result)
    return result


def _count_terms(counts, args, call):
    counts["cohomology.evaluate.terms"] += len(args[0].c)
    return call()


def _count_visits(counts, args, call):
    try:
        result = call()
    except DegeneratePoint:
        counts["homog.degenerate_redraws"] += 1
        raise
    counts["homog.fixed_point_visits"] += len(_ORIGINAL_COSET_REPS(args[0].parabolic))
    return result


def _count_rank(counts, args, call):
    result = call()
    counts["bundles.rank"] += result.rank
    return result


def _count_monomials(counts, args, call):
    """Chern monomials of each universal series built on a cache miss."""
    misses = CHERNNUM_CACHE.cache_info().misses
    result = call()
    if CHERNNUM_CACHE.cache_info().misses > misses:
        counts["genus.chernnum.monomials"] += len(result.monomials())
    return result


# (span name, module, class or None, attribute, count hook or None)
TARGETS = (
    ("roots.parabolic", "roots", None, "parabolic", None),
    ("roots.coset_reps", "roots", "ParabolicSubgroup", "coset_representatives",
     _count_fixed_points),
    ("roots.weight_mult", "roots", "ParabolicSubgroup", "weight_multiplicities",
     _count_weights),
    ("cohomology.evaluate", "cohomology", "CohomologyClass", "evaluate", _count_terms),
    ("cohomology.times", "cohomology", "CohomologyClass", "times", None),
    ("homog.integrate", "homog", "HomogeneousSpace", "integrate", None),
    ("homog.localization_sum", "homog", "HomogeneousSpace", "localization_sum",
     _count_visits),
    ("ci.chern_number", "ci", None, "chern_number", None),
    ("ci.chern_classes", "ci", "CompleteIntersection", "chern_classes", None),
    ("ci.euler_class", "ci", "CompleteIntersection", "euler_class", None),
    ("bundles.build", "bundles", None, "completely_reducible_bundle", _count_rank),
    ("bundles.build", "bundles", None, "irreducible_bundle", _count_rank),
    ("bundles.chern_classes", "bundles", "EquivariantVectorBundle", "chern_classes",
     None),
    ("genus.elliptic_genus", "genus", None, "elliptic_genus", None),
    ("genus.chernnum", "genus", None, "elliptic_genus_chernnum", _count_monomials),
    ("genus.substitute", "genus", "ChernSymbolSeries", "substitute", None),
    ("qseries.mul", "qseries", "QYSeries", "__mul__", None),
    ("qseries.div", "qseries", "QYSeries", "__truediv__", None),
    ("jacobi.basis", "jacobi", None, "basis_half_integral", None),
    ("jacobi.basis", "jacobi", None, "basis_integral", None),
    ("jacobi.generators", "jacobi", None, "phi_0_1", None),
    ("jacobi.generators", "jacobi", None, "phi_m2_1", None),
    ("jacobi.generators", "jacobi", None, "phi_0_3half", None),
    ("jacobi.linear_fit", "jacobi", None, "linear_fit", None),
    ("cli.parse", "cli", None, "parse_args", None),
    ("cli.render", "cli", None, "render_payload", None),
)

LAYERS = ("roots", "cohomology", "homog", "ci", "bundles", "genus", "qseries",
          "jacobi", "cli")

# What a traced run reports, as (name, unit, better). ".calls" counts
# spans, ".s" is their summed self time, "<layer>.share" is the layer's
# self time over the summed request latency, and "other.share" is the
# rest: glue outside every wrapped call.
METRICS = (
    ("roots.parabolic.s", "s", "lower"),
    ("roots.coset_reps.calls", "count", "lower"),
    ("roots.coset_reps.s", "s", "lower"),
    ("roots.fixed_points", "count", "lower"),
    ("roots.weight_mult.calls", "count", "lower"),
    ("roots.weight_mult.s", "s", "lower"),
    ("roots.weights", "count", "lower"),
    ("cohomology.evaluate.calls", "count", "lower"),
    ("cohomology.evaluate.terms", "count", "lower"),
    ("cohomology.evaluate.s", "s", "lower"),
    ("cohomology.times.calls", "count", "lower"),
    ("cohomology.times.s", "s", "lower"),
    ("homog.integrate.calls", "count", "lower"),
    ("homog.localization_sum.calls", "count", "lower"),
    ("homog.localization_sum.s", "s", "lower"),
    ("homog.fixed_point_visits", "count", "lower"),
    ("homog.degenerate_redraws", "count", "lower"),
    ("ci.chern_number.calls", "count", "lower"),
    ("ci.chern_number.s", "s", "lower"),
    ("ci.chern_classes.s", "s", "lower"),
    ("ci.euler_class.s", "s", "lower"),
    ("bundles.build.s", "s", "lower"),
    ("bundles.chern_classes.s", "s", "lower"),
    ("bundles.rank", "count", "lower"),
    ("genus.elliptic_genus.calls", "count", "lower"),
    ("genus.elliptic_genus.s", "s", "lower"),
    ("genus.chernnum.calls", "count", "lower"),
    ("genus.chernnum.s", "s", "lower"),
    ("genus.chernnum.hits", "count", "higher"),
    ("genus.chernnum.lookups", "count", "lower"),
    ("genus.chernnum.hit_ratio", "ratio", "higher"),
    ("genus.chernnum.monomials", "count", "lower"),
    ("genus.substitute.s", "s", "lower"),
    ("qseries.mul.calls", "count", "lower"),
    ("qseries.mul.s", "s", "lower"),
    ("qseries.div.calls", "count", "lower"),
    ("qseries.div.s", "s", "lower"),
    ("jacobi.basis.calls", "count", "lower"),
    ("jacobi.basis.s", "s", "lower"),
    ("jacobi.generators.s", "s", "lower"),
    ("jacobi.generators.hits", "count", "higher"),
    ("jacobi.generators.lookups", "count", "lower"),
    ("jacobi.generators.hit_ratio", "ratio", "higher"),
    ("jacobi.linear_fit.s", "s", "lower"),
    ("cli.parse.s", "s", "lower"),
    ("cli.render.s", "s", "lower"),
) + tuple((f"{layer}.share", "ratio", "lower") for layer in LAYERS + ("other",)) + (
    ("trace_overhead_s", "s", "lower"),
)


class Tracer:
    """Spans as lists [name, start, end, parent index, request, child time]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []

    def wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(counts, args, lambda: fn(*args, **kwargs))
            finally:
                span[2] = clock()
                stack.pop()
                if span[3] >= 0:
                    spans[span[3]][5] += span[2] - span[1]

        return traced

    def install(self):
        """Wrap every target; returns a function that undoes it."""
        modules = [m for n, m in sys.modules.items() if n.startswith("ellgenus")]
        undo = []
        for name, modname, clsname, attr, hook in TARGETS:
            mod = sys.modules[f"ellgenus.{modname}"]
            if clsname is not None:
                owners = [getattr(mod, clsname)]
                original = owners[0].__dict__[attr]
            else:
                owners = modules
                original = getattr(mod, attr)
            wrapped = self.wrap(name, original, hook)
            for owner in owners:
                # aliases such as __rmul__ = __mul__ share the function object
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapped)
                        undo.append((owner, key, original))

        def uninstall():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

        return uninstall

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self, busy_s):
        """Per-layer metrics of the spans recorded since the last reset;
        busy_s is the summed request latency they fall in."""
        calls, self_s = Counter(), Counter()
        for name, start, end, _, _, child in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child
        out = Counter(self.counts)
        for name in {t[0] for t in TARGETS}:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = self_s[name]
        for layer in LAYERS:
            share = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            out[f"{layer}.share"] = share / busy_s
        out["other.share"] = 1 - sum(out[f"{layer}.share"] for layer in LAYERS)
        for cache, (hits, lookups) in cache_stats().items():
            out[f"{cache}.hits"] = hits
            out[f"{cache}.lookups"] = lookups
            out[f"{cache}.hit_ratio"] = hits / lookups if lookups else 0.0
        return out

    def write_spans(self, path, origin):
        """CSV of the recorded spans, times in microseconds from origin."""
        with open(path, "w") as fh:
            fh.write("index,name,start_us,end_us,parent,request\n")
            for i, (name, start, end, parent, request, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{(start - origin) * 1e6:.1f},"
                         f"{(end - origin) * 1e6:.1f},{parent},{request}\n")
