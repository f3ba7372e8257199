"""Exception types raised across the package."""

from operator import index


class EllgenusError(Exception):
    """Base class for every error this library raises on purpose."""


class SeriesError(EllgenusError):
    pass


class DivisionByNonUnit(SeriesError):
    """Series division needs a divisor whose lowest q-coefficient is a
    single y-monomial with nonzero rational coefficient, and whose
    q-valuation does not exceed the dividend's."""


class PrecisionZero(SeriesError):
    """A coefficient was needed beyond a series' retained precision: past
    its q-order, or in a division of precision-zero series."""


class InvalidInput(EllgenusError, ValueError):
    """A request outside a function's domain: a Chern-class degree outside
    1..dim, a highest weight with the wrong number of coordinates, a
    negative Jacobi index (CLI exit code 3), crossed nodes outside 1..rank
    (exit code 2, as a malformed space), a non-integer rank, crossed node,
    Chern-class degree or highest-weight coefficient, a negative symmetric
    or exterior power, a universal elliptic genus of dimension below 1 or
    of negative q-order, a Chern monomial with the wrong number of
    exponents, a q-series of negative precision or with a negative or odd
    doubled q-exponent, a y-scale of 0, an Eisenstein series of weight
    other than 4 or 6, classes of different ambient dimensions, an
    evaluation point of the wrong dimension, a negative power, or the
    logarithm of a series whose constant term is not 1."""


class OddWeight(EllgenusError):
    """Weak Jacobi form bases are only provided for even weights."""


class UnknownType(EllgenusError):
    """Cartan type outside A/B/C/D/E/F/G with the supported ranks."""


class NotPDominant(EllgenusError):
    """Highest weight pairs negatively with an uncrossed simple coroot."""


class DegeneratePoint(EllgenusError):
    """A tangent root vanishes at a point passed to localization_sum by its
    caller; never at the dominant points that localize draws."""


class ConsistencyError(EllgenusError):
    """A built-in self-check failed: the exact localization sum differed
    between two independent evaluation points, a Cartan matrix entry was
    not an integer, the positive roots did not give an invariant form, a
    Freudenthal multiplicity was not a positive integer, a Weyl dimension
    was not an integer, the universal elliptic genus was not c_d at y = 1
    or not Serre symmetric, or the low q-rows of a Calabi-Yau genus were
    not a weak Jacobi form in the span of the weak Jacobi basis."""


class TooLarge(EllgenusError):
    """The request would enumerate more fixed points than
    roots.MAX_FIXED_POINTS, build a universal elliptic genus over more
    Chern monomials than genus.MAX_CHERN_MONOMIALS, or localize more (fixed
    point, monomial) pairs than genus.MAX_LOCALIZATION_TERMS."""


class BaseMismatch(EllgenusError):
    """Binary bundle operation applied to bundles over different bases."""


class WedgeTooLarge(InvalidInput):
    """Exterior power of negative degree; above the rank it is rank 0."""


class NegativeDimension(EllgenusError):
    """A zero locus of the given bundle would have negative dimension."""


def integer(value, what):
    """value as an int where operator.index takes it; InvalidInput for a
    float, a Fraction or any other value that int() would truncate."""
    try:
        return index(value)
    except TypeError:
        raise InvalidInput(f"{what} must be an integer, not {value!r}") from None
