"""Points of the dual complex and the weight function.

The skeleton of a model is the geometric realization of its dual
complex.  A point on the open face of a stratum is a tuple of positive
rational weights alpha on the stratum's vertices, normalized against
the component multiplicities by sum(alpha_j * N_j) = 1 (the uniformizer
has valuation one).  Barycentric coordinates w_j = alpha_j * N_j give
the simplicial picture of the same point.

The weight of a point is sum(alpha_j * mu_j) on faces without local
expansion data; with an expansion (num, den) for the tracked form it is
val(num) - val(den) + m * sum(alpha_j), which agrees with the plain
formula whenever the expansion is a unit times the monomial carrying
the declared multiplicities.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import DomainError
from .model import SncdModel, Stratum, _Complex, _bends, face
from .series import AlphaVector, _fractions, _order

CLASS_AFFINE = "affine"
CLASS_CONCAVE = "concave"
CLASS_CONVEX = "convex"
CLASS_UNKNOWN = "unknown"


# a point on the open face of a stratum in alpha coordinates, if check_point passes
SkeletonPoint = AlphaVector


class BarycentricPoint(Record):
    """The same point in barycentric coordinates (positive, summing to 1)."""

    __slots__ = ("stratum", "w")

    def __init__(self, stratum: str, w: dict[str, Fraction]):
        Record.__init__(self, stratum, _fractions(w))


class PointSpec(Record):
    """A point given by its reduction stratum and its values on the components.

    values records the valuation of each component through the center;
    entries may be zero, in which case the point lives on the face
    spanned by the positive ones.
    """

    __slots__ = ("center", "values")

    def __init__(self, center: str, values: dict[str, Fraction]):
        Record.__init__(self, center, _fractions(values))


def _shown(q: Fraction) -> str:
    """q for an error message, which must not fail on a rational too long to print."""
    try:
        return str(q)
    except ValueError:  # past the interpreter's int-to-str digit limit
        return "a rational too long to print"


def _stratum_and_check(model: SncdModel, stratum_id: str, keys) -> Stratum:
    s = model.stratum(stratum_id)
    if set(keys) != set(s.vertices):
        raise DomainError(
            f"coordinates {sorted(keys)} do not match the vertices "
            f"{list(s.vertices)} of stratum {stratum_id!r}"
        )
    return s


def check_point(model: SncdModel, x: SkeletonPoint) -> Stratum:
    """Raise unless x is a well-formed normalized point; return its stratum."""
    s = _stratum_and_check(model, x.stratum, x.alpha)
    if any(a <= 0 for a in x.alpha.values()):
        raise DomainError(f"point on stratum {x.stratum!r} has a non-positive weight")
    total = sum(x.alpha[v] * model.component(v).N for v in s.vertices)
    if total != 1:
        raise DomainError(
            f"point on stratum {x.stratum!r} is not normalized: "
            f"sum(alpha * N) = {_shown(total)}"
        )
    return s


def embed(model: SncdModel, p: BarycentricPoint) -> SkeletonPoint:
    """Convert barycentric coordinates to normalized alpha coordinates.

    alpha_j = w_j / N_j, so sum(alpha_j * N_j) = sum(w_j); check_point
    rejects the point unless the w_j are positive and sum to 1.

    >>> from fractions import Fraction as F
    >>> from .complexes import graph_model
    >>> mdl = graph_model("sncd-over-dvr", 1, 2,
    ...                   [("A", "A", 2, 1), ("B", "B", 3, 1)],
    ...                   [("e", "A", "B")])
    >>> x = embed(mdl, BarycentricPoint("e", {"A": F(1, 2), "B": F(1, 2)}))
    >>> x.alpha["A"], x.alpha["B"]
    (Fraction(1, 4), Fraction(1, 6))
    """
    x = SkeletonPoint(p.stratum, {v: w / model.component(v).N for v, w in p.w.items()})
    check_point(model, x)
    return x


def to_barycentric(model: SncdModel, x: SkeletonPoint) -> BarycentricPoint:
    """Inverse of embed: w_j = alpha_j * N_j."""
    s = check_point(model, x)
    return BarycentricPoint(
        x.stratum, {v: x.alpha[v] * model.component(v).N for v in s.vertices}
    )


def retract(model: SncdModel, spec: PointSpec) -> SkeletonPoint:
    """Place a point described by component values onto the skeleton.

    The point lands on the face of the center spanned by the vertices
    with positive value, with alpha equal to those values.  A point that
    already lies on the skeleton retracts to itself.
    """
    s = _stratum_and_check(model, spec.center, spec.values)
    if any(a < 0 for a in spec.values.values()):
        raise DomainError("component values must be nonnegative")
    total = sum(spec.values[v] * model.component(v).N for v in s.vertices)
    if total != 1:
        raise DomainError(
            f"values are not normalized: sum(value * N) = {_shown(total)}, expected 1"
        )
    positive = [v for v in s.vertices if spec.values[v] > 0]
    target = face(model, spec.center, positive)
    return SkeletonPoint(target, {v: spec.values[v] for v in positive})


def weight(model: SncdModel, x: SkeletonPoint) -> Fraction:
    """Weight of a skeleton point with respect to the model's form data.

    >>> from fractions import Fraction as F
    >>> from .complexes import graph_model
    >>> mdl = graph_model("sncd-over-dvr", 1, 2,
    ...                   [("A", "A", 2, 1), ("B", "B", 3, 1)],
    ...                   [("e", "A", "B")])
    >>> weight(mdl, SkeletonPoint("e", {"A": F(1, 4), "B": F(1, 6)}))
    Fraction(5, 12)
    """
    return _weight_on(model, check_point(model, x), x.alpha)


def _weight_on(model: SncdModel | _Complex, s: Stratum, alpha: dict):
    """The module's weight formula on the face s at coordinates alpha, normalized or not.

    alpha is read once, in s's vertex order, which its model requires an expansion to follow."""
    h = s.horizontal
    if h is None:
        return sum(alpha[v] * model.component(v).mu for v in s.vertices)
    a = [alpha[v] for v in s.vertices]
    return _order(h.num.exponents, a) - _order(h.den.exponents, a) + model.m * sum(a)


def value_on_component(model: SncdModel, x: SkeletonPoint, comp_id: str) -> Fraction:
    """Valuation of a prime component at the point: alpha_c on vertices, else 0."""
    model.component(comp_id)
    s = _stratum_and_check(model, x.stratum, x.alpha)
    if comp_id in s.vertices:
        return x.alpha[comp_id]
    return Fraction(0)


def classify_face(model: SncdModel, stratum_id: str) -> str:
    """Shape of the weight function on a face, read off the zero/pole flags
    and the bends of the face's expansion.

    A zero is the touches_zero flag or a numerator with more than one
    minimal exponent, a pole the touches_pole flag or such a denominator.
    Neither: the weight is affine.  Zeros only make it concave (a
    minimum of affine functions), poles only make it convex, and with
    both present nothing can be said from the data alone.
    """
    s = model.stratum(stratum_id)
    zero = s.touches_zero or _bends(s, "touches_zero")
    pole = s.touches_pole or _bends(s, "touches_pole")
    if not zero and not pole:
        return CLASS_AFFINE
    if zero and not pole:
        return CLASS_CONCAVE
    if pole and not zero:
        return CLASS_CONVEX
    return CLASS_UNKNOWN
