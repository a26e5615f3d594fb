"""Finite supports of local expansions and their monomial valuations.

A series in the local coordinates of a stratum is tracked only through
its support, a finite set of exponent vectors in Z^r with nonnegative
entries.  The monomial valuation attached to a weight tuple alpha
is the minimum of the linear form alpha . beta over the support, which
only depends on the dominance-minimal exponents.  A blow-up pulls an
expansion back with the center sums taken once per coface (`_pullback`),
then per new stratum a projection into checked records, or nothing where
the projected pair would weigh as the vertices' own data do.
"""

from __future__ import annotations

from fractions import Fraction
from operator import le, sub

from ._record import Record
from .errors import DomainError


def _fractions(values: dict) -> dict:
    """A copy of a point's coordinates with Fraction values."""
    return {k: Fraction(a) for k, a in values.items()}


class Support(Record):
    """Exponent support of a series at a stratum.

    >>> s = Support("e", ("A", "B"), frozenset({(1, 0), (0, 2)}))
    >>> sorted(s.exponents)
    [(0, 2), (1, 0)]
    """

    __slots__ = ("stratum", "vertices", "exponents")

    def __init__(
        self, stratum: str, vertices: tuple[str, ...], exponents: frozenset[tuple[int, ...]]
    ):
        vertices, exponents = tuple(vertices), frozenset(tuple(b) for b in exponents)
        if not exponents:
            raise DomainError("support must contain at least one exponent vector")
        r = len(vertices)
        for beta in exponents:
            if len(beta) != r:
                raise DomainError(
                    f"exponent vector {beta} has length {len(beta)}, expected {r}"
                )
            for b in beta:
                if not isinstance(b, int) or b < 0:
                    raise DomainError(
                        f"exponent vector {beta} has a non-integer or negative entry"
                    )
        Record.__init__(self, stratum, vertices, exponents)


class SeriesPair(Record):
    """Numerator and denominator supports of a local expansion."""

    __slots__ = ("num", "den")

    def __init__(self, num: Support, den: Support):
        if num.stratum != den.stratum or num.vertices != den.vertices:
            raise DomainError("numerator and denominator live on different strata")
        Record.__init__(self, num, den)


class AlphaVector(Record):
    """Nonnegative rational weights on the vertices of a stratum.

    At least one entry must be positive; entries may be zero (the
    valuation then ignores those coordinates).
    """

    __slots__ = ("stratum", "alpha")

    def __init__(self, stratum: str, alpha: dict[str, Fraction]):
        alpha = _fractions(alpha)
        if any(a < 0 for a in alpha.values()):
            raise DomainError("alpha entries must be nonnegative")
        if not any(a > 0 for a in alpha.values()):
            raise DomainError("alpha must have at least one positive entry")
        Record.__init__(self, stratum, alpha)


def _check_match(s: Support, a: AlphaVector):
    if s.stratum != a.stratum or set(a.alpha) != set(s.vertices):
        raise DomainError(
            f"weight vector on stratum {a.stratum!r} does not match support "
            f"on stratum {s.stratum!r} with vertices {s.vertices}"
        )


def val(s: Support, a: AlphaVector) -> Fraction:
    """Monomial valuation: min over the support of the linear form alpha . beta.

    >>> from fractions import Fraction as F
    >>> s = Support("e", ("A", "B"), frozenset({(1, 0), (0, 2)}))
    >>> a = AlphaVector("e", {"A": F(1, 2), "B": F(1, 3)})
    >>> val(s, a)
    Fraction(1, 2)
    """
    _check_match(s, a)
    return _order(s.exponents, [a.alpha[v] for v in s.vertices])


def _order(exponents, weights):
    """Min-plus evaluation: the least weights . beta over the exponent vectors."""
    return min(sum(w * b for w, b in zip(weights, beta)) for beta in exponents)


def reduce_support(s: Support) -> Support:
    """Drop every exponent vector coordinatewise dominated by another.

    Dominated vectors can never achieve the minimum of a nonnegative
    linear form strictly, so the valuation is unchanged.
    """
    return Support(s.stratum, s.vertices, _antichain(s.exponents))


def _antichain(exponents) -> frozenset[tuple[int, ...]]:
    """The exponent vectors of a set that no other vector of it is coordinatewise below.

    A vector below another precedes it lexicographically, and being
    below is transitive, so each vector in sorted order is checked
    against the ones kept before it only.  Repeated vectors count once.
    """
    if len(exponents) < 2:
        return frozenset(exponents)
    kept: list[tuple[int, ...]] = []
    for beta in sorted(exponents):
        for low in kept:
            if all(map(le, low, beta)):
                break
        else:
            kept.append(beta)
    return frozenset(kept)


def _pullback(h: SeriesPair, center_at, shift: int, excess_e: int, excess):
    """Pull an expansion back through a blow-up: a map from a new stratum to its pair.

    An exponent beta becomes (its sum at center_at, plus shift on num) at the
    first, exceptional vertex, then beta at keep_at.  The sums are taken once
    per call; a stratum projects and drops dominated vectors.  Its pair is None
    when num and den are single vectors a and b with a - b the vertices' mu - m,
    excess_e at the exceptional vertex and excess[p] at position p: the weight
    is then the plain sum of alpha_v * mu_v, and the pair bends nothing.
    """
    num = [(sum([beta[p] for p in center_at]) + shift, beta) for beta in h.num.exponents]
    den = [(sum([beta[p] for p in center_at]), beta) for beta in h.den.exponents]

    def onto(stratum: str, vertices: tuple[str, ...], keep_at) -> SeriesPair | None:
        a, b = (_antichain([(c, *[beta[p] for p in keep_at]) for c, beta in side])
                for side in (num, den))
        if len(a) == len(b) == 1 and list(map(sub, *a, *b)) == [
                excess_e, *[excess[p] for p in keep_at]]:
            return None
        return SeriesPair(Support(stratum, vertices, a), Support(stratum, vertices, b))

    return onto
