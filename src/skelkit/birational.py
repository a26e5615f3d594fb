"""Log canonical thresholds from the dual complex of a log resolution.

A log resolution of a pair presents the pulled-back divisor as
sum(N_i E_i) with snc support and the relative canonical divisor as
sum((mu_i - 1) E_i).  A quasi-monomial valuation through a stratum is a
nonnegative weight tuple alpha, not normalized: its log discrepancy is
sum(alpha_j mu_j), its order on the divisor sum(alpha_j N_j), and the
ratio of the two is scale-invariant with infimum the log canonical
threshold min over components of mu_i / N_i.

Background: for an isolated singularity this ratio is the weight of the
associated relative volume form at the corresponding point of the link,
so the threshold and its locus are the minimal weight and the
minimal-weight skeleton of that form, and `lct`/`sk_pair` compute them
as such; the identification map between the two pictures is
deliberately not implemented, only the numerics on each side.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .essential import Subcomplex, is_connected, min_weight, minimal_skeleton
from .model import KIND_LOG_RESOLUTION, SncdModel, _multiplicity, connected_components
from .series import AlphaVector
from .skeleton import _stratum_and_check

# unnormalized nonnegative weights on the vertices of a stratum, not all zero
QuasiMonomialPoint = AlphaVector


def _require_log_resolution(model: SncdModel):
    if model.kind != KIND_LOG_RESOLUTION:
        raise DomainError(
            f"operation needs a log-resolution model, got kind {model.kind!r}"
        )


def _pairing(model: SncdModel, x: QuasiMonomialPoint, datum: str) -> Fraction:
    """sum(alpha_j * d_j) for the component datum d = "mu" or "N"."""
    _require_log_resolution(model)
    s = _stratum_and_check(model, x.stratum, x.alpha)
    return sum(x.alpha[v] * getattr(model.component(v), datum) for v in s.vertices)


def lct(model: SncdModel) -> Fraction:
    """Log canonical threshold: min over components of mu_i / N_i.

    This is the minimal weight of the pair's relative volume form.

    >>> from .complexes import graph_model
    >>> node = graph_model("log-resolution", 1, 2,
    ...                    [("A", "A", 1, 1), ("B", "B", 1, 1)],
    ...                    [("e_A_B", "A", "B")])
    >>> lct(node)
    Fraction(1, 1)
    """
    _require_log_resolution(model)
    return min_weight(model)


def log_discrepancy(model: SncdModel, x: QuasiMonomialPoint) -> Fraction:
    """sum(alpha_j * mu_j): the log discrepancy of the valuation."""
    return _pairing(model, x, "mu")


def intersection_order(model: SncdModel, x: QuasiMonomialPoint) -> Fraction:
    """sum(alpha_j * N_j): the valuation of the resolved divisor."""
    return _pairing(model, x, "N")


def weight_qm(model: SncdModel, x: QuasiMonomialPoint) -> Fraction:
    """Weight of a quasi-monomial valuation, normalized by the divisor order.

    Scale-invariant in alpha, always at least lct(model), with equality
    exactly when every vertex carrying positive weight has the minimal
    ratio.
    """
    order = intersection_order(model, x)
    for v in model.stratum(x.stratum).vertices:
        _multiplicity(model.component(v))
    return log_discrepancy(model, x) / order


def sk_pair(model: SncdModel) -> Subcomplex:
    """The threshold locus: the minimal-weight skeleton of the pair; face-closed."""
    return threshold_locus(model)[1]


def threshold_locus(model: SncdModel) -> tuple[Fraction, Subcomplex]:
    """lct and sk_pair together, taking the minimum once."""
    _require_log_resolution(model)
    return minimal_skeleton(model)


def connectedness_report(model: SncdModel) -> list[tuple[frozenset[str], bool]]:
    """For each connected component of the complex, whether the threshold
    locus inside it is nonempty and connected.

    Blocks are listed by their smallest stratum id; pairs carry the
    block's full stratum set and the connectivity verdict.
    """
    pair = sk_pair(model)
    blocks = connected_components(model, [s.id for s in model.strata])
    return [(block, is_connected(model, Subcomplex(pair.strata & block))) for block in blocks]
