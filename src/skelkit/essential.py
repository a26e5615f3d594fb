"""Minimal-weight loci: the skeleton selected by a pluricanonical form.

The weight function of a regular form attains its minimum over the
whole dual complex at min over components of mu_i / N_i, and the locus
where it does so is the union of the closed faces all of whose vertices
realize that minimum and which stay away from the form's zero locus.
Taking the union over several forms gives the part of the complex that
no modification can shrink.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError
from .model import (
    FormData, PrimeComponent, SncdModel, Stratum, _face_edges, _multiplicity,
    connected_components, validate,
)


@dataclass(frozen=True)
class Subcomplex:
    """A face-closed set of strata of a fixed model."""

    strata: frozenset[str]

    @property
    def empty(self) -> bool:
        return not self.strata

    def __contains__(self, stratum_id: str) -> bool:
        return stratum_id in self.strata


def subcomplex(model: SncdModel, stratum_ids) -> Subcomplex:
    """Build a subcomplex, checking face-closure against the model."""
    ids = frozenset(stratum_ids)
    for _ in _face_edges(model, ids):
        pass
    return Subcomplex(ids)


def apply_form(model: SncdModel, form: FormData) -> SncdModel:
    """Overlay a form's weight data on a model.

    Produces a model with the form's m, mu and flags; stratum expansion
    data is dropped since it described the original form.  A form that
    names a component or stratum the model lacks is rejected: the typo
    would otherwise change the answer silently.
    """
    comp_ids, strata_ids = model._components_by_id.keys(), model._strata_by_id.keys()
    flagged = form.touches_zero.keys() | form.touches_pole.keys()
    for problem, ids in (
        ("gives no weight datum for components", comp_ids - form.mu.keys()),
        ("gives weight data for unknown components", form.mu.keys() - comp_ids),
        ("sets flags on unknown strata", flagged - strata_ids),
    ):
        if ids:
            raise DomainError(f"form {problem} {sorted(ids)}")
    comps = tuple(
        PrimeComponent(c.id, c.name, c.N, form.mu[c.id]) for c in model.components
    )
    strata = tuple(
        Stratum(
            s.id,
            s.vertices,
            dict(s.face_map),
            form.touches_zero.get(s.id, False),
            form.touches_pole.get(s.id, False),
            None,
        )
        for s in model.strata
    )
    out = SncdModel(model.kind, form.m, model.ambient_dim, comps, strata)
    report = validate(out)
    if not report.ok:
        raise DomainError(f"form data breaks the model: {report}")
    return out


def _resolved(model: SncdModel, form: Optional[FormData]) -> SncdModel:
    return model if form is None else apply_form(model, form)


def min_weight(model: SncdModel, form: Optional[FormData] = None) -> Fraction:
    """Minimum of the weight function over the whole skeleton.

    Requires a form without poles; the minimum is then attained at a
    vertex and equals min over components of mu_i / N_i.
    """
    mdl = _resolved(model, form)
    flagged = [s.id for s in mdl.strata if s.touches_pole]
    if flagged:
        raise DomainError(
            f"form has poles along strata {sorted(flagged)}; weights are "
            f"unbounded below and no minimum exists"
        )
    if not mdl.components:
        raise DomainError("model has no components")
    return min(Fraction(c.mu, _multiplicity(c)) for c in mdl.components)


def ks_skeleton(model: SncdModel, form: Optional[FormData] = None) -> Subcomplex:
    """Faces on which the weight function is identically minimal.

    A stratum qualifies when every vertex realizes the minimal ratio
    and the stratum stays off the form's zero locus; flag monotonicity
    makes the result face-closed.  The result can be empty only for
    flag data no actual form produces.
    """
    return minimal_skeleton(model, form)[1]


def minimal_skeleton(
    model: SncdModel, form: Optional[FormData] = None
) -> tuple[Fraction, Subcomplex]:
    """min_weight and ks_skeleton together, resolving the form and taking the minimum once."""
    mdl = _resolved(model, form)
    lo = min_weight(mdl)
    # mu / N == lo, cross-multiplied: min_weight has checked every N >= 1
    minimal = {
        c.id for c in mdl.components if c.mu * lo.denominator == lo.numerator * c.N
    }
    chosen = [
        s.id for s in mdl.strata
        if not s.touches_zero and all(v in minimal for v in s.vertices)
    ]
    return lo, subcomplex(model, chosen)


def essential_skeleton(model: SncdModel, forms: Sequence[FormData]) -> Subcomplex:
    """Union of the minimal-weight skeleta of several forms."""
    forms = list(forms)
    if not forms:
        raise DomainError("essential skeleton needs at least one form")
    strata: frozenset[str] = frozenset()
    for f in forms:
        strata |= ks_skeleton(model, f).strata
    # each part passed subcomplex(), and a union of face-closed sets is face-closed
    return Subcomplex(strata)


def is_connected(model: SncdModel, sub: Subcomplex) -> bool:
    """Whether the geometric realization of a face-closed stratum set is connected.

    The empty subcomplex is reported as not connected; callers that
    need to tell the two apart test `sub.empty`.
    """
    if sub.empty:
        return False
    return len(connected_components(model, sorted(sub.strata))) == 1
