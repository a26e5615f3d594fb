"""Minimal-weight loci: the skeleton selected by a pluricanonical form.

The weight function of a regular form attains its minimum over the
whole dual complex at min over components of mu_i / N_i, and the locus
where it does so is the union of the closed faces all of whose vertices
realize that minimum and which stay away from the form's zero locus.
Taking the union over several forms gives the part of the complex that
no modification can shrink.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from ._record import Record
from .errors import DomainError, _ids
from .model import (
    FormData, PrimeComponent, SncdModel, Stratum, _check_form, _face_edges, _multiplicity,
    connected_components,
)


class Subcomplex(Record):
    """A face-closed set of strata of a fixed model."""

    __slots__ = ("strata",)

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
    _check_form(model, form)
    comps = tuple(PrimeComponent(c.id, c.name, c.N, form.mu[c.id]) for c in model.components)
    zero, pole = form.touches_zero, form.touches_pole
    strata = tuple(
        Stratum(s.id, s.vertices, dict(s.face_map), zero.get(s.id, False),
                pole.get(s.id, False), None)
        for s in model.strata
    )
    return SncdModel(model.kind, form.m, model.ambient_dim, comps, strata)


def min_weight(model: SncdModel, form: Optional[FormData] = None) -> Fraction:
    """Minimum of the weight function over the whole skeleton.

    Requires a form without poles; the minimum is then attained at a
    vertex and equals min over components of mu_i / N_i.
    """
    if form is None:
        form = model._form
    else:
        _check_form(model, form)
    poles = [sid for sid, on in form.touches_pole.items() if on]
    if poles:
        raise DomainError(f"form has poles along strata {_ids(poles)}; weights are "
                          "unbounded below and no minimum exists")
    if not model.components:
        raise DomainError("model has no components")
    p = q = None  # the least mu / N so far, compared cross-multiplied
    for c in model.components:
        n, a = _multiplicity(c), form.mu[c.id]
        if q is None or a * q < p * n:
            p, q = a, n
    return Fraction(p, q)


def ks_skeleton(model: SncdModel, form: Optional[FormData] = None) -> Subcomplex:
    """Faces on which the weight function is identically minimal.

    A stratum qualifies when every vertex realizes the minimal ratio
    and the stratum stays off the form's zero locus, which on the
    model's own data takes in every stratum whose expansion numerator
    bends, with its cofaces; flag monotonicity makes the result
    face-closed.  The result can be empty only for flag data no actual
    form produces.
    """
    return minimal_skeleton(model, form)[1]


def minimal_skeleton(
    model: SncdModel, form: Optional[FormData] = None
) -> tuple[Fraction, Subcomplex]:
    """min_weight and ks_skeleton together, checking the form and taking the minimum once."""
    lo = min_weight(model, form)
    if form is None:
        form = model._form
    mu, zero = form.mu, form.touches_zero
    # mu / N == p / q, cross-multiplied: min_weight has checked every N >= 1
    p, q = lo.as_integer_ratio()
    minimal = {c.id for c in model.components if mu[c.id] * q == p * c.N}
    # face-closed without a walk: a face keeps the vertex test, and the zero set,
    # closed upward (flags checked monotone by _check_form or validate, bends with
    # their cofaces), keeps it off the zero locus
    chosen = frozenset({
        s.id for s in model.strata if not zero.get(s.id) and minimal.issuperset(s.vertices)
    })
    return lo, Subcomplex(chosen)


def essential_skeleton(model: SncdModel, forms: Sequence[FormData]) -> Subcomplex:
    """Union of the minimal-weight skeleta of several forms."""
    forms = list(forms)
    if not forms:
        raise DomainError("essential skeleton needs at least one form")
    strata: frozenset[str] = frozenset()
    for f in forms:
        strata |= ks_skeleton(model, f).strata
    # a union of face-closed sets is face-closed
    return Subcomplex(strata)


def is_connected(model: SncdModel, sub: Subcomplex) -> bool:
    """Whether the geometric realization of a face-closed stratum set is connected.

    The empty subcomplex is reported as not connected; callers that
    need to tell the two apart test `sub.empty`.
    """
    if sub.empty:
        return False
    return len(connected_components(model, sub.strata)) == 1
