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
from operator import attrgetter
from typing import Optional, Sequence

from ._record import Record
from .errors import DomainError, _ids
from .model import (
    CODE_FLAG_MONOTONICITY, FormData, PrimeComponent, SncdModel, Stratum, ValidationReport,
    Violation, _bends, _by_id, _degree_violations, _face_edges, _flag_break, _multiplicity,
    cofaces, connected_components,
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


def _check_form(model: SncdModel, form: FormData):
    """Check a form's ids, degree and flags against a valid model, as validate would."""
    comp_ids, strata_ids = model._components_by_id.keys(), model._strata_by_id.keys()
    flagged = form.touches_zero.keys() | form.touches_pole.keys()
    for problem, ids in (
        ("gives no weight datum for components", comp_ids - form.mu.keys()),
        ("gives weight data for unknown components", form.mu.keys() - comp_ids),
        ("sets flags on unknown strata", flagged - strata_ids),
    ):
        if ids:
            raise DomainError(f"form {problem} {_ids(ids)}")
    out = list(_degree_violations(model.kind, form.m))  # what validate reports, in its order
    flags = (("touches_zero", form.touches_zero), ("touches_pole", form.touches_pole))
    if any(any(on.values()) for _, on in flags):  # with every flag off there is no break
        for sid, faces in _face_edges(model, model._strata_by_id):
            for tid in faces:
                for flag, on in flags:
                    if on.get(tid) and not on.get(sid):
                        out.append(Violation(CODE_FLAG_MONOTONICITY, _flag_break(sid, flag, tid)))
    if out:
        raise DomainError(f"form data breaks the model: {ValidationReport(tuple(out))}")


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


def _flagged(model: SncdModel, form: Optional[FormData], flag: str) -> set[str]:
    """Ids of the strata with a flag on: the form's flags if given, else the model's.

    On the model's own data a stratum whose expansion bends as the flag
    would counts too, with its cofaces, so the set stays closed upward
    as the flags are.  Forms carry no expansions.
    """
    if form is not None:
        return {sid for sid, on in getattr(form, flag).items() if on}
    out = set(map(_by_id, filter(attrgetter(flag), model.strata)))
    for s in filter(attrgetter("horizontal"), model.strata):  # those with expansion data
        if not getattr(s, flag) and _bends(s, flag):
            out.update(cofaces(model, s.id))
    return out


def min_weight(model: SncdModel, form: Optional[FormData] = None) -> Fraction:
    """Minimum of the weight function over the whole skeleton.

    Requires a form without poles; the minimum is then attained at a
    vertex and equals min over components of mu_i / N_i.
    """
    if form is not None:
        _check_form(model, form)
    poles = _flagged(model, form, "touches_pole")
    if poles:
        raise DomainError(f"form has poles along strata {_ids(poles)}; weights are "
                          "unbounded below and no minimum exists")
    if not model.components:
        raise DomainError("model has no components")
    p = q = None  # the least mu / N so far, compared cross-multiplied
    for c in model.components:
        n, a = _multiplicity(c), c.mu if form is None else form.mu[c.id]
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
    mu = {c.id: c.mu for c in model.components} if form is None else form.mu
    zero = _flagged(model, form, "touches_zero")
    # mu / N == p / q, cross-multiplied: min_weight has checked every N >= 1
    p, q = lo.as_integer_ratio()
    minimal = {c.id for c in model.components if mu[c.id] * q == p * c.N}
    # face-closed without a walk: a face keeps the vertex test, and the zero set,
    # closed upward (flags checked monotone by _check_form or validate, bends with
    # their cofaces), keeps it off the zero locus
    chosen = frozenset({
        s.id for s in model.strata if s.id not in zero and minimal.issuperset(s.vertices)
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
