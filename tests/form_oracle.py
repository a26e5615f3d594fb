"""The form overlay that `essential._check_form` replaced on the skeleton path, kept verbatim.

`skelkit.essential` checks a form against a valid model and reads `mu`
and the flags straight from it; this reference builds the overlaid
model, runs the full `validate` on it and, as `min_weight` did, takes
the minimum over one `Fraction` per component.  Both must give the same
skeleton, or the same `DomainError`, on every form.
"""

from fractions import Fraction

from skelkit.errors import DomainError, _ids
from skelkit.essential import subcomplex
from skelkit.model import FormData, PrimeComponent, SncdModel, Stratum, validate


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


def minimal_skeleton(mdl: SncdModel):
    """(min_weight, ks_skeleton) of a model as given, one Fraction per component."""
    flagged = [s.id for s in mdl.strata if s.touches_pole]
    if flagged:
        raise DomainError(
            f"form has poles along strata {_ids(flagged)}; weights are "
            f"unbounded below and no minimum exists"
        )
    if not mdl.components:
        raise DomainError("model has no components")
    lo = min(Fraction(c.mu, c.N) for c in mdl.components)
    minimal = {c.id for c in mdl.components if Fraction(c.mu, c.N) == lo}
    chosen = [
        s.id for s in mdl.strata
        if not s.touches_zero and all(v in minimal for v in s.vertices)
    ]
    return lo, subcomplex(mdl, chosen)
