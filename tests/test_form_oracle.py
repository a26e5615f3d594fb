"""Form overlays against the overlay-and-validate reference on random forms.

Each example takes a bundled model or a random `complexes` model (of
either kind) and a random form: ties in `mu`, zero and negative `mu`,
upward-closed or arbitrary zero and pole flags with explicit `False`
entries, unknown and missing ids and `m` in {0, 1, 2}.  The library path
reads the form straight off the model; the reference in `form_oracle`
builds the overlaid model and validates it.  Both must give the same
minimum and skeleton, or raise `DomainError` with the same message.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import skelkit as sk
import form_oracle
from skelkit.essential import minimal_skeleton
from conftest import BUNDLED_NAMES, load_bundled, random_complex_model, random_graph_model

BUNDLED = {name: load_bundled(name) for name in BUNDLED_NAMES}


def _model(rng):
    pick = rng.random()
    if pick < 0.3:
        return BUNDLED[rng.choice(BUNDLED_NAMES)]
    model = (random_graph_model if pick < 0.65 else random_complex_model)(rng)
    if rng.random() < 0.4:
        return model.replace(kind=sk.KIND_LOG_RESOLUTION, m=1)
    return model


def _mu(rng, model):
    """mu = lo * N on some components (ties at the minimum), the rest anywhere in -2..6."""
    lo = F(rng.randint(-2, 3), rng.randint(1, 3))
    mu = {}
    for c in model.components:
        tied = lo * c.N
        if tied.denominator == 1 and rng.random() < 0.5:
            mu[c.id] = int(tied)
        else:
            mu[c.id] = rng.randint(-2, 6)
    if rng.random() < 0.1:
        del mu[rng.choice(sorted(mu))]
    if rng.random() < 0.1:
        mu["nope"] = 1
    return mu


def _flags(rng, model):
    """Some strata on, upward-closed (the cofaces of a few strata) or not, some explicitly off."""
    ids = [s.id for s in model.strata]
    on = set()
    for _ in range(rng.choice([0, 0, 1, 2])):
        sid = rng.choice(ids)
        on.update(sk.cofaces(model, sid) if rng.random() < 0.6 else [sid])
    flags = {sid: True for sid in on}
    for sid in rng.sample(ids, rng.randint(0, min(3, len(ids)))):
        flags.setdefault(sid, False)
    if rng.random() < 0.05:
        flags["nope"] = rng.random() < 0.5
    return flags


def _form(rng, model):
    return sk.FormData(rng.choice([0, 1, 1, 1, 2]), _mu(rng, model), _flags(rng, model),
                       _flags(rng, model) if rng.random() < 0.3 else {})


def _outcome(fn):
    try:
        return fn()
    except sk.DomainError as exc:
        return ("DomainError", str(exc))


def _reference(model, form):
    return form_oracle.minimal_skeleton(form_oracle.apply_form(model, form))


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_forms_match_the_overlay_and_validate_reference(rng):
    model = _model(rng)
    assert sk.validate(model).ok
    form = _form(rng, model)
    expected = _outcome(lambda: _reference(model, form))
    got = _outcome(lambda: minimal_skeleton(model, form))
    if got[0] != "DomainError":  # face-closed with no walk of its own
        assert sk.subcomplex(model, got[1].strata) == got[1]
    assert got == expected
    lo = expected if expected[0] == "DomainError" else expected[0]
    assert _outcome(lambda: sk.min_weight(model, form)) == lo
    assert _outcome(lambda: sk.apply_form(model, form)) == _outcome(
        lambda: form_oracle.apply_form(model, form))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_essential_skeleton_is_the_union_of_the_references(rng):
    model = _model(rng)
    forms = [_form(rng, model) for _ in range(rng.randint(1, 3))]
    parts = [_outcome(lambda: _reference(model, form)) for form in forms]
    errors = [part for part in parts if part[0] == "DomainError"]
    expected = errors[0] if errors else frozenset().union(*(sub.strata for _, sub in parts))
    got = _outcome(lambda: sk.essential_skeleton(model, forms))
    assert (got.strata if isinstance(got, sk.Subcomplex) else got) == expected
