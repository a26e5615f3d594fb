"""Model independence of the Kontsevich-Soibelman skeleton.

Blow-ups and reductions change the model but not Sk(X, omega): after every
step the minimum of the weight function, the number of connected pieces of
the skeleton and membership of transferred points in it stay the same, and
an exceptional component over a generic point center never joins it.  The
union of the skeleta of several forms, each carried across a step by
blowing up its overlay the same way, keeps its number of pieces too.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import skelkit as sk
from conftest import (
    KODAIRA_NAMES, load_bundled, random_complex_model, random_graph_model, random_point,
    random_simplex_model,
)


def _tied(rng, model):
    """The model with mu = lo * N on some components, the rest above lo, and
    touches_zero on the cofaces of a few random strata (an upward-closed set)."""
    lo = F(rng.randint(1, 3), rng.randint(1, 2))
    comps = []
    for c in model.components:
        mu = math.ceil(lo * c.N)
        if mu == lo * c.N and rng.random() < 0.5:
            mu += rng.randint(1, 2)
        comps.append(c.replace(mu=mu))
    zero = set()
    for _ in range(rng.randint(0, 2)):
        zero.update(sk.cofaces(model, rng.choice(model.strata).id))
    strata = [s.replace(touches_zero=s.id in zero) for s in model.strata]
    return sk.SncdModel(model.kind, model.m, model.ambient_dim, comps, strata)


def _step(rng, model):
    """A random blow-up or reduction of the model's complex, as a function that runs it on
    any model with that complex: (new model, trace, point center's new vertex or None)."""
    tops = [s for s in model.strata if sk.is_maximal(model, s.id)]
    edges = [s for s in model.strata if s.r >= 2]
    choice = rng.choice(["point", "stratum", "reduce"] if edges else ["point"])
    if choice == "point":
        s = rng.choice(tops)
        J = tuple(rng.sample(s.vertices, rng.randint(1, min(s.r, model.ambient_dim - 1))))
        codim = rng.randint(len(J) + 1, model.ambient_dim)

        def point(mdl):
            out, e, trace = sk.blowup_point(mdl, s.id, J, codim)
            return out, trace, e

        return point
    if choice == "stratum":
        s = rng.choice([s for s in tops if s.r >= 2])
        return lambda mdl: (*sk.blowup_stratum(mdl, s.id)[::2], None)
    x = random_point(rng, model, rng.choice(edges).id)
    return lambda mdl: (*sk.reduce_to_divisorial(mdl, x)[::2], None)


def _expansion_simplex(rng):
    """A full simplex with expansion data on its top cell, in a dimension that
    leaves room for a point center through the whole cell half the time."""
    model = random_simplex_model(rng, expansion=True)
    return model.replace(ambient_dim=model.ambient_dim + rng.randint(0, 1))


def _any_model(rng):
    """A bundled Kodaira fiber, a random graph or complex, or an expansion simplex."""
    pick = rng.randrange(4)
    if pick == 0:
        return load_bundled(rng.choice(KODAIRA_NAMES))
    return (random_graph_model, random_complex_model, _expansion_simplex)[pick - 1](rng)


def _pieces(model, sub):
    return len(sk.connected_components(model, sorted(sub.strata)))


def assert_steps_keep_the_skeleton(rng, model, steps):
    assert sk.validate(model).ok
    lo, sk_old = sk.min_weight(model), sk.ks_skeleton(model)
    pieces = _pieces(model, sk_old)
    for _ in range(steps):
        out, trace, e = _step(rng, model)(model)
        assert sk.validate(out).ok
        sk_new = sk.ks_skeleton(out)
        assert sk.min_weight(out) == lo
        assert _pieces(out, sk_new) == pieces
        for s in model.strata:
            y = sk.transfer_point(model, out, trace, random_point(rng, model, s.id))
            assert (y.stratum in sk_new) == (s.id in sk_old), (s.id, y)
        if e is not None:
            c = out.component(e)
            assert F(c.mu, c.N) > lo
        model, sk_old = out, sk_new
    return pieces


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_blowups_keep_the_skeleton_of_random_models(rng):
    build = random_graph_model if rng.random() < 0.5 else random_complex_model
    model = _tied(rng, build(rng))
    assert_steps_keep_the_skeleton(rng, model, rng.randint(1, 4))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_blowups_keep_the_skeleton_of_expansion_simplices(rng):
    # each step pulls the top cell's expansion back onto the strata it adds
    assert_steps_keep_the_skeleton(rng, _expansion_simplex(rng), rng.randint(1, 4))


@pytest.mark.parametrize("name", KODAIRA_NAMES)
def test_blowups_keep_the_kodaira_skeleta_connected(name):
    rng = random.Random(name)
    model = load_bundled(name)
    for _ in range(3):
        assert assert_steps_keep_the_skeleton(rng, model, rng.randint(1, 4)) == 1


def _form_of(model):
    """The weight data a model carries, as a form: mu and the strata that touch zero."""
    return sk.FormData(
        model.m, {c.id: c.mu for c in model.components},
        {s.id: True for s in model.strata if s.touches_zero},
    )


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_blowups_keep_the_pieces_of_the_essential_skeleton(rng):
    """Each form is carried across a step by blowing up its overlay the same way."""
    build = random_graph_model if rng.random() < 0.5 else random_complex_model
    model = build(rng)
    forms = [_form_of(_tied(rng, model)) for _ in range(rng.randint(2, 3))]
    pieces = _pieces(model, sk.essential_skeleton(model, forms))
    for _ in range(rng.randint(1, 3)):
        step = _step(rng, model)
        forms = [_form_of(step(sk.apply_form(model, f))[0]) for f in forms]
        model = step(model)[0]
        assert _pieces(model, sk.essential_skeleton(model, forms)) == pieces


def _lies_over(old, new, trace, stratum_id):
    """The stratum of `old` that the stratum `stratum_id` of `new` lies over.

    A stratum center's step names the strata it replaced; a point center's
    step (always a trace of its own) puts the cone of its new vertex over
    its center stratum, the face the center meets."""
    for step in reversed(trace.steps):
        if step.replacements:
            stratum_id = next(
                (t for t, sub in step.replacements.items() if stratum_id in sub.values()),
                stratum_id,
            )
        elif step.new_vertex in new.stratum(stratum_id).vertices:
            stratum_id = step.center_stratum
    return stratum_id


def _rho(old, new, trace, x, under=None):
    """Map a point x of `new` back to `old`: retract the values of the old
    components at x onto `under`, the old stratum under x's stratum, which
    is read off the trace unless given."""
    values = {c.id: sk.pullback_value(new, trace, x, c.id) for c in old.components}
    center = old.stratum(under or _lies_over(old, new, trace, x.stratum))
    assert all(values[c] == 0 for c in values if c not in center.vertices), (x, values)
    return sk.retract(old, sk.PointSpec(center.id, {v: values[v] for v in center.vertices}))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_weight_ascends_off_the_skeleton(rng):
    """Across a blow-up the weight at a point of the new model is at least the
    weight at its image in the old one, and more by exactly alpha_e * m *
    (codim - |J|) over a point center; a reduction, mapped back through its
    composed trace in one go, keeps it."""
    model = _any_model(rng)
    for _ in range(rng.randint(1, 3)):
        out, trace, _ = _step(rng, model)(model)
        for s in out.strata:
            x = random_point(rng, out, s.id)
            y = _rho(model, out, trace, x)
            # only a point center raises the weight, and its trace has that one step
            jump = sum(
                x.alpha.get(step.new_vertex, 0) * model.m
                * (step.codim - len(step.center_vertices))
                for step in trace.steps
            )
            assert sk.weight(out, x) - sk.weight(model, y) == jump >= 0, (s.id, x, y)
        for s in model.strata:
            y = random_point(rng, model, s.id)
            assert _rho(model, out, trace, sk.transfer_point(model, out, trace, y)) == y
        model = out


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_weight_jumps_only_over_the_point_center(rng):
    """A point-center blow-up followed by 1-2 stratum blow-ups or reductions,
    composed into one trace and mapped back in one go: the weight jumps by m *
    (codim - |J|) times the order of the point center's exceptional divisor,
    so exactly on the strata with a vertex descending from that divisor."""
    model = _any_model(rng)
    s = rng.choice([s for s in model.strata if sk.is_maximal(model, s.id)])
    J = tuple(rng.sample(s.vertices, rng.randint(1, min(s.r, model.ambient_dim - 1))))
    codim = rng.randint(len(J) + 1, model.ambient_dim)
    out, e, trace = sk.blowup_point(model, s.id, J, codim)
    chain, models = [trace], [model, out]
    exceptional = sk.BlowupTrace(pullback={e: {e: 1}})  # e's divisor, pulled back
    for _ in range(rng.randint(1, 2)):
        cur = models[-1]
        cells = [t for t in cur.strata if t.r >= 2]
        near = [t for t in cells if exceptional.pullback[e].keys() & set(t.vertices)]
        pool = near if near and rng.random() < 0.5 else cells
        if rng.random() < 0.5:
            tops = [t for t in pool if sk.is_maximal(cur, t.id)] or [
                t for t in cells if sk.is_maximal(cur, t.id)]
            out, _, step_trace = sk.blowup_stratum(cur, rng.choice(tops).id)
        else:
            x = random_point(rng, cur, rng.choice(pool).id, max_part=20)
            out, _, step_trace = sk.reduce_to_divisorial(cur, x)
        for step in step_trace.steps:
            exceptional.extend(step)
        chain.append(step_trace)
        models.append(out)
    final = models[-1]
    composed = sk.BlowupTrace(pullback={c.id: {c.id: 1} for c in model.components})
    for step in (step for t in chain for step in t.steps):
        composed.extend(step)

    def rho(x):
        # each trace of the chain names the strata it replaced on its own
        sid = x.stratum
        for old, new, t in reversed(list(zip(models, models[1:], chain))):
            sid = _lies_over(old, new, t, sid)
        return _rho(model, final, composed, x, sid)

    descendants = set(exceptional.pullback[e])
    for t in final.strata:
        x = random_point(rng, final, t.id)
        jump = sk.weight(final, x) - sk.weight(model, rho(x))
        order = sk.pullback_value(final, exceptional, x, e)
        assert jump == model.m * (codim - len(J)) * order, (t.id, x)
        assert (jump > 0) == bool(descendants & set(t.vertices)), (t.id, x)
    for t in model.strata:
        y = random_point(rng, model, t.id)
        assert rho(sk.transfer_point(model, final, composed, y)) == y


def _report(model):
    """lct, the number of pieces of Sk of the pair and the connectedness verdicts."""
    verdicts = sorted(connected for _, connected in sk.connectedness_report(model))
    return sk.lct(model), _pieces(model, sk.sk_pair(model)), verdicts


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_blowups_keep_the_threshold_data_of_log_resolutions(rng):
    """lct, Sk of the pair and its connectedness per block are birational invariants."""
    pick = rng.randrange(3)
    if pick == 0:
        model = load_bundled(rng.choice(["cusp", "node"]))
    else:
        model = _tied(rng, random_graph_model(rng) if pick == 1 else random_complex_model(rng))
        model = model.replace(kind=sk.KIND_LOG_RESOLUTION, m=1)
    assert sk.validate(model).ok
    report = _report(model)
    for _ in range(rng.randint(1, 3)):
        model = _step(rng, model)(model)[0]
        assert _report(model) == report
