"""validate against the four-pass reference on randomly broken models.

Each example takes a bundled model or a random `complexes` model, breaks
it a few times (face maps, flags, multiplicities, degree, strata, ids,
vertices, expansion data) and requires the one-walk `validate` to report
the same multiset of (code, message) pairs as the reference, grouped by
stratum in model order after the model- and component-level violations.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

import skelkit as sk
from conftest import BUNDLED_NAMES, load_bundled, random_complex_model, random_graph_model
from validate_oracle import validate as validate_by_passes

BUNDLED = {name: load_bundled(name) for name in BUNDLED_NAMES}


def _swap(model, old, new):
    """The model with stratum `old` (compared by identity) replaced by `new`."""
    return model.replace(strata=tuple(new if s is old else s for s in model.strata))


def _any_stratum(rng, model, min_r=0):
    cells = [s for s in model.strata if s.r >= min_r]
    return rng.choice(cells) if cells else None


def drop_face(rng, model):
    s = _any_stratum(rng, model, 1)
    if s is None or not s.face_map:
        return model
    gone = rng.choice(sorted(s.face_map))
    return _swap(model, s, s.replace(face_map={v: t for v, t in s.face_map.items() if v != gone}))


def redirect_face(rng, model):
    s = _any_stratum(rng, model, 2)
    if s is None or not s.face_map:
        return model
    target = rng.choice([t.id for t in model.strata] + ["ghost"])
    key = rng.choice(sorted(s.face_map))
    return _swap(model, s, s.replace(face_map={**s.face_map, key: target}))


def extra_face_key(rng, model):
    s = _any_stratum(rng, model)
    if s is None:
        return model
    key = rng.choice([c.id for c in model.components] + ["Q"])
    target = rng.choice([t.id for t in model.strata])
    return _swap(model, s, s.replace(face_map={**s.face_map, key: target}))


def flip_flag(rng, model):
    s = _any_stratum(rng, model)
    if s is None:
        return model
    flag = rng.choice(["touches_zero", "touches_pole"])
    return _swap(model, s, s.replace(**{flag: not getattr(s, flag)}))


def _change_component(rng, model, change):
    c = rng.choice(model.components)
    others = tuple(x for x in model.components if x is not c)
    return model.replace(components=(c.replace(**change(c)), *others))


def set_n(rng, model):
    return _change_component(rng, model, lambda c: {"N": rng.choice([0, -1])})


def shift_mu(rng, model):
    return _change_component(rng, model, lambda c: {"mu": c.mu + rng.choice([-1, 1])})


def set_degree(rng, model):
    return rng.choice([
        lambda: model.replace(m=0),
        lambda: model.replace(kind=sk.KIND_LOG_RESOLUTION, m=2),
        lambda: model.replace(kind="mystery"),
        lambda: model.replace(ambient_dim=rng.randint(-1, 2)),
    ])()


def drop_stratum(rng, model):
    if len(model.strata) < 2:
        return model
    gone = _any_stratum(rng, model)
    return model.replace(strata=tuple(s for s in model.strata if s is not gone))


def duplicate_id(rng, model):
    if rng.random() < 0.5:
        c = rng.choice(model.components)
        twin = c.replace(id=rng.choice(model.components).id, N=rng.randint(0, 3))
        return model.replace(components=model.components + (twin,))
    s, t = _any_stratum(rng, model), _any_stratum(rng, model)
    h = t.horizontal
    if h is not None:  # the copy's expansion moves onto the twin's id, as a model requires
        h = sk.SeriesPair(h.num.replace(stratum=s.id), h.den.replace(stratum=s.id))
    twin = t.replace(id=s.id, touches_zero=True, horizontal=h)
    return model.replace(strata=model.strata + (twin,))


def empty_stratum(rng, model):
    key = rng.choice([c.id for c in model.components] + ["Q"])
    face_map = {key: rng.choice(model.strata).id} if rng.random() < 0.5 else {}
    horizontal = None
    if rng.random() < 0.3:
        support = sk.Support("z_empty", (), frozenset({()}))
        horizontal = sk.SeriesPair(support, support)
    return model.replace(
        strata=model.strata + (sk.Stratum("z_empty", (), face_map, False, False, horizontal),)
    )


def odd_vertex(rng, model):
    s = _any_stratum(rng, model, 1)
    if s is None:
        return model
    extra = rng.choice(["Q", s.vertices[0]])  # an unknown vertex or a repeated one
    vertices = list(s.vertices)
    if rng.random() < 0.5:
        vertices.append(extra)
    else:
        vertices[rng.randrange(len(vertices))] = extra
    vertices = tuple(vertices)  # an expansion on the old vertices would be refused
    h = s.horizontal if vertices == s.vertices else None
    return _swap(model, s, s.replace(vertices=vertices, horizontal=h))


def horizontal(rng, model):
    """Expansion data on a stratum, consistent with the weights or off by one
    in an order; it is written in the stratum's vertex order, as a model requires."""
    s = _any_stratum(rng, model, 1)
    if s is None:
        return model
    vertices = s.vertices
    mu = {c.id: c.mu for c in model.components}
    den = [max(0, model.m - mu.get(v, 0)) + rng.randint(0, 1) for v in vertices]
    num = [d + mu.get(v, 0) - model.m for d, v in zip(den, vertices)]
    if rng.random() < 0.3:
        num[rng.randrange(len(num))] += 1
    above = tuple(b + rng.randint(0, 2) for b in num)
    pair = sk.SeriesPair(
        sk.Support(s.id, vertices, frozenset({tuple(num), above})),
        sk.Support(s.id, vertices, frozenset({tuple(den)})),
    )
    return _swap(model, s, s.replace(horizontal=pair))


MUTATIONS = [
    drop_face, redirect_face, extra_face_key, flip_flag, set_n, shift_mu, set_degree,
    drop_stratum, duplicate_id, empty_stratum, odd_vertex, horizontal,
]


def _base(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return BUNDLED[rng.choice(BUNDLED_NAMES)]
    return random_complex_model(rng) if pick == 1 else random_graph_model(rng)


def _violations(report):
    return Counter((v.code, v.message) for v in report.violations)


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(st.sampled_from(MUTATIONS), max_size=4))
def test_validate_matches_the_four_pass_reference(rng, mutations):
    model = _base(rng)
    for mutate in mutations:
        model = mutate(rng, model)
    assert _violations(sk.validate(model)) == _violations(validate_by_passes(model))


def _stratum_rank(model, violation):
    """0 for a model- or component-level violation, else 1 + the index of the
    first stratum, in model order, whose id the message opens with."""
    for i, s in enumerate(model.strata):
        if violation.message.startswith(tuple(f"stratum {s.id!r}{c}" for c in " :,")):
            return 1 + i
    return 0


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(st.sampled_from(MUTATIONS), max_size=4))
def test_the_report_comes_grouped_by_stratum_in_model_order(rng, mutations):
    """Model- and component-level violations first, then each stratum's together,
    the strata in model order; the multiset comparison above cannot see the order."""
    model = _base(rng)
    for mutate in mutations:
        model = mutate(rng, model)
    assert _grouped_by_stratum(model, sk.validate(model))


def _grouped_by_stratum(model, report):
    ranks = [_stratum_rank(model, v) for v in report.violations]
    return ranks == sorted(ranks)


# small bases make a chain's second mutation likely to hit what the first one touched
PAIR_BASES = {
    **{name: BUNDLED[name] for name in ("edge_23", "node", "kodaira_I2", "cusp")},
    "graph": random_graph_model(random.Random("pair-graph"), max_components=3),
    "complex": random_complex_model(random.Random("pair-complex")),
}
PAIR_DRAWS = 6


def test_every_ordered_pair_of_mutations_matches_the_reference():
    """Chains of two mutations are rare in the random draw above; run each one."""
    for first in MUTATIONS:
        for second in MUTATIONS:
            for name, base in PAIR_BASES.items():
                for draw in range(PAIR_DRAWS):
                    rng = random.Random(f"{first.__name__}:{second.__name__}:{name}:{draw}")
                    model = second(rng, first(rng, base))
                    report = sk.validate(model)
                    assert _violations(report) == _violations(validate_by_passes(model)), (
                        first.__name__, second.__name__, name, draw)
                    assert _grouped_by_stratum(model, report), (
                        first.__name__, second.__name__, name, draw)
