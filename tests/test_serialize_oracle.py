"""serialize_model against the `json.dumps(indent=2)` reference, byte for byte.

Each example takes a bundled or random `complexes` model, blows it up a
few times and then adds expansion data, empties, face-less or vertex-less
strata, and ids and names full of characters JSON must escape.  The
hand-laid serializer must write exactly the text the reference writes,
and parsing that text must give the model back.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import skelkit as sk
from conftest import BUNDLED_NAMES, load_bundled, random_complex_model, random_graph_model
from serialize_oracle import serialize_model as serialize_by_dumps

BUNDLED = {name: load_bundled(name) for name in BUNDLED_NAMES}
ESCAPED = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "\U0001d11e"])
LABELS = st.lists(st.text(st.one_of(ESCAPED, st.characters()), max_size=4), min_size=1)


def _base(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return BUNDLED[rng.choice(BUNDLED_NAMES)]
    return random_complex_model(rng) if pick == 1 else random_graph_model(rng)


def blow_up(rng, model):
    """A stratum or point blow-up on a random maximal stratum."""
    s = rng.choice([s for s in model.strata if sk.is_maximal(model, s.id)])
    center = tuple(rng.sample(s.vertices, rng.randint(1, s.r)))
    try:
        if len(center) < model.ambient_dim and rng.random() < 0.5:
            codim = rng.randint(len(center) + 1, model.ambient_dim)
            return sk.blowup_point(model, s.id, center, codim)[0]
        return sk.blowup_stratum(model, s.id)[0]
    except sk.DomainError:
        return model


def horizontal(rng, model):
    """Expansion data, booleans among the exponents included, on a random stratum."""
    if not model.strata:
        return model
    s = rng.choice(model.strata)

    def support():
        vectors = {
            tuple(rng.choice([0, 1, 2, 17, True, False]) for _ in s.vertices)
            for _ in range(rng.randint(1, 3))
        }
        return sk.Support(s.id, s.vertices, frozenset(vectors))

    pair = sk.SeriesPair(support(), support())
    stratum = sk.Stratum(s.id, s.vertices, s.face_map, s.touches_zero, s.touches_pole, pair)
    return model.replace(strata=tuple(stratum if t is s else t for t in model.strata))


def flip_flags(rng, model):
    return model.replace(strata=tuple(
        sk.Stratum(s.id, s.vertices, s.face_map, rng.random() < 0.5, rng.random() < 0.5,
                   s.horizontal)
        for s in model.strata
    ))


def no_faces(rng, model):
    return model.replace(strata=tuple(
        sk.Stratum(s.id, s.vertices, {}, s.touches_zero, s.touches_pole, s.horizontal)
        if rng.random() < 0.5 else s
        for s in model.strata
    ))


def no_vertices(rng, model):
    face_map = {"A": rng.choice(model.strata).id} if model.strata and rng.random() < 0.5 else {}
    pair = None
    if rng.random() < 0.5:
        support = sk.Support("z", (), frozenset({()}))
        pair = sk.SeriesPair(support, support)
    return model.replace(strata=model.strata + (sk.Stratum("z", (), face_map, horizontal=pair),))


def no_components(rng, model):
    return model.replace(components=())


def no_strata(rng, model):
    return model.replace(strata=())


CHANGES = [horizontal, flip_flags, no_faces, no_vertices, no_components, no_strata]


def relabel(rng, model, labels):
    """Every id and name prefixed with a random label, ids renamed consistently."""
    ids = sorted({c.id for c in model.components} | {s.id for s in model.strata})
    new = {x: rng.choice(labels) + x for x in ids}

    def renamed(s):
        """The stratum's expansion data, kept on the renamed stratum and vertices."""
        if s.horizontal is None:
            return None
        vertices = tuple(new.get(v, v) for v in s.vertices)
        return sk.SeriesPair(*(
            sk.Support(new[s.id], vertices, side.exponents)
            for side in (s.horizontal.num, s.horizontal.den)
        ))

    return sk.SncdModel(
        rng.choice(labels) + model.kind,
        model.m,
        model.ambient_dim,
        tuple(
            sk.PrimeComponent(new[c.id], rng.choice(labels) + c.name, c.N, c.mu)
            for c in model.components
        ),
        tuple(
            sk.Stratum(
                new[s.id],
                tuple(new.get(v, v) for v in s.vertices),
                {new.get(v, v): new.get(t, t) for v, t in s.face_map.items()},
                s.touches_zero,
                s.touches_pole,
                renamed(s),
            )
            for s in model.strata
        ),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(0, 3),
    st.lists(st.sampled_from(CHANGES), max_size=3),
    st.none() | LABELS,
)
def test_serialize_matches_the_json_dumps_reference(rng, blowups, changes, labels):
    model = _base(rng)
    for _ in range(blowups):
        model = blow_up(rng, model)
    for change in changes:
        model = change(rng, model)
    if labels is not None:
        model = relabel(rng, model, labels)
    text = sk.serialize_model(model)
    assert text == serialize_by_dumps(model)
    # boolean exponents are written as true/false, which model files refuse
    if any(
        type(b) is bool
        for s in model.strata if s.horizontal is not None
        for side in (s.horizontal.num, s.horizontal.den) for beta in side.exponents for b in beta
    ):
        with pytest.raises(sk.ModelFormatError, match="integer vectors"):
            sk.parse_model(text)
    else:
        assert sk.parse_model(text) == model


def test_serialize_never_enters_the_pure_python_encoder(monkeypatch):
    ids = [f"C{i}" for i in range(1200)]
    cycle = sk.cycle_model(sk.KIND_SNCD, 1, [(v, v, 1, 1 + i % 2) for i, v in enumerate(ids)])
    expected = serialize_by_dumps(cycle)

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was entered")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert sk.serialize_model(cycle) == expected
