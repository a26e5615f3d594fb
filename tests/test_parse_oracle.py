"""parse_model and load_form against the strict-helper references, one mutation a document.

Each example writes a bundled or random `complexes` model as a document,
sometimes gives one stratum valid expansion data, and makes one change:
a key dropped or added, a value swapped for one of another type (`true`
for `1` and back included), a vertex, face key or face value that is not
a string, an entry that is not an object, `"horizontal": null` or a
boolean exponent.  The one-pass parser must return the model the
reference returns, or raise a `ModelFormatError` with the same text.

Form documents are built from the `mu` and flags of the same models and
get one change each: a key dropped or added, a value swapped for one of
another type, `true` for `1` and back, a `mu` value that is not an
integer, a flag that is not a boolean, or a document that is not an
object.  `load_form` must return the reference's `FormData` or message.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import skelkit as sk
from skelkit.modelfile import load_form
import parse_oracle
from conftest import BUNDLED_NAMES, load_bundled, random_complex_model, random_graph_model

BUNDLED = {name: load_bundled(name) for name in BUNDLED_NAMES}
VALUES = [True, False, 0, 1, 2, -1, 1.5, "1", "true", "", None, [], ["A"], {}, {"A": "v_A"}]
NOT_STRINGS = [1, 0, True, False, None, 1.5, [], ["A"], {}]


def _document(rng):
    pick = rng.randrange(3)
    if pick == 0:
        model = BUNDLED[rng.choice(BUNDLED_NAMES)]
    else:
        model = (random_complex_model if pick == 1 else random_graph_model)(rng)
    doc = json.loads(sk.serialize_model(model))
    if rng.random() < 0.4:
        s = rng.choice(doc["strata"])
        r = len(s["vertices"])
        s["horizontal"] = {"num": [[rng.randint(0, 2) for _ in range(r)]], "den": [[0] * r]}
    return doc


def _record(rng, doc):
    """The top level, a component, a stratum or an expansion, each kind equally likely."""
    kinds = [[doc], doc["components"], doc["strata"],
             [s["horizontal"] for s in doc["strata"] if "horizontal" in s]]
    return rng.choice(rng.choice([kind for kind in kinds if kind]))


def drop_key(rng, doc):
    record = _record(rng, doc)
    if record:
        del record[rng.choice(sorted(record))]


def add_key(rng, doc):
    _record(rng, doc)[rng.choice(["color", "Id", "face", ""])] = rng.choice(VALUES)


def swap_type(rng, doc):
    record = _record(rng, doc)
    if record:
        key = rng.choice(sorted(record))
        record[key] = rng.choice([v for v in VALUES if type(v) is not type(record[key])])


def swap_bool_and_int(rng, doc):
    """true <-> 1 and false <-> 0 on an integer or boolean value."""
    record = _record(rng, doc)
    keys = sorted(k for k, v in record.items() if type(v) in (bool, int))
    if keys:
        key = rng.choice(keys)
        value = record[key]
        record[key] = int(value) if type(value) is bool else bool(value)


def bad_vertex(rng, doc):
    s = rng.choice(doc["strata"])
    s["vertices"][rng.randrange(len(s["vertices"]))] = rng.choice(NOT_STRINGS)


def bad_face(rng, doc):
    with_faces = [s for s in doc["strata"] if s.get("faces")]
    if not with_faces:
        return
    faces = rng.choice(with_faces)["faces"]
    key = rng.choice(sorted(faces))
    if rng.random() < 0.7:
        faces[key] = rng.choice(NOT_STRINGS)
    else:  # json.dumps writes such a key as a string
        faces[rng.choice([1, True, None])] = faces.pop(key)


def bad_entry(rng, doc):
    entries = doc[rng.choice(["components", "strata"])]
    bad = rng.choice(["A", 1, True, None, [], [{"id": "A"}]])
    if entries:
        entries[rng.randrange(len(entries))] = bad
    else:
        entries.append(bad)


def null_horizontal(rng, doc):
    rng.choice(doc["strata"])["horizontal"] = None


def bool_exponent(rng, doc):
    s = rng.choice(doc["strata"])
    r = len(s["vertices"])
    vector = [rng.randint(0, 2) for _ in range(r)]
    vector[rng.randrange(r)] = rng.choice([True, False])
    sides = [[vector], [[0] * r]]
    rng.shuffle(sides)
    s["horizontal"] = dict(zip(["num", "den"], sides))


MUTATIONS = [drop_key, add_key, swap_type, swap_bool_and_int, bad_vertex, bad_face, bad_entry,
             null_horizontal, bool_exponent]


def _outcome(parse, text):
    try:
        return parse(text)
    except sk.ModelFormatError as exc:
        return ("ModelFormatError", str(exc))


@settings(max_examples=500, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(MUTATIONS))
def test_parse_matches_the_strict_helper_reference(rng, mutate):
    doc = _document(rng)
    mutate(rng, doc)
    text = json.dumps(doc, indent=rng.choice([None, 2]))
    assert _outcome(sk.parse_model, text) == _outcome(parse_oracle.parse_model, text)


def _form_document(rng):
    """The m, mu and flags of a model document, leaving out some flags or a whole flag map."""
    model = _document(rng)
    doc = {"m": model["m"], "mu": {c["id"]: c["mu"] for c in model["components"]}}
    for flag in ("touches_zero", "touches_pole"):
        if rng.random() < 0.7:
            doc[flag] = {s["id"]: s[flag] for s in model["strata"] if rng.random() < 0.8}
    return doc


def form_drop_key(rng, doc):
    del doc[rng.choice(sorted(doc))]


def form_add_key(rng, doc):
    doc[rng.choice(["color", "M", "touches", ""])] = rng.choice(VALUES)


def form_swap_type(rng, doc):
    key = rng.choice(sorted(doc))
    doc[key] = rng.choice([v for v in VALUES if type(v) is not type(doc[key])])


def _form_values(doc):
    """(map, key) of m and of every mu value and flag."""
    return [(doc, "m")] + [(doc[k], i) for k in ("mu", "touches_zero", "touches_pole")
                           if k in doc for i in sorted(doc[k])]


def form_swap_bool_and_int(rng, doc):
    """true <-> 1 and false <-> 0 on m, a mu value or a flag."""
    record, key = rng.choice(_form_values(doc))
    value = record[key]
    record[key] = int(value) if type(value) is bool else bool(value)


def form_bad_mu(rng, doc):
    doc["mu"][rng.choice([*doc["mu"], "X"])] = rng.choice([1.5, "1", None, True, False, [], {}])


def form_bad_flag(rng, doc):
    flags = doc.setdefault(rng.choice(["touches_zero", "touches_pole"]), {})
    flags[rng.choice([*flags, "s_X"])] = rng.choice([0, 1, 1.5, "true", None, [], {}])


def form_not_object(rng, doc):
    return rng.choice([[], [doc], "form", 1, 1.5, True, None])


FORM_MUTATIONS = [form_drop_key, form_add_key, form_swap_type, form_swap_bool_and_int,
                  form_bad_mu, form_bad_flag, form_not_object]


@pytest.fixture(scope="module")
def form_path(tmp_path_factory):
    return tmp_path_factory.mktemp("forms") / "form.json"


@settings(max_examples=500, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(FORM_MUTATIONS))
def test_load_form_matches_the_strict_helper_reference(form_path, rng, mutate):
    doc = _form_document(rng)
    doc = mutate(rng, doc) or doc
    form_path.write_text(json.dumps(doc, indent=rng.choice([None, 2])))
    assert _outcome(load_form, form_path) == _outcome(parse_oracle.load_form, form_path)
