"""The record contract: what the frozen dataclasses gave, from one plain base."""

import copy
import dataclasses
import os
import pickle
import pprint
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import skelkit as sk
from skelkit._record import Record
from conftest import bundled_path

_NUM = sk.Support("e", ("A", "B"), frozenset({(1, 0), (0, 2)}))
_DEN = sk.Support("e", ("A", "B"), frozenset({(0, 0)}))

# record -> (a fresh instance, its field names in declaration order)
RECORDS = {
    sk.PrimeComponent: (lambda: sk.PrimeComponent("A", "a line", 2, 3), ("id", "name", "N", "mu")),
    sk.Stratum: (
        lambda: sk.Stratum("e", ("A", "B"), {"A": "v_B", "B": "v_A"}, True, False,
                           sk.SeriesPair(_NUM, _DEN)),
        ("id", "vertices", "face_map", "touches_zero", "touches_pole", "horizontal"),
    ),
    sk.FormData: (
        lambda: sk.FormData(2, {"A": 1, "B": 3}, {"e": True}),
        ("m", "mu", "touches_zero", "touches_pole"),
    ),
    sk.Violation: (lambda: sk.Violation("kind", "unknown kind 'x'"), ("code", "message")),
    sk.ValidationReport: (
        lambda: sk.ValidationReport((sk.Violation("kind", "unknown kind 'x'"),)),
        ("violations",),
    ),
    sk.SncdModel: (
        lambda: sk.load_model(bundled_path("edge_23")),
        ("kind", "m", "ambient_dim", "components", "strata"),
    ),
    sk.Support: (lambda: sk.Support("e", ["A", "B"], [[1, 0], (0, 2)]),
                 ("stratum", "vertices", "exponents")),
    sk.SeriesPair: (lambda: sk.SeriesPair(_NUM, _DEN), ("num", "den")),
    sk.AlphaVector: (lambda: sk.AlphaVector("e", {"A": F(1, 4), "B": 1}), ("stratum", "alpha")),
    sk.BarycentricPoint: (lambda: sk.BarycentricPoint("e", {"A": F(1, 2), "B": 0.5}),
                          ("stratum", "w")),
    sk.PointSpec: (lambda: sk.PointSpec("e", {"A": 2, "B": 0}), ("center", "values")),
    sk.BlowupStep: (
        lambda: sk.BlowupStep("e", ("A", "B"), 2, "exc1", {"e": {("A",): "f_exc1_A"}}),
        ("center_stratum", "center_vertices", "codim", "new_vertex", "replacements"),
    ),
    sk.BlowupTrace: (
        lambda: sk.blowup_stratum(sk.load_model(bundled_path("edge_23")), "e_A_B")[2],
        ("steps", "pullback"),
    ),
    sk.Subcomplex: (lambda: sk.Subcomplex(frozenset({"v_A", "e"})), ("strata",)),
}
HASHABLE = {sk.PrimeComponent, sk.Violation, sk.ValidationReport, sk.Support, sk.SeriesPair,
            sk.Subcomplex}
# record -> its construction from the required fields alone, and the defaulted fields
DEFAULTS = {
    sk.Stratum: (lambda: sk.Stratum("v_A", ("A",)), ("face_map",)),
    sk.FormData: (lambda: sk.FormData(1, {"A": 1}), ("touches_zero", "touches_pole")),
    sk.BlowupStep: (lambda: sk.BlowupStep("e", ("A", "B"), 2, "exc1"), ("replacements",)),
    sk.BlowupTrace: (sk.BlowupTrace, ("steps", "pullback")),
}


def _values(record):
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def test_the_contract_covers_every_record():
    assert len(RECORDS) == 14 and all(issubclass(cls, Record) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_keeps_the_frozen_dataclass_contract(cls):
    build, names = RECORDS[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert tuple(f.name for f in dataclasses.fields(a)) == names
    assert dataclasses.is_dataclass(a)

    twin = dataclasses.make_dataclass(cls.__name__, names)(*_values(a))
    assert repr(a) == repr(twin)

    assert a == b and not a != b
    assert a != twin and not a == twin
    other = type("Other", (Record,), {"__slots__": names})
    same = object.__new__(other)
    for name, value in zip(names, _values(a)):
        object.__setattr__(same, name, value)
    assert a != same and not a == same and same != a
    changed = copy.copy(a)
    object.__setattr__(changed, names[0], "changed")
    assert changed != a and not changed == a

    if cls in HASHABLE:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b

    for again in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(again) is cls and again == a
    assert dataclasses.replace(a) == a == a.replace()

    values = _values(a)
    assert cls(**dict(zip(names, values))) == cls(*values) == a
    wrong = [lambda: cls(*values, "one too many"), lambda: cls(*values[:-1], extra=1),
             lambda: cls(*values, **{names[0]: values[0]})]
    if cls is not sk.BlowupTrace:  # the one record whose every field has a default
        wrong.append(cls)
    for call in wrong:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\b"):
            call()


@pytest.mark.parametrize("cls", DEFAULTS, ids=lambda cls: cls.__name__)
def test_a_mutable_default_is_fresh_per_instance(cls):
    build, defaulted = DEFAULTS[cls]
    a, b = build(), build()
    for name in defaulted:
        assert getattr(a, name) == getattr(b, name) and not getattr(a, name)
        assert getattr(a, name) is not getattr(b, name)
        assert getattr(a.replace(**{name: None}), name) is None  # stored as given


def test_the_converting_constructors_copy_their_input():
    exponents = [[1, 0], [0, 2]]
    s = sk.Support("e", ["A", "B"], exponents)
    assert s.vertices == ("A", "B") and s.exponents == frozenset({(1, 0), (0, 2)})
    alpha = {"A": 1, "B": F(1, 2)}
    for point, coords in (
        (sk.AlphaVector("e", alpha), "alpha"),
        (sk.BarycentricPoint("e", alpha), "w"),
        (sk.PointSpec("e", alpha), "values"),
    ):
        assert getattr(point, coords) is not alpha
        assert all(type(v) is F for v in getattr(point, coords).values())
    model = sk.load_model(bundled_path("edge_23"))
    shuffled = sk.SncdModel(model.kind, model.m, model.ambient_dim,
                            model.components[::-1], model.strata[::-1])
    assert shuffled == model


@pytest.mark.parametrize("build, message", [
    (lambda: sk.Support("e", ("A", "B"), frozenset()),
     "support must contain at least one exponent vector"),
    (lambda: sk.Support("e", ("A", "B"), {(1,)}), "exponent vector (1,) has length 1, expected 2"),
    (lambda: sk.Support("e", ("A",), {(-1,)}),
     "exponent vector (-1,) has a non-integer or negative entry"),
    (lambda: sk.Support("e", ("A",), {(F(1, 2),)}),
     "exponent vector (Fraction(1, 2),) has a non-integer or negative entry"),
    (lambda: sk.SeriesPair(_NUM, sk.Support("f", ("A", "B"), {(0, 0)})),
     "numerator and denominator live on different strata"),
    (lambda: sk.SeriesPair(_NUM, sk.Support("e", ("B", "A"), {(0, 0)})),
     "numerator and denominator live on different strata"),
    (lambda: sk.AlphaVector("e", {"A": -1, "B": 1}), "alpha entries must be nonnegative"),
    (lambda: sk.AlphaVector("e", {"A": 0}), "alpha must have at least one positive entry"),
])
def test_the_checking_constructors_keep_their_messages(build, message):
    with pytest.raises(sk.DomainError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_pprint_prints_a_record_wider_than_the_line_by_its_repr(cls):
    record = RECORDS[cls][0]()
    assert pprint.pformat(record, width=20) == repr(record)


def _in_a_fresh_interpreter(*lines):
    """Run a script in a new process, whose class attributes no test has cached yet."""
    script = "\n".join(["import skelkit as sk", *lines, "print('ok')"])
    path = [str(Path(sk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_the_cli_imports_no_dataclasses_and_replace_still_works():
    # what bench/cli_corpus.py does to build its mutated models
    _in_a_fresh_interpreter(
        "import sys",
        "import skelkit.cli",
        "assert not {'dataclasses', 'inspect'} & set(sys.modules), sorted(sys.modules)",
        "import dataclasses",
        f"model = sk.load_model({str(bundled_path('edge_23'))!r})",
        "s, c = model.stratum('e_A_B'), model.component('A')",
        "t = dataclasses.replace(s, face_map={'A': 'v_B'})",
        "d = dataclasses.replace(c, N=0)",
        "assert (t.id, t.vertices, t.face_map) == (s.id, s.vertices, {'A': 'v_B'})",
        "assert (d.id, d.name, d.N, d.mu) == (c.id, c.name, 0, c.mu)",
        "assert type(t) is sk.Stratum and type(d) is sk.PrimeComponent",
    )


def test_asking_dataclasses_about_the_base_leaves_each_record_its_fields():
    _in_a_fresh_interpreter(
        "import dataclasses",
        "from skelkit._record import Record",
        "assert dataclasses.is_dataclass(Record) and dataclasses.fields(Record) == ()",
        "s = sk.Stratum('v_A', ('A',))",
        "assert [f.name for f in dataclasses.fields(s)] == ["
        "    'id', 'vertices', 'face_map', 'touches_zero', 'touches_pole', 'horizontal']",
        "assert dataclasses.replace(s, touches_zero=True) == s.replace(touches_zero=True)",
    )
