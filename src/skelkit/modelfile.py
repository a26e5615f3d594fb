"""Reading and writing model documents.

A model document is a JSON object with keys kind, m, ambient_dim,
components and strata.  Components carry id, name, N, mu; strata carry
id, vertices, an optional faces map (vertex -> stratum id of the face
without that vertex), optional touches_zero / touches_pole flags and an
optional horizontal expansion {num: [[...]], den: [[...]]} whose
exponent vectors follow the stratum's vertex order.

A form document (`load_form`) is a JSON object with an integer m, an
mu map from component id to integer and optional touches_zero /
touches_pole maps from stratum id to bool.

Parsing is strict about shapes (wrong types, unknown keys and malformed
exponents are format errors with a location) but does not check the
semantic invariants; run validate() on the parsed model for those.  Each
kind of record has one table of its keys' types and defaults, and one
reader, `_fields`, checks a record against its table and names its first
problem.  A component or stratum is first tested whole in one pass and
built directly; only a record that fails goes through the reader.
Serialization is canonical: ids sorted, keys in a fixed order, so equal
models produce byte-identical documents.  The layout is exactly what
json.dumps writes with an indent of 2, plus a trailing newline.  The
standard library lays out indented JSON only in its pure-Python encoder,
so serialize_model writes this fixed layout by hand, one template per
component and stratum, around the C string escaper.
"""

from __future__ import annotations

import json
import sys
from copy import copy
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, ModelFormatError, _echo, _ids
from .model import FormData, PrimeComponent, SncdModel, Stratum
from .series import SeriesPair, Support

_q = json.encoder.encode_basestring_ascii  # the C string escaper json.dumps uses
_ITEM = ",\n        "  # between the items of a stratum's vertex list or face map


def parse_fraction(text: str) -> Fraction:
    """Parse a rational written as "p/q", as an integer or as a plain decimal."""
    try:
        if "e" in text.lower():  # Fraction("1e9999999") would build 10**9999999
            raise ValueError("exponent notation is not accepted")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        reason = str(exc).split(":")[0]  # its tail repeats the text
        raise DomainError(f"not a rational number: {_echo(text)} ({reason})") from None


def format_fraction(q: Fraction) -> str:
    try:
        return str(q)
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise _too_long() from None


def _too_long() -> DomainError:
    limit = sys.get_int_max_str_digits()
    return DomainError(f"the result has an integer past the interpreter's {limit}-digit limit")


# Each kind of record maps a key to (type,) if a record must have it and to (type, default)
# if it may leave it out; a record without the key gets its own copy of the default.  Keys
# are listed in the order their problems are reported.
_TOP = {"kind": (str,), "m": (int,), "ambient_dim": (int,), "components": (list,),
        "strata": (list,)}
_COMPONENT = {"id": (str,), "name": (str,), "N": (int,), "mu": (int,)}
_STRATUM = {"id": (str,), "vertices": (list,), "faces": (dict, {}), "touches_zero": (bool, False),
            "touches_pole": (bool, False), "horizontal": (object, None)}  # see _parse_horizontal
_EXPANSION = {"num": (list,), "den": (list,)}
_FORM = {"m": (int,), "mu": (dict,), "touches_zero": (dict, {}), "touches_pole": (dict, {})}


def _fields(record, table: dict, where: str, not_object: str) -> list:
    """A record's values in table order, or the ModelFormatError of its first problem."""
    if type(record) is not dict:
        raise ModelFormatError(not_object, where)
    if not record.keys() <= table.keys():
        raise ModelFormatError(f"unknown keys {_ids(record.keys() - table.keys())}", where)
    values = []
    for key, (kind, *default) in table.items():
        if key not in record and not default:
            raise ModelFormatError(f"missing key {key!r}", where)
        value = record[key] if key in record else copy(default[0])
        if kind is int and type(value) is bool:  # bool is an int subclass; keep them apart
            raise ModelFormatError(f"key {key!r} must be an integer", where)
        if not isinstance(value, kind):
            got = type(value).__name__
            raise ModelFormatError(f"key {key!r} has type {got}, expected {kind.__name__}", where)
        values.append(value)
    return values


def _json(text: str, prefix: str = ""):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            exc.msg, f"{prefix}line {exc.lineno} column {exc.colno}"
        ) from None
    except (RecursionError, ValueError) as exc:  # deep nesting, an int past the digit limit
        raise ModelFormatError(str(exc).split(":")[0], f"{prefix}top level") from None


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(str(exc), str(path)) from None


def parse_model(text: str) -> SncdModel:
    top = _fields(_json(text), _TOP, "top level", "document must be a JSON object")
    kind, m, ambient, comps, strata = top
    comps = [_component(e, i) for i, e in enumerate(comps)]
    strata = [_stratum(e, i) for i, e in enumerate(strata)]
    return SncdModel(kind, m, ambient, tuple(comps), tuple(strata))


# json.loads yields exact dict, list, str, int, bool and None, so `type(x) is T`
# tests a parsed value exactly and keeps bool apart from int.
def _component(entry, i: int) -> PrimeComponent:
    """One component, tested whole; a record that fails goes through the reader."""
    if (type(entry) is dict and entry.keys() == _COMPONENT.keys()
            and type(entry["id"]) is type(entry["name"]) is str
            and type(entry["N"]) is type(entry["mu"]) is int):
        return PrimeComponent(entry["id"], entry["name"], entry["N"], entry["mu"])
    where = f"components[{i}]"
    return PrimeComponent(*_fields(entry, _COMPONENT, where, "component must be an object"))


def _stratum(entry, i: int) -> Stratum:
    """One stratum, tested whole; a record that fails goes through the reader."""
    if type(entry) is dict and entry.keys() <= _STRATUM.keys():
        sid, vertices, faces = entry.get("id"), entry.get("vertices"), entry.get("faces", {})
        zero, pole = entry.get("touches_zero", False), entry.get("touches_pole", False)
        if (type(sid) is str and type(vertices) is list and type(faces) is dict
                and type(zero) is type(pole) is bool):
            try:
                "".join([*vertices, *faces, *faces.values()])  # raises unless all are strings
            except TypeError:
                pass
            else:
                vertices = tuple(vertices)
                horizontal = _parse_horizontal(entry, sid, vertices, i)
                return Stratum(sid, vertices, faces, zero, pole, horizontal)
    where = f"strata[{i}]"
    fields = _fields(entry, _STRATUM, where, "stratum must be an object")
    sid, vertices, faces, zero, pole, _ = fields
    if not all(type(v) is str for v in vertices):
        raise ModelFormatError("vertices must be strings", f"{where}.vertices")
    if not all(type(k) is type(v) is str for k, v in faces.items()):
        raise ModelFormatError("faces must map vertex ids to stratum ids", f"{where}.faces")
    vertices = tuple(vertices)
    return Stratum(sid, vertices, faces, zero, pole, _parse_horizontal(entry, sid, vertices, i))


def _parse_horizontal(entry, stratum_id, vertices, i: int) -> SeriesPair | None:
    """The expansion data of stratum i, or None if it has none."""
    if "horizontal" not in entry:
        return None
    where = f"strata[{i}].horizontal"
    sides = _fields(entry["horizontal"], _EXPANSION, where, "horizontal must be an object")
    supports = []
    for side, vectors in zip(_EXPANSION, sides):
        if not all(type(beta) is list and all(type(b) is int for b in beta) for beta in vectors):
            raise ModelFormatError(f"{side} must be a list of integer vectors", f"{where}.{side}")
        try:
            supports.append(Support(stratum_id, vertices, frozenset(map(tuple, vectors))))
        except DomainError as exc:
            raise ModelFormatError(str(exc), f"{where}.{side}") from None
    return SeriesPair(*supports)


def load_model(path) -> SncdModel:
    return parse_model(_read(path))


def load_form(path) -> FormData:
    """Read a form document; its shapes are checked here.

    `essential._check_form` checks its ids, degree and flags against a valid model.
    """
    where = str(path)
    doc = _json(_read(path), f"{path}: ")
    m, mu, zero, pole = _fields(doc, _FORM, where, "form document must be a JSON object")
    # JSON object keys are strings, so only the values need a test
    if not all(type(v) is int for v in mu.values()):
        raise ModelFormatError("key 'mu' must map component ids to integers", where)
    for key, flags in (("touches_zero", zero), ("touches_pole", pole)):
        if not all(type(v) is bool for v in flags.values()):
            raise ModelFormatError(f"key {key!r} must map stratum ids to booleans", where)
    return FormData(m, mu, zero, pole)


def _num(x) -> str:
    """An int or a bool as json.dumps writes it."""
    try:
        return ("false", "true")[x] if x.__class__ is bool else int.__repr__(x)
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise _too_long() from None


def _block(open_: str, lines, close: str, pad: str) -> str:
    """A container of rendered items, one a line, closed at indentation pad."""
    if not lines:
        return open_ + close
    inner = "\n  " + pad
    return open_ + inner + ("," + inner).join(lines) + "\n" + pad + close


def _vectors(support: Support) -> str:
    rows = [
        _block("[", [_num(x) for x in b], "]", " " * 10) for b in sorted(support.exponents)
    ]
    return _block("[", rows, "]", " " * 8)


def serialize_model(model: SncdModel) -> str:
    comps = [
        f'{{\n      "id": {_q(c.id)},\n      "name": {_q(c.name)},\n'
        f'      "N": {_num(c.N)},\n      "mu": {_num(c.mu)}\n    }}'
        for c in model.components
    ]
    strata = []
    for s in model.strata:
        vertices = f"[\n        {_ITEM.join(map(_q, s.vertices))}\n      ]" if s.vertices else "[]"
        text = (
            f'{{\n      "id": {_q(s.id)},\n      "vertices": {vertices},\n'
            f'      "touches_zero": {_num(s.touches_zero)},\n'
            f'      "touches_pole": {_num(s.touches_pole)}'
        )
        if fm := s.face_map:
            faces = _ITEM.join([f"{_q(v)}: {_q(fm[v])}" for v in sorted(fm)])
            text += f',\n      "faces": {{\n        {faces}\n      }}'
        if (h := s.horizontal) is not None:
            text += (
                f',\n      "horizontal": {{\n        "num": {_vectors(h.num)},\n'
                f'        "den": {_vectors(h.den)}\n      }}'
            )
        strata.append(text + "\n    }")
    top = [
        f'"kind": {_q(model.kind)}',
        f'"m": {_num(model.m)}',
        f'"ambient_dim": {_num(model.ambient_dim)}',
        '"components": ' + _block("[", comps, "]", "  "),
        '"strata": ' + _block("[", strata, "]", "  "),
    ]
    return _block("{", top, "}", "") + "\n"


def save_model(model: SncdModel, path) -> None:
    Path(path).write_text(serialize_model(model))
