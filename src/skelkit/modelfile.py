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
semantic invariants; run validate() on the parsed model for those.  It
makes one pass per record: a component or stratum is tested whole and
built directly, and only a record that fails goes through the strict
field-by-field helpers, which name its first problem and its location.
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
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, ModelFormatError, _echo
from .model import FormData, PrimeComponent, SncdModel, Stratum
from .series import SeriesPair, Support

_COMPONENT_KEYS = {"id", "name", "N", "mu"}
_STRATUM_KEYS = {"id", "vertices", "faces", "touches_zero", "touches_pole", "horizontal"}
_TOP_KEYS = {"kind", "m", "ambient_dim", "components", "strata"}
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


def _expect(cond: bool, message: str, where: str):
    if not cond:
        raise ModelFormatError(message, where)


def _keys(obj: dict, allowed: set, where: str):
    if not obj.keys() <= allowed:
        raise ModelFormatError(f"unknown keys {sorted(obj.keys() - allowed)}", where)


def _get(obj: dict, key: str, kind, where: str, default=_expect):
    if key not in obj:
        if default is not _expect:
            return default
        raise ModelFormatError(f"missing key {key!r}", where)
    value = obj[key]
    # bool is an int subclass; keep the two apart
    if kind is int and isinstance(value, bool):
        raise ModelFormatError(f"key {key!r} must be an integer", where)
    if not isinstance(value, kind):
        raise ModelFormatError(
            f"key {key!r} has type {type(value).__name__}, expected {kind.__name__}",
            where,
        )
    return value


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
    doc = _json(text)
    _expect(isinstance(doc, dict), "document must be a JSON object", "top level")
    _keys(doc, _TOP_KEYS, "top level")
    kind = _get(doc, "kind", str, "top level")
    m = _get(doc, "m", int, "top level")
    ambient = _get(doc, "ambient_dim", int, "top level")
    comps = [_component(e, i) for i, e in enumerate(_get(doc, "components", list, "top level"))]
    strata = [_stratum(e, i) for i, e in enumerate(_get(doc, "strata", list, "top level"))]
    return SncdModel(kind, m, ambient, tuple(comps), tuple(strata))


# json.loads yields exact dict, list, str, int, bool and None, so `type(x) is T`
# tests a parsed value exactly and keeps bool apart from int.
def _component(entry, i: int) -> PrimeComponent:
    """One component, tested whole; a record that fails goes through the strict helpers."""
    if (type(entry) is dict and entry.keys() == _COMPONENT_KEYS
            and type(entry["id"]) is type(entry["name"]) is str
            and type(entry["N"]) is type(entry["mu"]) is int):
        return PrimeComponent(**entry)
    where = f"components[{i}]"
    _expect(isinstance(entry, dict), "component must be an object", where)
    _keys(entry, _COMPONENT_KEYS, where)
    return PrimeComponent(
        _get(entry, "id", str, where),
        _get(entry, "name", str, where),
        _get(entry, "N", int, where),
        _get(entry, "mu", int, where),
    )


def _stratum(entry, i: int) -> Stratum:
    """One stratum, tested whole; a record that fails goes through the strict helpers."""
    if type(entry) is dict and entry.keys() <= _STRATUM_KEYS:
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
    _expect(isinstance(entry, dict), "stratum must be an object", where)
    _keys(entry, _STRATUM_KEYS, where)
    sid = _get(entry, "id", str, where)
    vertices = _get(entry, "vertices", list, where)
    _expect(all(isinstance(v, str) for v in vertices), "vertices must be strings",
            f"{where}.vertices")
    faces = _get(entry, "faces", dict, where, default={})
    _expect(all(isinstance(k, str) and isinstance(v, str) for k, v in faces.items()),
            "faces must map vertex ids to stratum ids", f"{where}.faces")
    horizontal = _parse_horizontal(entry, sid, tuple(vertices), i)
    zero = _get(entry, "touches_zero", bool, where, default=False)
    pole = _get(entry, "touches_pole", bool, where, default=False)
    return Stratum(sid, tuple(vertices), dict(faces), zero, pole, horizontal)


def _parse_horizontal(entry, stratum_id, vertices, i: int) -> SeriesPair | None:
    """The expansion data of stratum i, or None if it has none."""
    if "horizontal" not in entry:
        return None
    raw, where = entry["horizontal"], f"strata[{i}].horizontal"
    _expect(isinstance(raw, dict), "horizontal must be an object", where)
    _keys(raw, {"num", "den"}, where)
    sides = {}
    for side in ("num", "den"):
        vectors = _get(raw, side, list, where)
        _expect(
            all(
                isinstance(beta, list) and all(type(b) is int for b in beta)
                for beta in vectors
            ),
            f"{side} must be a list of integer vectors",
            f"{where}.{side}",
        )
        try:
            sides[side] = Support(
                stratum_id, vertices, frozenset(tuple(beta) for beta in vectors)
            )
        except DomainError as exc:
            raise ModelFormatError(str(exc), f"{where}.{side}") from None
    return SeriesPair(sides["num"], sides["den"])


def load_model(path) -> SncdModel:
    return parse_model(_read(path))


def load_form(path) -> FormData:
    """Read a form document; its shapes are checked here.

    `essential._check_form` checks its ids, degree and flags against a valid model.
    """
    doc, where = _json(_read(path), f"{path}: "), str(path)
    _expect(isinstance(doc, dict), "form document must be a JSON object", where)
    _keys(doc, {"m", "mu", "touches_zero", "touches_pole"}, where)
    m = _get(doc, "m", int, where)
    mu = _get(doc, "mu", dict, where)
    _expect(
        all(isinstance(k, str) and type(v) is int for k, v in mu.items()),
        "key 'mu' must map component ids to integers",
        where,
    )
    flags = {}
    for key in ("touches_zero", "touches_pole"):
        raw = flags[key] = _get(doc, key, dict, where, default={})
        _expect(
            all(isinstance(k, str) and isinstance(v, bool) for k, v in raw.items()),
            f"key {key!r} must map stratum ids to booleans",
            where,
        )
    return FormData(m, mu, **flags)


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
