"""The model-file and form-document readers that the table-driven reader replaced, kept verbatim.

`skelkit.modelfile.parse_model` tests each component and stratum whole
and builds it directly, and sends only a record that fails through one
reader that checks it against a table of its keys; `load_form` reads a
form document through the same reader.  These references run strict
field-by-field helpers on every field of every record.  Both must return
equal models or forms, or raise `ModelFormatError`s with equal messages
and locations, on every document with a single fault.
"""

import json
from pathlib import Path

from skelkit.errors import DomainError, ModelFormatError
from skelkit.model import FormData, PrimeComponent, SncdModel, Stratum
from skelkit.series import SeriesPair, Support

_COMPONENT_KEYS = {"id", "name", "N", "mu"}
_STRATUM_KEYS = {"id", "vertices", "faces", "touches_zero", "touches_pole", "horizontal"}
_TOP_KEYS = {"kind", "m", "ambient_dim", "components", "strata"}


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


def parse_model(text: str) -> SncdModel:
    doc = _json(text)
    _expect(isinstance(doc, dict), "document must be a JSON object", "top level")
    _keys(doc, _TOP_KEYS, "top level")

    kind = _get(doc, "kind", str, "top level")
    m = _get(doc, "m", int, "top level")
    ambient = _get(doc, "ambient_dim", int, "top level")

    comps = []
    raw_components = _get(doc, "components", list, "top level")
    for i, entry in enumerate(raw_components):
        where = f"components[{i}]"
        _expect(isinstance(entry, dict), "component must be an object", where)
        _keys(entry, _COMPONENT_KEYS, where)
        comps.append(
            PrimeComponent(
                _get(entry, "id", str, where),
                _get(entry, "name", str, where),
                _get(entry, "N", int, where),
                _get(entry, "mu", int, where),
            )
        )

    strata = []
    raw_strata = _get(doc, "strata", list, "top level")
    for i, entry in enumerate(raw_strata):
        where = f"strata[{i}]"
        _expect(isinstance(entry, dict), "stratum must be an object", where)
        _keys(entry, _STRATUM_KEYS, where)
        sid = _get(entry, "id", str, where)
        vertices = _get(entry, "vertices", list, where)
        _expect(
            all(isinstance(v, str) for v in vertices),
            "vertices must be strings",
            f"{where}.vertices",
        )
        faces = _get(entry, "faces", dict, where, default={})
        _expect(
            all(isinstance(k, str) and isinstance(v, str) for k, v in faces.items()),
            "faces must map vertex ids to stratum ids",
            f"{where}.faces",
        )
        horizontal = None
        if "horizontal" in entry:
            horizontal = _parse_horizontal(
                entry["horizontal"], sid, tuple(vertices), f"{where}.horizontal"
            )
        strata.append(
            Stratum(
                sid,
                tuple(vertices),
                dict(faces),
                _get(entry, "touches_zero", bool, where, default=False),
                _get(entry, "touches_pole", bool, where, default=False),
                horizontal,
            )
        )
    return SncdModel(kind, m, ambient, tuple(comps), tuple(strata))


def _parse_horizontal(raw, stratum_id, vertices, where) -> SeriesPair:
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


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(str(exc), str(path)) from None


def load_form(path) -> FormData:
    """Read a form document; its shapes are checked here.

    `model._check_form` checks its ids, degree and flags against a valid model.
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
