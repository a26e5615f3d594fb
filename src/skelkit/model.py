"""Weighted dual complexes of strict normal crossings models.

A model is described by its prime components (each carrying a
multiplicity N in the special fiber and an integer weight datum mu) and
by its strata: the connected components of intersections of the prime
components, organized as a simplicial set via explicit face maps.  Two
distinct strata may share the same vertex set (a cycle of two lines
meeting twice is the standard example), which is why the face structure
is data rather than something recomputed from vertex sets.

All numerical data is exact: multiplicities are integers and every
derived quantity downstream is a `fractions.Fraction`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from itertools import filterfalse
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from ._record import Record
from .errors import DomainError, _echo, _ids
from .series import _antichain

KIND_SNCD = "sncd-over-dvr"
KIND_LOG_RESOLUTION = "log-resolution"
KNOWN_KINDS = (KIND_SNCD, KIND_LOG_RESOLUTION)

# the stable codes of validate's violations
CODE_KIND = "kind"
CODE_FORM_DEGREE = "form-degree"
CODE_AMBIENT_DIM = "ambient-dim"
CODE_DUPLICATE_ID = "duplicate-id"
CODE_COMPONENT_MULTIPLICITY = "component-multiplicity"
CODE_MISSING_SINGLETON = "missing-singleton"
CODE_STRATUM_SIZE = "stratum-size"
CODE_UNKNOWN_COMPONENT = "unknown-component"
CODE_FACE_MAP_MISMATCH = "face-map mismatch"
CODE_FACE_MAP_MISSING = "face-map-missing"
CODE_FLAG_MONOTONICITY = "flag monotonicity"
CODE_SIMPLICIAL_IDENTITY = "simplicial-identity"
CODE_HORIZONTAL_CONSISTENCY = "horizontal-consistency"

_by_id = attrgetter("id")


class PrimeComponent(Record):
    """A prime component of the special fiber (or of the pulled-back divisor).

    N is the multiplicity of the component (positive), mu the integer
    weight datum attached to it; mu - m is the multiplicity of the
    component in the divisor of the tracked pluricanonical form.
    """

    __slots__ = ("id", "name", "N", "mu")


class Stratum(Record):
    """A connected component of an intersection of prime components.

    vertices lists the component ids whose intersection this stratum
    refines, in a fixed order; exponent vectors and alpha tuples use
    that order.  face_map sends each vertex j to the id of the stratum
    with vertex set vertices minus {j}; it is required whenever the
    stratum has two or more vertices.  horizontal is the stratum's
    expansion data, a `series.SeriesPair` written on this stratum's id
    and vertices in their order (a model refuses any other), or None.
    """

    __slots__ = ("id", "vertices", "face_map", "touches_zero", "touches_pole", "horizontal")
    _defaults = {"face_map": {}, "touches_zero": False, "touches_pole": False, "horizontal": None}

    @property
    def r(self) -> int:
        return len(self.vertices)


class FormData(Record):
    """Weight data of one form overlaid on a model.

    mu must cover every component; flag maps may be partial (missing
    strata default to off) but must satisfy the same monotonicity as
    stratum flags: a face of a stratum with a flag off has it off too.
    `_check_form` checks a form's ids, degree and flags against a valid
    model; `SncdModel._form` is a model's own data as a form.
    """

    __slots__ = ("m", "mu", "touches_zero", "touches_pole")
    _defaults = {"touches_zero": {}, "touches_pole": {}}


class Violation(Record):
    """One validation failure: a stable code plus a readable message."""

    __slots__ = ("code", "message")

    def __str__(self):
        return f"{self.code}: {self.message}"


class ValidationReport(Record):
    __slots__ = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


class SncdModel(Record):
    """The combinatorial shadow of an snc model.

    kind is "sncd-over-dvr" for models of a variety over a discretely
    valued field (m-pluricanonical weights) or "log-resolution" for log
    resolutions of a pair (then m = 1 and mu - 1 is the discrepancy).

    Components and strata are stored sorted by id so that equal models
    compare equal and serialization is deterministic regardless of
    construction order.  Building one raises DomainError, naming the stratum, unless
    its vertices are a tuple and its expansion is written on its id and vertices,
    in their order.  The instance dict holds the lazy id maps, coface index and form.
    """

    __slots__ = ("kind", "m", "ambient_dim", "components", "strata", "__dict__")

    def __init__(
        self, kind: str, m: int, ambient_dim: int,
        components: tuple[PrimeComponent, ...], strata: tuple[Stratum, ...],
    ):
        components, strata = sorted(components, key=_by_id), sorted(strata, key=_by_id)
        for s in strata:
            if not isinstance(s.vertices, tuple):
                raise DomainError(f"stratum {s.id!r}: its vertices must be a tuple")
            if s.horizontal is not None:
                f = s.horizontal.num  # SeriesPair ties den to num
                if f.stratum != s.id or f.vertices != s.vertices:
                    raise DomainError(f"stratum {s.id!r}: its expansion is written on "
                                      f"{f.stratum!r} {f.vertices}, not on {s.id!r} {s.vertices}")
        Record.__init__(self, kind, m, ambient_dim, tuple(components), tuple(strata))

    @cached_property
    def _components_by_id(self) -> dict[str, PrimeComponent]:
        return {c.id: c for c in self.components}

    @cached_property
    def _strata_by_id(self) -> dict[str, Stratum]:
        return {s.id: s for s in self.strata}

    @cached_property
    def _coface_index(self) -> dict[str, frozenset[str]]:
        """Stratum id -> ids of the strata whose face maps point at it.

        Built in one pass on the first coface query, not at construction.
        """
        index: dict[str, set[str]] = {}
        for s in self.strata:
            for fid in s.face_map.values():
                index.setdefault(fid, set()).add(s.id)
        return {fid: frozenset(up) for fid, up in index.items()}

    @cached_property
    def _form(self) -> FormData:
        """The model's m, mu and flags as a form, built on first use; a flag map also
        covers each expansion that bends as the flag would, with its cofaces."""
        flags = ("touches_zero", "touches_pole")
        on = {flag: {s.id: True for s in self.strata if getattr(s, flag)} for flag in flags}
        for s in filter(attrgetter("horizontal"), self.strata):  # those with expansion data
            for flag, ids in on.items():
                if not getattr(s, flag) and _bends(s, flag):
                    ids.update(dict.fromkeys(cofaces(self, s.id), True))
        return FormData(self.m, {c.id: c.mu for c in self.components}, **on)

    def component(self, comp_id: str) -> PrimeComponent:
        try:
            return self._components_by_id[comp_id]
        except KeyError:
            raise DomainError(f"unknown component id {comp_id!r}") from None

    def stratum(self, stratum_id: str) -> Stratum:
        try:
            return self._strata_by_id[stratum_id]
        except KeyError:
            raise DomainError(f"unknown stratum id {_echo(stratum_id)}") from None

    def has_stratum(self, stratum_id: str) -> bool:
        return stratum_id in self._strata_by_id

    def singleton(self, comp_id: str) -> Stratum:
        """The vertex stratum carrying exactly the given component."""
        for s in self.strata:
            if s.vertices == (comp_id,):
                return s
        raise DomainError(f"no singleton stratum for component {comp_id!r}")


def _bends(s: Stratum, flag: str) -> bool:
    """Whether a stratum's expansion bends the weight as the flag would.

    A numerator (for touches_zero) or denominator (for touches_pole)
    with more than one minimal exponent has a valuation that is a
    minimum of several linear forms, so the weight on the face is
    concave or convex there and not affine, flag or no flag.
    """
    h = s.horizontal
    if h is None:
        return False
    side = h.num if flag == "touches_zero" else h.den
    return len(_antichain(side.exponents)) > 1


def _multiplicity(c: PrimeComponent) -> int:
    """N of a component; DomainError naming it when N < 1, as validate reports."""
    if c.N < 1:
        raise DomainError(f"component {c.id!r} has N = {c.N} < 1")
    return c.N


def face(model: SncdModel, stratum_id: str, keep: Iterable[str]) -> str:
    """Return the id of the iterated face of a stratum on a vertex subset.

    Vertices outside `keep` are removed one at a time through the face
    maps; the simplicial identity makes the result independent of the
    removal order.  `keep` must be a nonempty subset of the stratum's
    vertices.
    """
    s = model.stratum(stratum_id)
    keep_set = set(keep)
    if not keep_set:
        raise DomainError("face: empty vertex subset")
    extra = keep_set - set(s.vertices)
    if extra:
        raise DomainError(
            f"face: {sorted(extra)} are not vertices of stratum {stratum_id!r}"
        )
    current = s
    for v in [v for v in s.vertices if v not in keep_set]:
        try:
            nxt = current.face_map[v]
        except KeyError:
            raise DomainError(
                f"face: stratum {current.id!r} has no face map for vertex {v!r}"
            ) from None
        current = model.stratum(nxt)
    return current.id


def is_face(model: SncdModel, face_id: str, coface_id: str) -> bool:
    """True iff the first stratum is an iterated face of the second.

    Every stratum counts as a face of itself.
    """
    f = model.stratum(face_id)
    c = model.stratum(coface_id)
    if not set(f.vertices) <= set(c.vertices):
        return False
    return face(model, coface_id, f.vertices) == face_id


def cofaces(model: SncdModel, stratum_id: str) -> list[str]:
    """All strata having the given stratum as an iterated face, itself included.

    Walks up the model's coface index, so the cost is the size of the
    star.  On a model validate accepts, each index edge is a facet
    relation, so every stratum reached is an iterated coface; on one it
    rejects, the walk follows the face maps as written.  Sorted by id.
    """
    model.stratum(stratum_id)
    index = model._coface_index
    star, todo = {stratum_id}, [stratum_id]
    while todo:
        for up in index.get(todo.pop(), ()):
            if up not in star:
                star.add(up)
                todo.append(up)
    return sorted(star)


def is_maximal(model: SncdModel, stratum_id: str) -> bool:
    """True iff no face map points at the stratum: one coface index lookup."""
    model.stratum(stratum_id)
    return not model._coface_index.get(stratum_id)


class _Complex:
    """A model's complex under construction: a chain of blow-ups runs here in place.

    It copies the model's id maps and coface index (as sets) once; each
    blow-up then adds its vertex, removes the strata of its center's star
    (none for a point center) and adds its cone, at the cost of the star,
    and freeze() builds the one SncdModel a caller sees.  face and cofaces
    accept it in place of a model.
    """

    # the model's lookups, run on this object's own maps
    component, stratum = SncdModel.component, SncdModel.stratum

    def __init__(self, model: SncdModel):
        self.kind, self.m, self.ambient_dim = model.kind, model.m, model.ambient_dim
        self._components_by_id = dict(model._components_by_id)
        self._strata_by_id = dict(model._strata_by_id)
        self._coface_index = defaultdict(
            set, {fid: set(up) for fid, up in model._coface_index.items()}
        )

    def add_vertex(
        self, e_id: str, center: tuple[str, ...], mu_e: int,
        removed: Iterable[str], added: Iterable[Stratum],
    ):
        """Add component e_id over `center` and swap the strata `removed` for `added`.

        Coface sets emptied by the swap stay in the index.
        """
        N_e = sum([c.N for c in map(self.component, center)])
        self._components_by_id[e_id] = PrimeComponent(e_id, e_id, N_e, mu_e)
        strata, index = self._strata_by_id, self._coface_index
        for sid in removed:
            for fid in strata.pop(sid).face_map.values():
                index[fid].discard(sid)
        for s in added:
            strata[sid := s.id] = s
            for fid in s.face_map.values():
                index[fid].add(sid)

    def freeze(self) -> SncdModel:
        return SncdModel(
            self.kind, self.m, self.ambient_dim,
            tuple(self._components_by_id.values()), tuple(self._strata_by_id.values()),
        )


def connected_components(
    model: SncdModel, stratum_ids: Iterable[str]
) -> list[frozenset[str]]:
    """Partition a face-closed set of strata under the face relation.

    Two strata in the input are adjacent iff one is an iterated face of
    the other.  On a face-closed set that is the closure of the face-map
    edges, which are all this walks; a stratum whose face is missing
    from the input raises DomainError.  Blocks are returned sorted by
    their smallest member so the output is deterministic.
    """
    ids = dict.fromkeys(stratum_ids)
    parent = {sid: sid for sid in ids}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for sid, faces in _face_edges(model, ids):
        root = find(sid)
        for fid in faces:
            a = parent[fid]
            if parent[a] != a:  # a call only when the face is two steps or more below its root
                a = find(a)
            if a != root:
                parent[a] = root
    blocks: dict[str, list[str]] = {}
    for sid in ids:
        blocks.setdefault(find(sid), []).append(sid)
    return sorted(map(frozenset, blocks.values()), key=min)


def _face_edges(model: SncdModel, ids) -> Iterator[tuple[str, tuple[str, ...]]]:
    """(stratum, its faces in vertex order) over a stratum set; raises unless face-closed.

    `ids` is a set or a dict keyed by stratum id.  Strata of one vertex are skipped.
    """
    strata = model._strata_by_id
    for sid in ids:
        s = strata.get(sid) or model.stratum(sid)  # the latter raises the unknown id's error
        if len(s.vertices) < 2:
            continue
        faces = tuple(map(s.face_map.get, s.vertices))
        for fid in faces:
            if fid not in ids:
                raise DomainError(
                    f"stratum set is not face-closed: {sid!r} is included but "
                    f"its face {fid!r} is not"
                )
        yield sid, faces


def validate(model: SncdModel) -> ValidationReport:
    """Check every structural invariant of a model, reporting all failures.

    This never raises on malformed content; it accumulates violations so
    a user can fix a hand-written model file in one pass.  One walk over
    the strata checks each stratum and each of its face-map edges once,
    so the violations of a stratum come out together.
    """
    out: list[Violation] = []

    def add(code: str, message: str):
        out.append(Violation(code, message))

    if model.kind not in KNOWN_KINDS:
        add(CODE_KIND, f"unknown kind {model.kind!r}")
    out += _degree_violations(model.kind, model.m)
    if model.ambient_dim < 1:
        add(CODE_AMBIENT_DIM, f"ambient_dim must be >= 1, got {model.ambient_dim}")
    for what, items in (("component", model.components), ("stratum", model.strata)):
        for xid, count in Counter(map(_by_id, items)).items():
            if count > 1:
                add(CODE_DUPLICATE_ID, f"{what} id {xid!r} repeated")
    singletons = {s.vertices[0] for s in model.strata if len(s.vertices) == 1}
    for c in model.components:
        if c.N < 1:
            add(CODE_COMPONENT_MULTIPLICITY, f"component {c.id!r} has N = {c.N} < 1")
        if c.id not in singletons:
            add(CODE_MISSING_SINGLETON, f"component {c.id!r} has no vertex stratum")
    comps = model._components_by_id
    for s in model.strata:
        vs, r, vset = s.vertices, len(s.vertices), set(s.vertices)
        known = comps.keys() >= vset
        if not r:
            add(CODE_STRATUM_SIZE, f"stratum {s.id!r} has no vertices")
        else:
            if len(vset) != r:
                add(CODE_STRATUM_SIZE, f"stratum {s.id!r} repeats a vertex")
            if r > model.ambient_dim:
                add(
                    CODE_STRATUM_SIZE,
                    f"stratum {s.id!r} has {r} vertices, "
                    f"more than ambient_dim = {model.ambient_dim}",
                )
            if not known:
                for v in filterfalse(comps.__contains__, vs):
                    add(CODE_UNKNOWN_COMPONENT, f"stratum {s.id!r} uses unknown component {v!r}")
            elif not s.face_map.keys() <= vset:
                for v in sorted(s.face_map.keys() - vset):
                    add(CODE_FACE_MAP_MISMATCH, f"stratum {s.id!r} maps non-vertex {v!r}")
        if known and r >= 2:
            _check_faces(model, s, add, len(vset) != r)
        h = s.horizontal
        if h is not None and model.kind == KIND_LOG_RESOLUTION:
            add(CODE_KIND,
                f"stratum {s.id!r} has expansion data, which log-resolution models lack")
        if not known or h is None:
            continue
        for j, v in enumerate(vs):
            lo_num = min(beta[j] for beta in h.num.exponents)
            lo_den = min(beta[j] for beta in h.den.exponents)
            expected = comps[v].mu - model.m
            if lo_num - lo_den != expected:
                add(
                    CODE_HORIZONTAL_CONSISTENCY,
                    f"stratum {s.id!r}, vertex {v!r}: expansion orders give "
                    f"{lo_num} - {lo_den}, declared weight datum needs {expected}",
                )
    return ValidationReport(tuple(out))


def _check_form(model: SncdModel, form: FormData):
    """Check a form's ids, degree and flags against a valid model, as validate would."""
    comp_ids, strata_ids = model._components_by_id.keys(), model._strata_by_id.keys()
    flagged = form.touches_zero.keys() | form.touches_pole.keys()
    for problem, ids in (
        ("gives no weight datum for components", comp_ids - form.mu.keys()),
        ("gives weight data for unknown components", form.mu.keys() - comp_ids),
        ("sets flags on unknown strata", flagged - strata_ids),
    ):
        if ids:
            raise DomainError(f"form {problem} {_ids(ids)}")
    out = list(_degree_violations(model.kind, form.m))  # what validate reports, in its order
    flags = (("touches_zero", form.touches_zero), ("touches_pole", form.touches_pole))
    if any(any(on.values()) for _, on in flags):  # with every flag off there is no break
        for sid, faces in _face_edges(model, model._strata_by_id):
            for tid in faces:
                for flag, on in flags:
                    if on.get(tid) and not on.get(sid):
                        out.append(Violation(CODE_FLAG_MONOTONICITY, _flag_break(sid, flag, tid)))
    if out:
        raise DomainError(f"form data breaks the model: {ValidationReport(tuple(out))}")


def _degree_violations(kind: str, m: int) -> Iterator[Violation]:
    """What validate reports on a form degree m over a model of the given kind."""
    if m < 1:
        yield Violation(CODE_FORM_DEGREE, f"m must be >= 1, got {m}")
    if kind == KIND_LOG_RESOLUTION and m != 1:
        yield Violation(CODE_KIND, f"log-resolution models fix m = 1, got m = {m}")


def _flag_break(sid: str, flag: str, tid: str) -> str:
    """The message of a stratum with a flag off whose face has it on."""
    return f"stratum {sid!r} has {flag} off but its face {tid!r} has it on"


def _check_faces(model: SncdModel, s: Stratum, add: Callable[[str, str], None], repeats: bool):
    """validate on the face-map edges s --v--> t of a stratum of two or more vertices.

    Each face t is looked up once and checked for its vertex set, both flags
    and, with the other faces, the simplicial identity.  Keys that are not
    vertices are no edges; validate reports them on their own.  Where a vertex
    `repeats`, the face at v should drop v at each of its places.
    """
    vs, fm, strata = s.vertices, s.face_map, model._strata_by_id
    below = {}  # vertex -> face map of the face without it, unless that is a vertex
    for i, v in enumerate(vs):
        t = strata.get(tid := fm.get(v))
        if v not in fm:
            add(
                CODE_FACE_MAP_MISSING,
                f"stratum {s.id!r} lacks a face map entry for vertex {v!r}",
            )
        elif t is None:
            add(
                CODE_FACE_MAP_MISMATCH,
                f"stratum {s.id!r}: face at {v!r} points to unknown stratum {tid!r}",
            )
        else:
            if t.touches_zero and not s.touches_zero:
                add(CODE_FLAG_MONOTONICITY, _flag_break(s.id, "touches_zero", tid))
            if t.touches_pole and not s.touches_pole:
                add(CODE_FLAG_MONOTONICITY, _flag_break(s.id, "touches_pole", tid))
            rest = tuple(x for x in vs if x != v) if repeats else vs[:i] + vs[i + 1 :]
            if rest != t.vertices:
                add(
                    CODE_FACE_MAP_MISMATCH,
                    f"stratum {s.id!r}: face at {v!r} should carry vertices "
                    f"{rest}, but {t.id!r} carries {t.vertices}",
                )
            if len(t.vertices) != 1:
                below[v] = t.face_map
    down = list(filter(below.__contains__, vs))
    for i, v in enumerate(down):
        for w in down[i + 1 :]:
            a, b = below[v].get(w), below[w].get(v)
            if a is not None and b is not None and a != b:
                add(
                    CODE_SIMPLICIAL_IDENTITY,
                    f"stratum {s.id!r}: removing {v!r} then {w!r} gives "
                    f"{a!r}, the other order gives {b!r}",
                )
