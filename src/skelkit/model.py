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
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from ._record import Record
from .errors import DomainError, _echo
from .series import _antichain

KIND_SNCD = "sncd-over-dvr"
KIND_LOG_RESOLUTION = "log-resolution"
KNOWN_KINDS = (KIND_SNCD, KIND_LOG_RESOLUTION)

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
    expansion data, a `series.SeriesPair`, or None.
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
    `essential._check_form` checks a form's ids, degree and flags
    against a valid model.
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
    construction order.  The instance dict holds the lazy id maps and
    coface index.
    """

    __slots__ = ("kind", "m", "ambient_dim", "components", "strata", "__dict__")

    def __init__(
        self, kind: str, m: int, ambient_dim: int,
        components: tuple[PrimeComponent, ...], strata: tuple[Stratum, ...],
    ):
        components, strata = sorted(components, key=_by_id), sorted(strata, key=_by_id)
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
        N_e = sum(self.component(v).N for v in center)
        self._components_by_id[e_id] = PrimeComponent(e_id, e_id, N_e, mu_e)
        strata, index = self._strata_by_id, self._coface_index
        for sid in removed:
            for fid in strata.pop(sid).face_map.values():
                index[fid].discard(sid)
        for s in added:
            strata[s.id] = s
            for fid in s.face_map.values():
                index[fid].add(s.id)

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

    for sid, fid in _face_edges(model, ids):
        parent[find(fid)] = find(sid)
    blocks: dict[str, set[str]] = {}
    for sid in ids:
        blocks.setdefault(find(sid), set()).add(sid)
    return sorted((frozenset(b) for b in blocks.values()), key=lambda b: min(b))


def _face_edges(model: SncdModel, ids) -> Iterator[tuple[str, str]]:
    """(stratum, face) for every face map of a stratum set; raises unless face-closed.

    `ids` is a set or a dict keyed by stratum id.
    """
    for sid in ids:
        s = model.stratum(sid)
        if s.r < 2:
            continue
        for v in s.vertices:
            fid = s.face_map.get(v)
            if fid not in ids:
                raise DomainError(
                    f"stratum set is not face-closed: {sid!r} is included but "
                    f"its face {fid!r} is not"
                )
            yield sid, fid


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
        add("kind", f"unknown kind {model.kind!r}")
    out += _degree_violations(model.kind, model.m)
    if model.ambient_dim < 1:
        add("ambient-dim", f"ambient_dim must be >= 1, got {model.ambient_dim}")
    for what, items in (("component", model.components), ("stratum", model.strata)):
        for xid, count in Counter(x.id for x in items).items():
            if count > 1:
                add("duplicate-id", f"{what} id {xid!r} repeated")
    singletons = {s.vertices[0] for s in model.strata if len(s.vertices) == 1}
    for c in model.components:
        if c.N < 1:
            add("component-multiplicity", f"component {c.id!r} has N = {c.N} < 1")
        if c.id not in singletons:
            add("missing-singleton", f"component {c.id!r} has no vertex stratum")
    comps = model._components_by_id
    for s in model.strata:
        vs, r = s.vertices, len(s.vertices)
        unknown = [v for v in vs if v not in comps]
        if not r:
            add("stratum-size", f"stratum {s.id!r} has no vertices")
        else:
            if len(set(vs)) != r:
                add("stratum-size", f"stratum {s.id!r} repeats a vertex")
            if r > model.ambient_dim:
                add(
                    "stratum-size",
                    f"stratum {s.id!r} has {r} vertices, "
                    f"more than ambient_dim = {model.ambient_dim}",
                )
            for v in unknown:
                add("unknown-component", f"stratum {s.id!r} uses unknown component {v!r}")
            if not unknown:
                for v in sorted(s.face_map.keys() - set(vs)):
                    add("face-map mismatch", f"stratum {s.id!r} maps non-vertex {v!r}")
        if not unknown and r >= 2:
            _check_faces(model, s, add)
        h = s.horizontal
        if unknown or h is None:
            continue
        if h.num.stratum != s.id:  # SeriesPair ties den to num
            add(
                "horizontal-consistency",
                f"stratum {s.id!r}: expansion is written on stratum {h.num.stratum!r}",
            )
            continue
        if h.num.vertices != vs or h.den.vertices != vs:
            add(
                "horizontal-consistency",
                f"stratum {s.id!r}: expansion coordinates do not match "
                f"the stratum's vertex order",
            )
            continue
        for j, v in enumerate(vs):
            lo_num = min(beta[j] for beta in h.num.exponents)
            lo_den = min(beta[j] for beta in h.den.exponents)
            expected = comps[v].mu - model.m
            if lo_num - lo_den != expected:
                add(
                    "horizontal-consistency",
                    f"stratum {s.id!r}, vertex {v!r}: expansion orders give "
                    f"{lo_num} - {lo_den}, declared weight datum needs {expected}",
                )
    return ValidationReport(tuple(out))


def _degree_violations(kind: str, m: int) -> Iterator[Violation]:
    """What validate reports on a form degree m over a model of the given kind."""
    if m < 1:
        yield Violation("form-degree", f"m must be >= 1, got {m}")
    if kind == KIND_LOG_RESOLUTION and m != 1:
        yield Violation("kind", f"log-resolution models fix m = 1, got m = {m}")


def _flag_break(sid: str, flag: str, tid: str) -> str:
    """The message of a stratum with a flag off whose face has it on."""
    return f"stratum {sid!r} has {flag} off but its face {tid!r} has it on"


def _check_faces(model: SncdModel, s: Stratum, add: Callable[[str, str], None]):
    """validate on the face-map edges s --v--> t of a stratum of two or more vertices.

    Each face t is looked up once and checked for its vertex set, both flags
    and, with the other faces, the simplicial identity.  Keys that are not
    vertices are no edges; validate reports them on their own.
    """
    below = {}  # vertex -> face map of the face without it, unless that is a vertex
    for v in s.vertices:
        tid, rest = s.face_map.get(v), tuple(x for x in s.vertices if x != v)
        t = model._strata_by_id.get(tid)
        if v not in s.face_map:
            add(
                "face-map-missing",
                f"stratum {s.id!r} lacks a face map entry for vertex {v!r}",
            )
        elif t is None:
            add(
                "face-map mismatch",
                f"stratum {s.id!r}: face at {v!r} points to unknown stratum {tid!r}",
            )
        else:
            for flag in ("touches_zero", "touches_pole"):
                if getattr(t, flag) and not getattr(s, flag):
                    add("flag monotonicity", _flag_break(s.id, flag, tid))
            if rest != t.vertices:
                add(
                    "face-map mismatch",
                    f"stratum {s.id!r}: face at {v!r} should carry vertices "
                    f"{rest}, but {t.id!r} carries {t.vertices}",
                )
            if len(t.vertices) != 1:
                below[v] = t.face_map
    down = [v for v in s.vertices if v in below]
    for i, v in enumerate(down):
        for w in down[i + 1 :]:
            a, b = below[v].get(w), below[w].get(v)
            if a is not None and b is not None and a != b:
                add(
                    "simplicial-identity",
                    f"stratum {s.id!r}: removing {v!r} then {w!r} gives "
                    f"{a!r}, the other order gives {b!r}",
                )
