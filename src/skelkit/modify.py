"""Combinatorial blow-ups of snc models and point transfer.

Blowing up the closure of a stratum with vertex set J inserts a new
component e with N_e = sum(N_j) and replaces the star of the stratum
by its stellar subdivision.  Blowing up a transverse generic center of
codimension c through the components J inserts the same e but glues a
new cone of strata onto the existing complex without removing anything.
Both run through one kernel, `_subdivide`, on the stratum J spans.  Its
mu_e is N_e times the weight at e's divisorial point, plus m*(c - |J|):
sum(mu_j) + m*(c - |J|) without expansion data.  Expansion data is
pulled back onto a new stratum unless it weighs there as the mu_v do.

Both transforms record a trace: the centers, the new vertices, how the
removed strata were replaced, and the multiplicity decomposition of
every original component in the final model.  The trace is what lets a
point of the old skeleton be re-expressed in the new one with its
weight and its component valuations intact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, count, repeat
from math import lcm

from ._record import Record
from .errors import DomainError, UnsupportedCenterError, _echo
from .model import SncdModel, Stratum, _Complex, cofaces, face, is_maximal
from .series import _pullback
from .skeleton import SkeletonPoint, _weight_on, check_point, value_on_component

_stratum = Stratum._unchecked()


class BlowupStep(Record):
    """One blow-up: its center, the new vertex, and the stratum replacements.

    center_vertices are the vertices of center_stratum, the stratum whose
    closure holds the center.  codim equals len(center_vertices) for a
    stratum center; a larger codim means a transverse generic point
    center, which removes no strata (replacements is then empty).
    """

    __slots__ = ("center_stratum", "center_vertices", "codim", "new_vertex", "replacements")
    _defaults = {"replacements": {}}

    def to_json(self):
        return {
            "center_stratum": self.center_stratum,
            "center_vertices": list(self.center_vertices),
            "codim": self.codim,
            "new_vertex": self.new_vertex,
            "replacements": {
                t: {",".join(a): sid for a, sid in sorted(sub.items())}
                for t, sub in sorted(self.replacements.items())
            },
        }


class BlowupTrace(Record):
    """Steps of a chain of blow-ups plus the pullback decomposition.

    pullback maps each component of the starting model to its
    multiplicity decomposition over the components of the final model.
    """

    __slots__ = ("steps", "pullback")
    _defaults = {"steps": [], "pullback": {}}

    def extend(self, step: BlowupStep):
        self.steps.append(step)
        e, center, zeros = step.new_vertex, step.center_vertices, repeat(0)
        for decomposition in self.pullback.values():
            if coeff := sum(map(decomposition.get, center, zeros)):
                decomposition[e] = coeff

    def to_json(self):
        return {
            "steps": [s.to_json() for s in self.steps],
            "pullback": {
                c: dict(sorted(d.items())) for c, d in sorted(self.pullback.items())
            },
        }


def _new_trace(model: SncdModel) -> BlowupTrace:
    return BlowupTrace([], {c.id: {c.id: 1} for c in model.components})


def _exc_ids(model: SncdModel | _Complex):
    """exc1, exc2, ... minus the model's component ids, each checked when drawn."""
    return (f"exc{k}" for k in count(1) if f"exc{k}" not in model._components_by_id)


@cache
def _shape(n: int, largest: int) -> tuple:
    """The subsets of at most `largest` of n positions, as `combinations` lists them.

    Per subset: its positions, each facet as (the position it drops, its table
    index), and the subset plus its last dropped position, where its face is read,
    as (table index, position); index len(table) stands for all n, which reads none.
    """
    table = [P for k in range(largest + 1) for P in combinations(range(n), k)]
    at = {P: i for i, P in enumerate(table)} | {tuple(range(n)): len(table)}
    last = [max(set(range(n)).difference(P), default=None) for P in table]
    return tuple((P, tuple((p, at[P[:i] + P[i + 1:]]) for i, p in enumerate(P)),
                  None if x is None else at[tuple(sorted((*P, x)))], x)
                 for P, x in zip(table, last))


def _subdivide(model: _Complex, sigma_id: str, e_id: str, codim: int) -> BlowupStep:
    """Blow up, in place, a codim-`codim` center in the closure of a stratum sigma on J.

    With codim = |J| the center is the closure itself: each coface tau of
    sigma (sigma included) is replaced by the cone with apex e_id over
    tau's faces on A + L, for A a proper subset of J and L tau's vertices
    outside J, so the update is local to the star.  A larger codim is a
    transverse generic center: nothing is removed, and the cone over
    sigma's faces on every subset A of J, J included, is glued on.  The
    subsets come from a table of positions cached per shape; new strata are
    named first, so face maps can point forward, and built from the largest
    A down: the face on A + L is one face-map step from the face on A + L
    plus the last vertex of J - A, the walk `face` makes without its checks.
    A coface's expansion is pulled back by one `_pullback`, which reads mu_e.
    """
    sigma = model.stratum(sigma_id)
    if codim < 2:
        raise UnsupportedCenterError(
            f"stratum {sigma_id!r} is a single component; blowing up a divisor "
            f"is an isomorphism and changes no complex"
        )
    J, strata, m = sigma.vertices, model._strata_by_id, model.m
    if len(set(J)) != len(J):
        raise DomainError(f"stratum {sigma_id!r} repeats a vertex")
    if codim == len(J):  # the closure: its star goes, for cones over proper subsets
        removed = coface_ids = cofaces(model, sigma_id)
        largest = len(J) - 1
    else:  # a point center removes nothing and adds the cone over sigma
        removed, coface_ids, largest = [], [sigma_id], len(J)
    shape = _shape(len(J), largest)
    subsets = [tuple([J[p] for p in P]) for P, _, _, _ in shape]

    freed, given, named, replacements = set(removed), set(), {}, {}
    for tid in coface_ids:  # in tau's vertex order, so face tuples agree with old strata
        tv, names = strata[tid].vertices, []
        verts_of = [(e_id, *A) if tv == J else (e_id, *[v for v in tv if v in A or v not in J])
                    for A in subsets]
        for verts in verts_of:  # ~2, ~3, ... while a stratum that stays or a new one has it
            new_id = base = "f_" + "_".join(verts) if len(verts) > 1 else "v_" + e_id
            k = 1
            while new_id in given or (new_id in strata and new_id not in freed):
                k += 1
                new_id = f"{base}~{k}"
            given.add(new_id)
            names.append(new_id)
        named[tid] = names, verts_of
        replacements[tid] = dict(zip(subsets, names))

    new_strata, rows = [], len(shape) - 1
    mu_e = _weight_on(model, sigma, dict.fromkeys(J, 1)) + m * (codim - len(J))
    for tid in coface_ids:
        tau, (names, verts_of) = strata[tid], named[tid]
        zero, pole, fmap = tau.touches_zero, tau.touches_pole, tau.face_map
        theirs = [(l, named[fmap[l]][0]) for l in tau.vertices if l not in J]
        if (h := tau.horizontal) is not None:  # written in tau's vertex order
            at = {v: i for i, v in enumerate(tau.vertices)}
            pullback = _pullback(h, [at[j] for j in J], m * (codim - 1), mu_e - m,
                                 [model.component(v).mu - m for v in tau.vertices])
        faces = [tid] * (rows + 2)
        for k in range(rows, -1, -1):  # each face is read off a larger subset's
            _, facets, up, x = shape[k]
            new_id, verts = names[k], verts_of[k]
            fm: dict[str, str] = {}
            if k or theirs:
                if x is not None:
                    faces[k] = strata[faces[up]].face_map[J[x]]
                fm[e_id] = faces[k]
                for a, i in facets:
                    fm[J[a]] = names[i]
                for l, them in theirs:
                    fm[l] = them[k]
            pair = None if h is None else pullback(new_id, verts, [at[v] for v in verts[1:]])
            new_strata.append(_stratum(new_id, verts, fm, zero, pole, pair))

    model.add_vertex(e_id, J, mu_e, removed, new_strata)
    return BlowupStep(sigma_id, J, codim, e_id, replacements if removed else {})


def _blowup_once(
    model: SncdModel, sigma_id: str, codim: int
) -> tuple[SncdModel, str, BlowupTrace]:
    """One kernel step on a working copy of the model: the new model, vertex and trace."""
    work = _Complex(model)
    e_id = next(_exc_ids(work))
    trace = _new_trace(model)
    trace.extend(_subdivide(work, sigma_id, e_id, codim))
    return work.freeze(), e_id, trace


def blowup_stratum(
    model: SncdModel, stratum_id: str
) -> tuple[SncdModel, str, BlowupTrace]:
    """Blow up the closure of a maximal stratum.

    Returns the transformed model, the new vertex's component id, and a
    single-step trace.  Non-maximal centers are rejected: subdividing
    through deeper strata is reserved for the reduction loop, which
    performs the full star subdivision internally.
    """
    if not is_maximal(model, stratum_id):
        raise UnsupportedCenterError(
            f"stratum {stratum_id!r} is not maximal; only maximal strata are "
            f"accepted as stratum centers"
        )
    return _blowup_once(model, stratum_id, model.stratum(stratum_id).r)


def blowup_point(
    model: SncdModel, stratum_id: str, center: tuple[str, ...], codim: int
) -> tuple[SncdModel, str, BlowupTrace]:
    """Blow up a transverse generic center through the components `center`.

    The center is a generic codimension-`codim` subvariety met along
    exactly the listed components, which must span a face of the given
    maximal stratum.  With codim equal to the number of components the
    center fills the whole face closure and the operation degenerates
    to blowup_stratum.  The trace's step is centered on that face.
    """
    s = model.stratum(stratum_id)
    if not is_maximal(model, stratum_id):
        raise UnsupportedCenterError(
            f"stratum {stratum_id!r} is not maximal"
        )
    if len(set(center)) != len(center):
        raise DomainError(f"center components {_echo(','.join(center))} repeat a component")
    J = tuple(v for v in s.vertices if v in set(center))
    if len(J) != len(center) or not center:
        raise DomainError(
            f"center components {_echo(','.join(center))} are not a nonempty subset of "
            f"the vertices of stratum {stratum_id!r}"
        )
    if codim < len(J) or codim > model.ambient_dim:
        raise DomainError(
            f"codimension {_echo(str(codim))} outside [{len(J)}, {model.ambient_dim}]"
        )
    if codim == len(J) and J != s.vertices:
        raise UnsupportedCenterError(
            f"a codimension-{codim} center through {list(J)} fills the "
            f"closure of a non-maximal stratum; blow up that stratum's "
            f"cofaces instead"
        )
    return _blowup_once(model, face(model, stratum_id, J), codim)


def _scaled(alpha: dict[str, Fraction]) -> tuple[int, dict[str, int]]:
    """(D, D * alpha) for D the least common denominator of the coordinates.

    _apply_step uses only min, > and -, which commute with scaling by
    D > 0, so points move through a trace in integers and are divided
    by D once at the end.
    """
    d = lcm(*(a.denominator for a in alpha.values()))
    return d, {v: a.numerator * (d // a.denominator) for v, a in alpha.items()}


def _apply_step(
    step: BlowupStep, stratum_id: str, alpha: dict[str, int]
) -> tuple[str, dict[str, int]]:
    """Push one point, in scaled coordinates, through one blow-up step;
    no-op off the subdivided star."""
    sub = step.replacements.get(stratum_id)
    if sub is None:
        return stratum_id, alpha
    J = step.center_vertices
    a_min = min(map(alpha.__getitem__, J))
    new_alpha = {step.new_vertex: a_min}
    for v, a in alpha.items():
        if v not in J:
            new_alpha[v] = a
        elif a > a_min:
            new_alpha[v] = a - a_min
    return sub[tuple([j for j in J if alpha[j] > a_min])], new_alpha


def transfer_point(
    source: SncdModel, target: SncdModel, trace: BlowupTrace, x: SkeletonPoint
) -> SkeletonPoint:
    """Rewrite a skeleton point of the source model in the blown-up model.

    A point moves only when its stratum was subdivided; the exceptional
    coordinate receives the minimum of the center coordinates (the
    valuation of the center's ideal) and the center coordinates shrink
    by that amount, vanishing ones dropping out.  Weight and pullback
    component values are invariants of the rewrite.
    """
    check_point(source, x)
    stratum_id, (d, alpha) = x.stratum, _scaled(x.alpha)
    try:
        for step in trace.steps:
            stratum_id, alpha = _apply_step(step, stratum_id, alpha)
    except KeyError:  # a step subdivides a stratum of this id on other vertices
        raise DomainError("trace does not start at the given source model: stratum "
                          f"{stratum_id!r} lacks a step's center") from None
    result = SkeletonPoint(stratum_id, {v: Fraction(a, d) for v, a in alpha.items()})
    if not target.has_stratum(stratum_id):
        raise DomainError(
            f"trace does not lead into the given target model: stratum "
            f"{stratum_id!r} is missing"
        )
    check_point(target, result)
    return result


def pullback_value(
    target: SncdModel, trace: BlowupTrace, x: SkeletonPoint, original_comp: str
) -> Fraction:
    """Valuation of an original component at a transferred point.

    Computed through the trace's multiplicity decomposition; for points
    transferred from the source model this equals the source value.
    """
    try:
        decomposition = trace.pullback[original_comp]
    except KeyError:
        raise DomainError(
            f"component {original_comp!r} is not tracked by this trace"
        ) from None
    return sum(
        mult * value_on_component(target, x, cid)
        for cid, mult in decomposition.items()
    )


def reduce_to_divisorial(
    model: SncdModel, x: SkeletonPoint
) -> tuple[SncdModel, str, BlowupTrace]:
    """Blow up along the point's stratum until the point becomes divisorial.

    Each pass subdivides the current stratum of the point; the minimum
    coordinate moves to the new vertex and at least one old coordinate
    drops out, so for rational input the loop ends after finitely many
    steps with the point sitting at a single vertex.  Returns the final
    model, that vertex's component id, and the full trace.
    """
    check_point(model, x)
    trace = _new_trace(model)
    work = _Complex(model)
    stratum_id, alpha = x.stratum, _scaled(x.alpha)[1]
    exc_ids, strata = _exc_ids(work), work._strata_by_id  # the map add_vertex updates
    while (r := len(strata[stratum_id].vertices)) > 1:
        step = _subdivide(work, stratum_id, next(exc_ids), r)
        trace.extend(step)
        stratum_id, alpha = _apply_step(step, stratum_id, alpha)
    comp_id = strata[stratum_id].vertices[0]
    return work.freeze(), comp_id, trace


def _reduction_length(alpha: dict[str, Fraction]) -> int:
    """The number of blow-ups reduce_to_divisorial makes on a point with these coordinates.

    Each blow-up keeps the least coordinate a, lowers every larger one
    by a and drops the other coordinates equal to a.  While a is the
    only least coordinate it stays least for q = ceil(x/a) - 1 steps,
    x the next larger coordinate, so those steps are taken at once and
    the count grows like Euclid's algorithm, not like the ratio.
    Requires positive coordinates, as check_point does.
    """
    xs, steps = sorted(_scaled(alpha)[1].values()), 0
    while len(xs) > 1:
        a = xs[0]
        if xs[1] > a:
            q = -(-xs[1] // a) - 1
            xs = [a] + [x - q * a for x in xs[1:]]
            steps += q
        a = min(xs)
        xs = sorted([a] + [x - a for x in xs if x > a])
        steps += 1
    return steps
