"""The blow-up kernel as `skelkit.modify` had it before each step's star came from per-step tables.

`skelkit.modify._subdivide` reads the subsets of the center, their
facets and the vertices they drop off a table of positions cached per
shape (|J| and the largest subset), names the new strata in its own
loop, reads each exceptional face one face-map step below a larger
subset's, and builds each new stratum through `Record._unchecked`, past
the constructor's checks.  This reference builds every replacement
stratum one coface and one subset at a time, asks the public,
argument-checking `face` for each exceptional face and tests each
candidate name through `has_stratum`.  It runs on `Complex`, a working
complex whose coface index is a plain dict filled through `setdefault`.
Both kernels, each on its own complex, must give equal steps, models
and coface indexes.

`blowup_point` is the earlier point blow-up, which built its cone with a
builder of its own instead of going through the kernel; on a frozen
model the `_stratum_namer` here names strata as the module's did.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from skelkit.errors import DomainError, UnsupportedCenterError, _echo
from skelkit.model import (
    PrimeComponent, SncdModel, Stratum, _Complex, cofaces, face, is_maximal,
)
from skelkit.modify import BlowupStep, BlowupTrace, _exc_ids, _new_trace, blowup_stratum
from skelkit.series import SeriesPair, Support

# Complex and the functions below are the earlier code, unchanged but for
# the class name; their annotations name skelkit's working complex, and
# they run on Complex as well.  `_subsets` and `_exceptional_mu` are the
# earlier module's helpers, which the merged kernel no longer has, and
# `_antichain` is the earlier `skelkit.series._antichain`.


class Complex:
    """A model's complex under construction: a chain of blow-ups runs here in place.

    It copies the model's id maps and coface index (as sets) once; each
    blow-up then adds its vertex and swaps its star's strata at the cost
    of the star, and freeze() builds the one SncdModel a caller sees.
    face and cofaces accept it in place of a model.
    """

    # the model's lookups, run on this object's own maps
    component, stratum, has_stratum = (
        SncdModel.component, SncdModel.stratum, SncdModel.has_stratum
    )

    def __init__(self, model: SncdModel):
        self.kind, self.m, self.ambient_dim = model.kind, model.m, model.ambient_dim
        self._components_by_id = dict(model._components_by_id)
        self._strata_by_id = dict(model._strata_by_id)
        self._coface_index = {fid: set(up) for fid, up in model._coface_index.items()}

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
                index.setdefault(fid, set()).add(s.id)

    def freeze(self) -> SncdModel:
        return SncdModel(
            self.kind, self.m, self.ambient_dim,
            tuple(self._components_by_id.values()), tuple(self._strata_by_id.values()),
        )


def _stratum_namer(model: SncdModel | _Complex, freed: frozenset[str] = frozenset()):
    """Name new strata after their vertices, avoiding the ids still in use.

    In use are the model's stratum ids outside `freed` and every name
    handed out so far.
    """
    given: set[str] = set()

    def name(vertices: tuple[str, ...]) -> str:
        base = f"v_{vertices[0]}" if len(vertices) == 1 else "f_" + "_".join(vertices)
        out, k = base, 1
        while out in given or (model.has_stratum(out) and out not in freed):
            k += 1
            out = f"{base}~{k}"
        given.add(out)
        return out

    return name


def _subsets(vertices: tuple[str, ...], largest: int):
    """Subsets of at most `largest` vertices, in the tuple's order, smallest first."""
    for k in range(largest + 1):
        yield from combinations(vertices, k)


def _exceptional_mu(model: _Complex, sigma: Stratum) -> int:
    """Weight datum of the exceptional component over a stratum closure.

    Without expansion data this is the sum of the vertex data; with it,
    the center order of the expansion replaces the sum of the declared
    orders (the two agree when the expansion is monomial times a unit).
    """
    if sigma.horizontal is None:
        return sum(model.component(v).mu for v in sigma.vertices)
    r = sigma.r
    lo_num = min(sum(beta) for beta in sigma.horizontal.num.exponents)
    lo_den = min(sum(beta) for beta in sigma.horizontal.den.exponents)
    return model.m * r + lo_num - lo_den


def _antichain(exponents) -> frozenset[tuple[int, ...]]:
    """The exponent vectors of a set that no other vector of it is coordinatewise below.

    A vector below another precedes it lexicographically, and being
    below is transitive, so each vector in sorted order is checked
    against the ones kept before it only.
    """
    kept: list[tuple[int, ...]] = []
    for beta in sorted(exponents):
        if not any(all(a <= b for a, b in zip(low, beta)) for low in kept):
            kept.append(beta)
    return frozenset(kept)


def _transform_support(
    s: Support, center: tuple[str, ...], new_vertices: tuple[str, ...],
    e_id: str, new_stratum: str, jacobian: int,
) -> Support:
    """Pull an exponent support back through a stratum blow-up.

    The exceptional coordinate collects the total center order of each
    monomial plus the Jacobian shift; coordinates of dropped center
    vertices disappear (their coordinates become units at the new
    stratum); everything else is carried over.  Dominated exponents are
    dropped before the support is built, as reduce_support would.
    """
    idx = {v: i for i, v in enumerate(s.vertices)}
    center_pos = [idx[j] for j in center]
    out = set()
    for beta in s.exponents:
        e_coord = sum(beta[p] for p in center_pos) + jacobian
        vec = tuple(
            e_coord if v == e_id else beta[idx[v]] for v in new_vertices
        )
        out.add(vec)
    return Support(new_stratum, new_vertices, _antichain(out))


def _subdivide(model: _Complex, sigma_id: str, e_id: str) -> BlowupStep:
    """Star subdivision, in place, at an arbitrary stratum with at least two vertices.

    Every coface of the center (the center included) is replaced by the
    cone with apex the new vertex e_id over its proper-center-subset
    faces; everything else is untouched, so the update is local to the
    star.
    """
    sigma = model.stratum(sigma_id)
    if sigma.r < 2:
        raise UnsupportedCenterError(
            f"stratum {sigma_id!r} is a single component; blowing up a divisor "
            f"is an isomorphism and changes no complex"
        )
    J = sigma.vertices

    coface_ids = cofaces(model, sigma_id)
    fresh_name = _stratum_namer(model, frozenset(coface_ids))

    # name every replacement first so face maps can point forward
    replacements: dict[str, dict[tuple[str, ...], str]] = {}
    plan: list[tuple[Stratum, tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = []
    for tid in coface_ids:
        tau = model.stratum(tid)
        L = tuple(v for v in tau.vertices if v not in J)
        replacements[tid] = {}
        for A in _subsets(J, len(J) - 1):
            # keep tau's vertex order so face tuples agree with old strata
            kept_verts = set(A) | set(L)
            verts = (e_id,) + tuple(v for v in tau.vertices if v in kept_verts)
            replacements[tid][A] = fresh_name(verts)
            plan.append((tau, A, L, verts))

    new_strata = []
    for tau, A, L, verts in plan:
        new_id = replacements[tau.id][A]
        fm: dict[str, str] = {}
        if len(verts) >= 2:
            if A + L:
                fm[e_id] = face(model, tau.id, A + L)
            for a in A:
                fm[a] = replacements[tau.id][tuple(x for x in A if x != a)]
            for l in L:
                fm[l] = replacements[tau.face_map[l]][A]
        horizontal: Optional[SeriesPair] = None
        if tau.horizontal is not None:
            horizontal = SeriesPair(
                _transform_support(
                    tau.horizontal.num, J, verts, e_id, new_id,
                    model.m * (sigma.r - 1),
                ),
                _transform_support(tau.horizontal.den, J, verts, e_id, new_id, 0),
            )
        new_strata.append(
            Stratum(new_id, verts, fm, tau.touches_zero, tau.touches_pole, horizontal)
        )

    model.add_vertex(e_id, J, _exceptional_mu(model, sigma), coface_ids, new_strata)
    return BlowupStep(sigma_id, J, len(J), e_id, replacements)


def blowup_point(
    model: SncdModel, stratum_id: str, center: tuple[str, ...], codim: int
) -> tuple[SncdModel, str, BlowupTrace]:
    """Blow up a transverse generic center through the components `center`.

    The center is a generic codimension-`codim` subvariety met along
    exactly the listed components, which must span a face of the given
    maximal stratum.  With codim equal to the number of components the
    center fills the whole face closure and the operation degenerates
    to blowup_stratum.
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
    if codim == len(J):
        if J != s.vertices:
            raise UnsupportedCenterError(
                f"a codimension-{codim} center through {list(J)} fills the "
                f"closure of a non-maximal stratum; blow up that stratum's "
                f"cofaces instead"
            )
        return blowup_stratum(model, stratum_id)

    e_id = next(_exc_ids(model))
    mu_e = sum(model.component(v).mu for v in J) + model.m * (codim - len(J))

    fresh_name = _stratum_namer(model)
    subsets = list(_subsets(J, len(J)))
    names = {A: fresh_name((e_id,) + A) for A in subsets}

    new_strata = []
    for A in subsets:
        verts = (e_id,) + A
        fm: dict[str, str] = {}
        if len(verts) >= 2:
            fm[e_id] = face(model, stratum_id, A)
            for a in A:
                fm[a] = names[tuple(x for x in A if x != a)]
        new_strata.append(
            Stratum(names[A], verts, fm, s.touches_zero, s.touches_pole, None)
        )

    work = _Complex(model)
    work.add_vertex(e_id, J, mu_e, [], new_strata)
    trace = _new_trace(model)
    trace.extend(BlowupStep(stratum_id, J, codim, e_id, {}))
    return work.freeze(), e_id, trace
