"""Convenience builders for common dual complexes.

These construct models from compact descriptions: a weighted graph
(vertices and edges, covering every degeneration of a curve) or a
classical simplicial complex given by its maximal simplices.  Specific
geometries ship as data files; nothing here knows about fiber types.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import DomainError
from .model import PrimeComponent, SncdModel, Stratum


def _components(specs) -> list[PrimeComponent]:
    return [PrimeComponent(cid, name, N, mu) for cid, name, N, mu in specs]


def graph_model(
    kind: str,
    m: int,
    ambient_dim: int,
    components: Sequence[tuple[str, str, int, int]],
    edges: Sequence[tuple[str, str, str]],
    flags: Optional[dict[str, tuple[bool, bool]]] = None,
) -> SncdModel:
    """Build a one-dimensional dual complex.

    components: (id, name, N, mu) tuples.  edges: (edge_id, a, b) with a
    and b component ids; parallel edges and any graph shape are fine.
    Singleton strata are created as "v_<component>".  flags optionally
    maps stratum ids to (touches_zero, touches_pole).
    """
    flags = flags or {}
    comps = _components(components)
    strata = []
    for c in comps:
        tz, tp = flags.get(f"v_{c.id}", (False, False))
        strata.append(Stratum(f"v_{c.id}", (c.id,), {}, tz, tp, None))
    for eid, a, b in edges:
        tz, tp = flags.get(eid, (False, False))
        strata.append(
            Stratum(eid, (a, b), {a: f"v_{b}", b: f"v_{a}"}, tz, tp, None)
        )
    return SncdModel(kind, m, ambient_dim, tuple(comps), tuple(strata))


def full_complex_model(
    kind: str,
    m: int,
    components: Sequence[tuple[str, str, int, int]],
    maximal: Sequence[Sequence[str]],
    ambient_dim: Optional[int] = None,
) -> SncdModel:
    """Build a classical simplicial complex from its maximal simplices.

    Every nonempty subset of a maximal simplex becomes one stratum (so
    no two strata share a vertex set; use graph_model for multigraphs).
    Stratum ids are "s_" + sorted vertex ids joined by "_".
    """
    comps = _components(components)
    known = {c.id for c in comps}
    subsets: set[tuple[str, ...]] = set()
    for simplex in maximal:
        vs = tuple(simplex)
        if len(set(vs)) != len(vs):
            raise DomainError(f"maximal simplex {vs} repeats a vertex")
        unknown = set(vs) - known
        if unknown:
            raise DomainError(f"maximal simplex {vs} uses unknown ids {sorted(unknown)}")
        for k in range(1, len(vs) + 1):
            for sub in combinations(sorted(vs), k):
                subsets.add(sub)
    for c in comps:
        subsets.add((c.id,))

    def sid(sub: tuple[str, ...]) -> str:
        return "s_" + "_".join(sub)

    strata = []
    for sub in sorted(subsets):
        fm = {}
        if len(sub) >= 2:
            fm = {v: sid(tuple(x for x in sub if x != v)) for v in sub}
        strata.append(Stratum(sid(sub), sub, fm, False, False, None))
    dim = ambient_dim if ambient_dim is not None else max(len(s) for s in subsets)
    return SncdModel(kind, m, dim, tuple(comps), tuple(strata))


def cycle_model(
    kind: str,
    m: int,
    components: Sequence[tuple[str, str, int, int]],
) -> SncdModel:
    """A cycle through the given components, in order (at least 3 of them)."""
    ids = [c[0] for c in components]
    if len(ids) < 3:
        raise DomainError("cycle_model needs at least 3 components; use graph_model")
    edges = [
        (f"e_{a}_{b}", a, b) for a, b in zip(ids, ids[1:] + ids[:1])
    ]
    return graph_model(kind, m, 2, components, edges)


def star_model(
    kind: str,
    m: int,
    center: tuple[str, str, int, int],
    legs: Iterable[tuple[str, str, int, int]],
) -> SncdModel:
    """A star: every leg component meets the center component once."""
    legs = list(legs)
    edges = [(f"e_{center[0]}_{leg[0]}", center[0], leg[0]) for leg in legs]
    return graph_model(kind, m, 2, [center, *legs], edges)
