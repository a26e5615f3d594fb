"""Independent answers for the benchmark's checks.

Everything here works on `Plain`, a model held as plain Python data and
read without skelkit, so a check never compares the library with itself.
"""

from __future__ import annotations

import json
from fractions import Fraction


def euclid(coords):
    """Steps the subtractive Euclid algorithm needs to reach one coordinate, and that coordinate.

    Each step replaces every coordinate equal to the minimum by a single
    new coordinate holding that minimum and subtracts the minimum from the
    others, as one blow-up of a point's stratum does.
    """
    v = sorted(coords)
    steps = 0
    while len(v) > 1:
        lo = v[0]
        v = sorted([lo] + [a - lo for a in v if a > lo])
        steps += 1
    return steps, v[0]


def normalized(ints: dict, comps: dict) -> dict:
    """Scale positive integer weights so that sum(alpha * N) = 1."""
    total = sum(k * comps[v][0] for v, k in ints.items())
    return {v: Fraction(k, total) for v, k in ints.items()}


class Plain:
    """A weighted dual complex as plain data.

    comps maps component ids to (N, mu); strata maps stratum ids to dicts
    with keys vertices (a tuple), faces (vertex -> stratum id),
    touches_zero, touches_pole and horizontal ((num, den) exponent lists
    or None).
    """

    def __init__(self, kind, m, comps, strata, ambient=2):
        self.kind, self.m, self.ambient = kind, m, ambient
        self.comps = dict(sorted(comps.items()))
        self.strata = dict(sorted(strata.items()))
        self._up = None

    @classmethod
    def from_text(cls, text):
        doc = json.loads(text)
        strata = {}
        for s in doc["strata"]:
            h = s.get("horizontal")
            strata[s["id"]] = {
                "vertices": tuple(s["vertices"]),
                "faces": dict(s.get("faces", {})),
                "touches_zero": s.get("touches_zero", False),
                "touches_pole": s.get("touches_pole", False),
                "horizontal": None if h is None else (h["num"], h["den"]),
            }
        comps = {c["id"]: (c["N"], c["mu"]) for c in doc["components"]}
        return cls(doc["kind"], doc["m"], comps, strata, doc["ambient_dim"])

    @classmethod
    def graph(cls, kind, m, comps, edges):
        """Mirror of a graph model: vertex strata v_<id> plus the given edges."""
        strata = {f"v_{c}": _cell((c,), {}) for c in comps}
        for eid, a, b in edges:
            strata[eid] = _cell((a, b), {a: f"v_{b}", b: f"v_{a}"})
        return cls(kind, m, comps, strata)

    @classmethod
    def simplex(cls, kind, m, comps):
        """Mirror of a full simplex on all components: one stratum per nonempty subset."""
        ids = sorted(comps)
        strata = {}
        for mask in range(1, 1 << len(ids)):
            sub = tuple(v for i, v in enumerate(ids) if mask >> i & 1)
            faces = {}
            if len(sub) > 1:
                faces = {v: _simplex_id(tuple(x for x in sub if x != v)) for v in sub}
            strata[_simplex_id(sub)] = _cell(sub, faces)
        return cls(kind, m, comps, strata)

    def vertices(self, sid):
        return self.strata[sid]["vertices"]

    def face(self, sid, keep) -> str:
        keep = set(keep)
        for v in [v for v in self.vertices(sid) if v not in keep]:
            sid = self.strata[sid]["faces"][v]
        return sid

    def cofaces(self, sid) -> set:
        if self._up is None:
            self._up = {t: [] for t in self.strata}
            for s, cell in self.strata.items():
                for t in cell["faces"].values():
                    self._up[t].append(s)
        seen, todo = {sid}, [sid]
        while todo:
            for s in self._up[todo.pop()]:
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        return seen

    def is_maximal(self, sid) -> bool:
        return self.cofaces(sid) == {sid}

    def maximal(self):
        targets = {t for cell in self.strata.values() for t in cell["faces"].values()}
        return [s for s in self.strata if s not in targets]

    def weight(self, sid, alpha) -> Fraction:
        verts = self.vertices(sid)
        h = self.strata[sid]["horizontal"]
        if h is None:
            return sum(alpha[v] * self.comps[v][1] for v in verts)
        a = [alpha[v] for v in verts]
        num, den = (min(sum(x * b for x, b in zip(a, beta)) for beta in side) for side in h)
        return num - den + self.m * sum(a)

    def min_locus(self, mu=None):
        """Minimal ratio mu/N and the strata on which every vertex attains it."""
        mu = mu or {c: nm[1] for c, nm in self.comps.items()}
        ratio = {c: Fraction(mu[c], nm[0]) for c, nm in self.comps.items()}
        lo = min(ratio.values())
        chosen = {
            s
            for s, cell in self.strata.items()
            if all(ratio[v] == lo for v in cell["vertices"])
        }
        return lo, chosen

    def ks(self, mu=None):
        """Minimal-weight skeleton; an overlaid form (mu given) carries no flags."""
        lo, chosen = self.min_locus(mu)
        if mu is None:
            chosen = {s for s in chosen if not self.strata[s]["touches_zero"]}
        return lo, chosen

    def blocks(self, ids):
        """Connected components of a face-closed stratum set, by smallest member."""
        ids = set(ids)
        parent = {s: s for s in ids}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for s in ids:
            for t in self.strata[s]["faces"].values():
                if t in ids:
                    parent[find(s)] = find(t)
        groups = {}
        for s in ids:
            groups.setdefault(find(s), set()).add(s)
        return sorted((frozenset(g) for g in groups.values()), key=min)

    def connected(self, ids) -> bool:
        return len(self.blocks(ids)) == 1

    def tail(self, ids) -> str:
        if self.connected(ids):
            return "true"
        return "false (empty)" if not ids else "false"


def _cell(vertices, faces):
    return {
        "vertices": tuple(vertices),
        "faces": faces,
        "touches_zero": False,
        "touches_pole": False,
        "horizontal": None,
    }


def _simplex_id(sub) -> str:
    return "s_" + "_".join(sub)
