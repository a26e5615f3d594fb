"""Workload reduce_chain: divisorial reduction of skewed points, in process.

Why: this workload is write-heavy.  Every blow-up builds a new SncdModel
and scans all strata for the cofaces of its center, so reduction is
quadratic in its step count.

Each operation reduces a point to a divisorial valuation, transfers the
point through the returned trace and weighs it on both sides.  A round
holds one point per (cell, length bucket): edges, triangles and
tetrahedra, two of them carrying horizontal expansion data so that the
series layer runs too.  The bucket sets the point's subtractive-Euclid
length, i.e. the number of blow-ups; the seed picks the point.
"""

from __future__ import annotations

import itertools
import random

from harness import Op
from oracles import Plain, euclid, normalized

# cell -> (stratum id, (N, mu) per vertex, horizontal expansion data?)
CELLS = {
    "edge": ("e", ((2, 1), (3, 2)), False),
    "edge_h": ("e", ((2, 2), (1, 3)), True),
    "tri": ("s_A_B_C", ((1, 1), (2, 2), (3, 2)), False),
    "tri_h": ("s_A_B_C", ((2, 2), (1, 2), (2, 3)), True),
    "tet": ("s_A_B_C_D", ((1, 1), (2, 1), (1, 2), (3, 2)), False),
}
# One round of (cell, subtractive-Euclid length) slots: 6 light ones, 8 of
# about equal cost around the median and 6 of about equal cost around the
# 90th percentile, so that neither quantile sits on a jump between the
# costs of two kinds of slot.
ROUND = (
    ("edge", 10), ("tri", 10), ("tet", 10), ("edge", 30), ("edge_h", 30), ("tri", 30),
    ("edge", 150), ("edge", 150), ("edge_h", 100), ("tri", 80), ("tri", 80),
    ("tri_h", 50), ("tet", 45), ("tet", 45),
    ("edge", 300), ("edge_h", 250), ("tri", 180), ("tri_h", 150), ("tet", 100), ("tet", 100),
)
BAND = 0.05
TRIES = 400


class ReduceChain:
    name = "reduce_chain"
    subprocesses = False
    round_size = traced_ops = len(ROUND)

    def __init__(self, root, seed, workdir):
        self.seed = seed

    def setup(self, sk):
        self.sk = sk
        self.models, self.plain = {}, {}
        for cell, (sid, weights, horizontal) in CELLS.items():
            names = "ABCD"[:len(weights)]
            comps = dict(zip(names, weights))
            specs = [(v, v, N, mu) for v, (N, mu) in comps.items()]
            if len(names) == 2:
                model = sk.graph_model(sk.KIND_SNCD, 1, 2, specs, [("e", "A", "B")])
                plain = Plain.graph(sk.KIND_SNCD, 1, comps, [("e", "A", "B")])
            else:
                model = sk.full_complex_model(sk.KIND_SNCD, 1, specs, [list(names)])
                plain = Plain.simplex(sk.KIND_SNCD, 1, comps)
            if horizontal:
                # per-vertex minima mu - m as validation requires, but no single
                # minimal monomial, so the weight is not the plain sum(alpha * mu)
                base = [mu - 1 for _, mu in weights]
                num = [tuple(b + (i == j) for j, b in enumerate(base)) for i in range(len(base))]
                den = [(0,) * len(base)]
                pair = sk.SeriesPair(sk.Support(sid, tuple(names), frozenset(num)),
                                     sk.Support(sid, tuple(names), frozenset(den)))
                model = model.replace(strata=tuple(
                    sk.Stratum(s.id, s.vertices, s.face_map, horizontal=pair) if s.id == sid else s
                    for s in model.strata))
                plain.strata[sid]["horizontal"] = (num, den)
            self.models[cell], self.plain[cell] = model, plain

    def prepare(self):
        pass

    def ops(self):
        rng = random.Random(f"{self.seed}:ops")
        for _ in itertools.count():
            batch = [self._op(rng, cell, length) for cell, length in ROUND]
            rng.shuffle(batch)
            yield from batch

    def _op(self, rng, cell, length):
        sid, weights, _ = CELLS[cell]
        ints = _skewed(rng, len(weights), length)
        plain = self.plain[cell]
        alpha = normalized(dict(zip(plain.vertices(sid), ints)), plain.comps)
        x = self.sk.SkeletonPoint(sid, alpha)
        return Op(cell, (self.models[cell], x), (euclid(ints)[0], plain.weight(sid, alpha)))

    def call(self, op):
        sk = self.sk
        model, x = op.args
        final, comp, trace = sk.reduce_to_divisorial(model, x)
        y = sk.transfer_point(model, final, trace, x)
        return final, comp, len(trace.steps), y, sk.weight(model, x), sk.weight(final, y)

    replay = call

    def check(self, op, result):
        final, comp, steps, y, before, after = result
        want_steps, want_weight = op.expect
        if final.stratum(y.stratum).vertices != (comp,) or set(y.alpha) != {comp}:
            return f"ended on stratum {y.stratum!r}, not on the vertex of {comp!r}"
        if steps != want_steps:
            return f"{steps} blow-ups, expected {want_steps}"
        if not before == after == want_weight:
            return f"weight {before} became {after}, expected {want_weight}"
        return None

    def generated_models(self):
        return list(self.models.values())


def _skewed(rng, r, length):
    """Positive integers, in seeded order, whose subtractive-Euclid length is near `length`."""
    best = None
    for _ in range(TRIES):
        low = rng.randint(1, 3)
        ints = [low] + [rng.randint(low, 2 * low * length) for _ in range(r - 1)]
        miss = abs(euclid(ints)[0] - length)
        if best is None or miss < best[0]:
            best = (miss, ints)
        if miss <= BAND * length:
            break
    ints = best[1]
    rng.shuffle(ints)
    return ints
