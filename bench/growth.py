"""Growth exponents over scaling families, measured with tracing off.

Each exponent is the least-squares slope of log(median time) against
log(size) over a family, so a complexity claim rests on several sizes
rather than on one point:

* reduction of the edge point 1:k, against its step count k;
* connected_components over every stratum of a full simplex, against
  the stratum count;
* one is_maximal call on a cycle of n components, against n.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from time import perf_counter

REPS = 5
REDUCE_STEPS = (50, 100, 200, 400)
SIMPLEX_VERTICES = (5, 6, 7, 8, 9)
CYCLE_LENGTHS = (100, 200, 400, 800)
MAXIMAL_SAMPLE = 20


def slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def _median_time(fn):
    times = []
    for _ in range(REPS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def exponents(sk):
    edge = sk.graph_model(sk.KIND_SNCD, 1, 2, [("A", "A", 1, 1), ("B", "B", 1, 1)],
                          [("e", "A", "B")])
    reduce_t = []
    for k in REDUCE_STEPS:
        x = sk.SkeletonPoint("e", {"A": Fraction(1, k + 1), "B": Fraction(k, k + 1)})
        reduce_t.append(_median_time(lambda: sk.reduce_to_divisorial(edge, x)))

    strata_n, components_t = [], []
    for n in SIMPLEX_VERTICES:
        comps = [(f"V{i}", f"V{i}", 1, 1) for i in range(n)]
        model = sk.full_complex_model(sk.KIND_SNCD, 1, comps, [[c[0] for c in comps]])
        ids = [s.id for s in model.strata]
        strata_n.append(len(ids))
        components_t.append(_median_time(lambda: sk.connected_components(model, ids)))

    maximal_t = []
    for n in CYCLE_LENGTHS:
        model = sk.cycle_model(sk.KIND_SNCD, 1, [(f"C{i}", f"C{i}", 1, 1) for i in range(n)])
        step = len(model.strata) // MAXIMAL_SAMPLE
        sample = [s.id for s in model.strata[::step]][:MAXIMAL_SAMPLE]
        total = _median_time(lambda: [sk.is_maximal(model, sid) for sid in sample])
        maximal_t.append(total / len(sample))

    return {
        "modify.reduce_to_divisorial.growth_exponent": slope(REDUCE_STEPS, reduce_t),
        "model.connected_components.growth_exponent": slope(strata_n, components_t),
        "model.is_maximal.growth_exponent": slope(CYCLE_LENGTHS, maximal_t),
    }
