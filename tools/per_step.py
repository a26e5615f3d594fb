"""Print in-process microseconds per blow-up step of `reduce_to_divisorial`.

    PYTHONPATH=src python3 tools/per_step.py

Rows: the five cells of bench/reduce_chain.py at one fixed point each, then a
point in the top cell of a full d-simplex for d = 1..5, whose star, and so each
step, grows with d.  Each point takes 150 or 200 blow-ups; a row's figure is
the least of ROUNDS timed reductions over its step count.  The last line
gives the expansion cells' ratios to their plain twins.
"""

import sys
from pathlib import Path
from time import perf_counter

import skelkit as sk

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from oracles import normalized  # noqa: E402
from reduce_chain import CELLS, ReduceChain  # noqa: E402

ROUNDS = 7
CELL_POINTS = {"edge": (1, 200), "edge_h": (1, 200), "tri": (1, 7, 150),
               "tri_h": (1, 7, 150), "tet": (1, 7, 30, 150)}
SIMPLEX_POINTS = {1: (1, 150), 2: (1, 7, 150), 3: (1, 7, 30, 150), 4: (1, 3, 7, 30, 150),
                  5: (1, 3, 7, 15, 30, 150)}


def cases():
    chain = ReduceChain(None, 0, None)
    chain.setup(sk)
    for cell, ints in CELL_POINTS.items():
        model, sid = chain.models[cell], CELLS[cell][0]
        yield cell, model, sid, dict(zip(model.stratum(sid).vertices, ints))
    for d, ints in SIMPLEX_POINTS.items():
        names = [f"V{i}" for i in range(d + 1)]
        model = sk.full_complex_model(sk.KIND_SNCD, 1, [(v, v, 1, 1) for v in names], [names])
        top = next(s.id for s in model.strata if s.r == d + 1)
        yield f"simplex_d{d}", model, top, dict(zip(names, ints))


def main():
    us = {}
    for name, model, sid, ints in cases():
        x = sk.SkeletonPoint(sid, normalized(ints, {c.id: (c.N,) for c in model.components}))
        best = float("inf")
        for _ in range(ROUNDS):
            start = perf_counter()
            steps = len(sk.reduce_to_divisorial(model, x)[2].steps)
            best = min(best, perf_counter() - start)
        us[name] = best / steps * 1e6
        print(f"{name:12} {steps:4} steps {us[name]:9.1f} us/step")
    print(f"edge_h/edge {us['edge_h'] / us['edge']:.3f}  tri_h/tri {us['tri_h'] / us['tri']:.3f}")


if __name__ == "__main__":
    main()
