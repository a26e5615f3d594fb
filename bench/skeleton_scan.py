"""Workload skeleton_scan: many read-only queries on a few large fixed models, in process.

Why: this workload is read-heavy, with many queries on each model, so a
cached index or a cheaper connected_components pays off here (and may
cost on reduce_chain, which builds a new model at every step).

Models: a cycle, a full simplex, a star and a log-resolution graph of
three chains.  A round runs, on each model, validate, ks_skeleton with
is_connected, is_maximal and cofaces on sampled strata, weight and
retract at seeded points and a serialize/parse/serialize round trip;
essential_skeleton over 2 or 3 seeded forms on the first three models;
and connectedness_report and lct/sk_pair on the log-resolution graph.
The models are the same for every seed; the seed picks the sampled
strata, points and forms.  Sizes keep every operation under about a
second.
"""

from __future__ import annotations

import itertools
import random

from harness import Op
from oracles import Plain, normalized

CYCLE_N = 1200
SIMPLEX_N = 10
SIMPLEX_LOW = 7
FORM_LOW = (3, 5)  # low vertices of the simplex forms, by position
STAR_LEGS = 400
CHAINS, CHAIN_N = 3, 200
SAMPLE = 12
ESSENTIAL_FORMS = {"cycle": 3, "simplex": 2, "star": 3}


class SkeletonScan:
    name = "skeleton_scan"
    subprocesses = False
    round_size = 25
    traced_ops = 2 * round_size

    def __init__(self, root, seed, workdir):
        self.seed = seed

    def setup(self, sk):
        rng = random.Random("skeleton_scan models")  # the same models for every seed
        self.sk = sk
        self.cycle_ids = [f"C{i}" for i in range(CYCLE_N)]
        self.simplex_ids = [f"V{i}" for i in range(SIMPLEX_N)]
        self.leg_ids = [f"L{i}" for i in range(STAR_LEGS)]
        self.chain_ids = [[f"B{b}_{i}" for i in range(CHAIN_N)] for b in range(CHAINS)]

        cycle = self._cycle_mu(rng)
        low = set(rng.sample(self.simplex_ids, SIMPLEX_LOW))
        simplex = {v: 1 if v in low else 2 for v in self.simplex_ids}
        legs = {v: rng.randint(1, 3) for v in self.leg_ids}
        chains = {}
        for b, ids in enumerate(self.chain_ids):
            runs = _runs(rng, CHAIN_N, 1 if b == 0 else rng.randint(0, 2))
            for i, v in enumerate(ids):
                N = rng.randint(1, 3)
                chains[v] = (N, N if runs[i] else N + 1)

        self.models = {
            "cycle": sk.cycle_model(sk.KIND_SNCD, 1, [(v, v, 1, cycle[v]) for v in self.cycle_ids]),
            "simplex": sk.full_complex_model(
                sk.KIND_SNCD, 1, [(v, v, 1, simplex[v]) for v in self.simplex_ids], [self.simplex_ids]),
            "star": sk.star_model(sk.KIND_SNCD, 1, ("Z", "Z", 2, 1),
                                  [(v, v, 1, legs[v]) for v in self.leg_ids]),
            "logres": sk.graph_model(
                sk.KIND_LOG_RESOLUTION, 1, 2, [(v, v, *chains[v]) for v in chains], self._chain_edges()),
        }
        self.plain = {
            "cycle": Plain.graph(sk.KIND_SNCD, 1, {v: (1, cycle[v]) for v in self.cycle_ids},
                                 self._cycle_edges()),
            "simplex": Plain.simplex(sk.KIND_SNCD, 1, {v: (1, simplex[v]) for v in self.simplex_ids}),
            "star": Plain.graph(sk.KIND_SNCD, 1, {"Z": (2, 1), **{v: (1, legs[v]) for v in self.leg_ids}},
                                [(f"e_Z_{v}", "Z", v) for v in self.leg_ids]),
            "logres": Plain.graph(sk.KIND_LOG_RESOLUTION, 1, chains, self._chain_edges()),
        }

    def _cycle_mu(self, rng):
        high = set()
        for _ in range(rng.randint(1, 3)):
            start, length = rng.randrange(CYCLE_N), rng.randint(1, CYCLE_N // 8)
            high |= {(start + k) % CYCLE_N for k in range(length)}
        return {v: 2 if i in high else 1 for i, v in enumerate(self.cycle_ids)}

    def _cycle_edges(self):
        ids = self.cycle_ids
        return [(f"e_{a}_{b}", a, b) for a, b in zip(ids, ids[1:] + ids[:1])]

    def _chain_edges(self):
        return [(f"c_{a}", a, b) for ids in self.chain_ids for a, b in zip(ids, ids[1:])]

    def prepare(self):
        pass

    def generated_models(self):
        return list(self.models.values())

    def ops(self):
        rng = random.Random(f"{self.seed}:ops")
        for _ in itertools.count():
            batch = []
            for name in self.models:
                batch.append(self._op(f"validate:{name}", name, (), True))
                batch.append(self._ks(name))
                batch.append(self._nav(rng, name))
                batch.append(self._points(rng, name))
                batch.append(self._op(f"roundtrip:{name}", name, (), True))
            for name, count in ESSENTIAL_FORMS.items():
                batch.append(self._essential(rng, name, count))
            batch.append(self._report())
            p = self.plain["logres"]
            batch.append(self._op("lct:logres", "logres", (), p.min_locus()))
            rng.shuffle(batch)
            yield from batch

    def _op(self, kind, name, args, expect):
        return Op(kind, (name, *args), expect)

    def _ks(self, name):
        p = self.plain[name]
        lo, chosen = p.ks()
        return self._op(f"ks:{name}", name, (), (lo, chosen, p.connected(chosen)))

    def _essential(self, rng, name, count):
        p, forms, chosen = self.plain[name], [], set()
        for j in range(count):
            mu = self._form_mu(rng, name, j)
            forms.append(self.sk.FormData(1, mu))
            chosen |= p.ks(mu)[1]
        return self._op(f"essential:{name}", name, (tuple(forms),), (chosen, p.connected(chosen)))

    def _form_mu(self, rng, name, j):
        if name == "cycle":
            return self._cycle_mu(rng)
        if name == "simplex":
            low = set(rng.sample(self.simplex_ids, FORM_LOW[j]))
            return {v: 1 if v in low else 2 for v in self.simplex_ids}
        return {"Z": rng.randint(1, 3), **{v: rng.randint(1, 2) for v in self.leg_ids}}

    def _report(self):
        p = self.plain["logres"]
        pair = p.min_locus()[1]
        expect = [(block, bool(pair & block) and p.connected(pair & block))
                  for block in p.blocks(p.strata)]
        return self._op("report:logres", "logres", (), expect)

    def _nav(self, rng, name):
        p = self.plain[name]
        sample = rng.sample(sorted(p.strata), SAMPLE)
        expect = [(p.is_maximal(s), sorted(p.cofaces(s))) for s in sample]
        return self._op(f"nav:{name}", name, (tuple(sample),), expect)

    def _points(self, rng, name):
        p, sk = self.plain[name], self.sk
        strata = sorted(p.strata)
        points, weights, specs, retracts = [], [], [], []
        for _ in range(SAMPLE):
            sid = rng.choice(strata)
            alpha = normalized({v: rng.randint(1, 9) for v in p.vertices(sid)}, p.comps)
            points.append(sk.SkeletonPoint(sid, alpha))
            weights.append(p.weight(sid, alpha))
        for _ in range(SAMPLE):
            sid = rng.choice(strata)
            verts = p.vertices(sid)
            ints = {v: rng.randint(0 if len(verts) > 1 else 1, 9) for v in verts}
            if not any(ints.values()):
                ints[verts[0]] = 1
            values = normalized(ints, p.comps)
            specs.append(sk.PointSpec(sid, values))
            target = p.face(sid, [v for v in verts if ints[v]])
            retracts.append((target, {v: values[v] for v in verts if ints[v]}))
        return self._op(f"points:{name}", name, (tuple(points), tuple(specs)), (weights, retracts))

    def call(self, op):
        sk = self.sk
        query = op.kind.partition(":")[0]
        name, *args = op.args
        model = self.models[name]
        if query == "validate":
            return sk.validate(model).ok
        if query == "ks":
            sub = sk.ks_skeleton(model)
            return sk.min_weight(model), set(sub.strata), sk.is_connected(model, sub)
        if query == "essential":
            sub = sk.essential_skeleton(model, args[0])
            return set(sub.strata), sk.is_connected(model, sub)
        if query == "report":
            return sk.connectedness_report(model)
        if query == "lct":
            return sk.lct(model), set(sk.sk_pair(model).strata)
        if query == "nav":
            return [(sk.is_maximal(model, s), sorted(sk.cofaces(model, s))) for s in args[0]]
        if query == "points":
            points, specs = args
            weights = [sk.weight(model, x) for x in points]
            retracts = [sk.retract(model, spec) for spec in specs]
            return weights, [(y.stratum, y.alpha) for y in retracts]
        text = sk.serialize_model(model)
        again = sk.parse_model(text)
        return sk.serialize_model(again) == text and again == model

    replay = call

    def check(self, op, result):
        if result == op.expect:
            return None
        return f"{op.kind}: answer differs from the closed form"


def _runs(rng, n, count):
    """A mask along 0..n-1 that is True on `count` seeded short runs (which may merge)."""
    mask = [False] * n
    for _ in range(count):
        start = rng.randrange(n - 8)
        for i in range(start, start + rng.randint(1, 8)):
            mask[i] = True
    return mask
