"""Workload cli_corpus: ``python -m skelkit.cli`` over the 16 bundled models.

Why: this is what a command-line user waits for.  Interpreter start,
import and ``modelfile`` dominate it; the compute layers do almost
nothing.

Each round runs every command variant once, on a seeded model of a kind
the command accepts, with seeded strata, points, centers and forms.  The
traced run replays the same argument lists in process through
``skelkit.cli.main``.

Mutated copies of seeded models (bad JSON, a missing face, N = 0) are
not timed: ``probe`` runs every (command variant, mutation) pairing
once, in process, and counts the runs that did not end with exit 1 or 2
and a message.  At this version of skelkit most of them are accepted or
end in a traceback (a known defect), so they would make timed
operations fail; the counts are reported beside the timed metrics.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

from harness import Op, child_env
from oracles import Plain, euclid, normalized

NAMES = (
    "cusp", "edge_23", "kodaira_I0", "kodaira_I0star", "kodaira_I1", "kodaira_I2",
    "kodaira_I2star", "kodaira_I5", "kodaira_II", "kodaira_III", "kodaira_IIIstar",
    "kodaira_IIstar", "kodaira_IV", "kodaira_IVstar", "node", "reduced_fiber",
)
VARIANTS = (
    "validate", "info", "weight", "retract", "classify", "blowup-stratum", "blowup-point",
    "reduce", "ks", "ks-form", "essential", "lct", "report", "export-graph", "export-structured",
)
MUTATIONS = ("bad-json", "missing-face", "n-zero")
PAIRINGS = tuple((variant, mutation) for variant in VARIANTS for mutation in MUTATIONS)
FORMS = 2


class CliCorpus:
    name = "cli_corpus"
    subprocesses = True
    round_size = len(VARIANTS)
    traced_ops = 5 * round_size

    def __init__(self, root, seed, workdir):
        self.root, self.seed, self.workdir = root, seed, workdir

    def _write(self, name, text):
        """The path the file will have; `prepare` writes it, outside the timed set-up."""
        path = self.workdir / name
        self.files[path] = text
        return str(path)

    def setup(self, sk):
        rng = random.Random(f"{self.seed}:setup")
        self.texts, self.paths, self.mutants, self.forms, self.files = {}, {}, {}, {}, {}
        for name in NAMES:
            path = self.root / "src" / "skelkit" / "data" / f"{name}.model"
            text = path.read_text()
            model = sk.parse_model(text)
            self.texts[name] = text
            self.paths[name] = str(path)
            for k in range(FORMS):
                mu = {c.id: rng.randint(1, 4) for c in model.components}
                self.forms[(name, k)] = (self._write(f"{name}.form{k}.json", json.dumps({"m": 1, "mu": mu})), mu)
            cells = [s for s in model.strata if len(s.vertices) > 1]
            if not cells:
                continue
            cut = rng.randrange(len(text) // 4, 3 * len(text) // 4)
            self.mutants[(name, "bad-json")] = self._write(f"{name}.bad-json.model", text[:cut])
            cell = rng.choice(cells)
            gone = rng.choice(cell.vertices)
            strata = tuple(
                dataclasses.replace(s, face_map={v: t for v, t in s.face_map.items() if v != gone})
                if s.id == cell.id else s
                for s in model.strata
            )
            self.mutants[(name, "missing-face")] = self._write(
                f"{name}.missing-face.model", sk.serialize_model(model.replace(strata=strata)))
            victim = rng.choice(model.components).id
            comps = tuple(dataclasses.replace(c, N=0) if c.id == victim else c for c in model.components)
            self.mutants[(name, "n-zero")] = self._write(
                f"{name}.n-zero.model", sk.serialize_model(model.replace(components=comps)))

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for path, text in self.files.items():
            path.write_text(text)
        self.plain = {name: Plain.from_text(text) for name, text in self.texts.items()}
        self.valid = {v: [n for n in NAMES if self._accepts(v, n)] for v in VARIANTS}
        mutable = {name for name, _ in self.mutants}
        self.mutable = {v: [n for n in self.valid[v] if n in mutable] for v in VARIANTS}

    def _accepts(self, variant, name):
        p = self.plain[name]
        if variant in ("lct", "report"):
            return p.kind == "log-resolution"
        if variant == "blowup-stratum":
            return any(len(p.vertices(s)) > 1 for s in p.maximal())
        if variant == "reduce":
            return any(len(c["vertices"]) > 1 for c in p.strata.values())
        return True

    def ops(self):
        rng = random.Random(f"{self.seed}:ops")
        while True:
            batch = [self._op(rng, v, rng.choice(self.valid[v])) for v in VARIANTS]
            rng.shuffle(batch)
            yield from batch

    def mutant_ops(self):
        """One run per (command variant, mutation) pairing, on a seeded mutated model."""
        rng = random.Random(f"{self.seed}:mutants")
        for variant, mutation in PAIRINGS:
            name = rng.choice(self.mutable[variant])
            op = self._op(rng, variant, name, self.mutants[(name, mutation)])
            yield dataclasses.replace(op, kind=f"{mutation}:{variant}")

    def probe(self):
        """Run every mutant once in process; a run that is not a clean rejection fails."""
        ops = list(self.mutant_ops())
        failed, tracebacks, examples = 0, 0, []
        for op in ops:
            code, out, err = self.replay(op)
            crashed = "Traceback" in err
            # validate reports the violations it finds on stdout
            message = err.strip() or (op.args[0] == "validate" and out.strip())
            if not crashed and code in (1, 2) and message:
                continue
            failed += 1
            tracebacks += crashed
            if len(examples) < 8:
                examples.append(f"{op.kind}: {err.strip().splitlines()[-1] if crashed else f'exit {code}'}")
        return {"cli.mutants.attempted": len(ops), "cli.mutants.failed": failed,
                "cli.mutants.tracebacks": tracebacks, "examples": examples}

    def _op(self, rng, variant, name, path=None):
        tail, expect = getattr(self, "_" + variant.replace("-", "_"))(rng, name, self.plain[name])
        return Op(variant, (variant.partition("-")[0], path or self.paths[name], *tail), expect)

    # One method per command variant: (arguments after the model path, expected outcome).

    def _validate(self, rng, name, p):
        return (), ("stdout", "valid\n")

    def _info(self, rng, name, p):
        lines = [f"kind: {p.kind}", f"m: {p.m}", f"ambient_dim: {p.ambient}",
                 f"components: {len(p.comps)}", f"strata: {len(p.strata)}"]
        lines += [f"  {c}: N={N} mu={mu}" for c, (N, mu) in p.comps.items()]
        return (), ("stdout", "\n".join(lines) + "\n")

    def _weight(self, rng, name, p):
        sid = rng.choice(list(p.strata))
        verts = p.vertices(sid)
        alpha = normalized({v: rng.randint(1, 9) for v in verts}, p.comps)
        tail = ("--stratum", sid, "--alpha", ",".join(str(alpha[v]) for v in verts))
        return tail, ("stdout", f"{p.weight(sid, alpha)}\n")

    def _retract(self, rng, name, p):
        cells = [s for s, c in p.strata.items() if len(c["vertices"]) > 1]
        sid = rng.choice(cells or list(p.strata))
        verts = p.vertices(sid)
        ints = {v: rng.randint(1, 9) for v in verts}
        if len(verts) > 1 and rng.random() < 0.5:
            ints[rng.choice(verts)] = 0
        values = normalized(ints, p.comps)
        target = p.face(sid, [v for v in verts if ints[v]])
        pairs = ",".join(f"{v}={values[v]}" for v in p.vertices(target))
        tail = ("--stratum", sid, "--values", ",".join(str(values[v]) for v in verts))
        return tail, ("stdout", f"stratum={target}; alpha={pairs}\n")

    def _classify(self, rng, name, p):
        sid = rng.choice(list(p.strata))
        zero, pole = p.strata[sid]["touches_zero"], p.strata[sid]["touches_pole"]
        shape = {(False, False): "affine", (True, False): "concave",
                 (False, True): "convex", (True, True): "unknown"}[(zero, pole)]
        return ("--stratum", sid), ("stdout", shape + "\n")

    def _blowup_stratum(self, rng, name, p):
        sid = rng.choice([s for s in p.maximal() if len(p.vertices(s)) > 1])
        verts = p.vertices(sid)
        new = (sum(p.comps[v][0] for v in verts), sum(p.comps[v][1] for v in verts))
        strata = len(p.strata) - 1 + 2 ** len(verts) - 1
        return ("--stratum", sid), ("model", _fresh(p.comps), new, len(p.comps) + 1, strata)

    def _blowup_point(self, rng, name, p):
        sid = rng.choice(p.maximal())
        verts = p.vertices(sid)
        size = rng.randint(1, max(1, min(len(verts), p.ambient - 1)))
        chosen = set(rng.sample(verts, size))
        center = [v for v in verts if v in chosen]
        codim = rng.randint(size + 1, p.ambient)
        new = (sum(p.comps[v][0] for v in center),
               sum(p.comps[v][1] for v in center) + p.m * (codim - size))
        strata = len(p.strata) + 2 ** size
        tail = ("--point", sid, ",".join(center), str(codim))
        return tail, ("model", _fresh(p.comps), new, len(p.comps) + 1, strata)

    def _reduce(self, rng, name, p):
        sid = rng.choice([s for s, c in p.strata.items() if len(c["vertices"]) > 1])
        verts = p.vertices(sid)
        ints = {v: rng.randint(1, 12) for v in verts}
        alpha = normalized(ints, p.comps)
        steps, last = euclid(ints.values())
        final = last * alpha[verts[0]] / ints[verts[0]]
        taken = set(p.comps)
        for _ in range(steps):
            comp = _fresh(taken)
            taken.add(comp)
        line = f"final: {comp} (N={1 / final}, mu={p.weight(sid, alpha) / final})\n"
        tail = ("--stratum", sid, "--alpha", ",".join(str(alpha[v]) for v in verts))
        return tail, ("reduce", steps, line)

    def _ks(self, rng, name, p):
        lo, chosen = p.ks()
        return (), ("stdout", f"min={lo}; {_subcomplex(p, chosen)}")

    def _ks_form(self, rng, name, p):
        path, mu = self.forms[(name, rng.randrange(FORMS))]
        lo, chosen = p.ks(mu)
        return ("--form", path), ("stdout", f"min={lo}; {_subcomplex(p, chosen)}")

    def _essential(self, rng, name, p):
        chosen, tail = set(), []
        for k in range(FORMS):
            path, mu = self.forms[(name, k)]
            chosen |= p.ks(mu)[1]
            tail += ["--form", path]
        return tuple(tail), ("stdout", _subcomplex(p, chosen))

    def _lct(self, rng, name, p):
        lo, chosen = p.min_locus()
        return (), ("stdout", f"lct={lo}; sk_pair={{{','.join(sorted(chosen))}}}\n")

    def _report(self, rng, name, p):
        pair = p.min_locus()[1]
        lines = []
        for block in p.blocks(p.strata):
            inside = pair & block
            ok = bool(inside) and p.connected(inside)
            lines.append(f"component {{{','.join(sorted(block))}}}: threshold locus "
                         f"connected={str(ok).lower()}\n")
        return (), ("stdout", "".join(lines))

    def _export_graph(self, rng, name, p):
        marked = p.min_locus()[1] if p.kind == "log-resolution" else p.ks()[1]
        lines = ["graph dual_complex {"]
        for sid, cell in p.strata.items():
            verts = cell["vertices"]
            if len(verts) == 1:
                N, mu = p.comps[verts[0]]
                label = f"{sid}: {verts[0]} (N={N}, mu={mu})"
            else:
                label = f"{sid}: {{{','.join(verts)}}}"
            fill = ", style=filled, fillcolor=lightgrey" if sid in marked else ""
            lines.append(f'  "{sid}" [label="{label}"{fill}];')
        for sid, cell in p.strata.items():
            lines += [f'  "{sid}" -- "{cell["faces"][v]}";' for v in cell["vertices"] if v in cell["faces"]]
        return ("--format", "graph"), ("stdout", "\n".join(lines + ["}"]) + "\n")

    def _export_structured(self, rng, name, p):
        return ("--format", "structured"), ("stdout", self.texts[name])

    def call(self, op):
        done = subprocess.run([sys.executable, "-m", "skelkit.cli", *op.args], capture_output=True,
                              text=True, env=child_env(), cwd=self.root, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def replay(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = importlib.import_module("skelkit.cli").main(list(op.args))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # what the interpreter would print before exiting with 1
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result):
        code, out, err = result
        where = " ".join(op.args)
        kind, *expect = op.expect
        if "Traceback" in err:
            return f"{where}: traceback, {err.strip().splitlines()[-1]}"
        if code != 0:
            return f"{where}: exit {code}: {err.strip()[-200:]}"
        if kind == "stdout":
            return None if out == expect[0] else f"{where}: unexpected output"
        if kind == "reduce":
            steps, final = expect
            lines = out.splitlines(keepends=True)
            if len(lines) == steps + 1 and lines[-1] == final:
                return None
            return f"{where}: {len(lines) - 1} steps, expected {steps}; {lines[-1:]}"
        comp, (N, mu), n_comps, n_strata = expect
        try:
            doc = json.loads(out)
        except ValueError:
            return f"{where}: output is not a model file"
        new = [c for c in doc["components"] if c["id"] == comp]
        if (len(doc["components"]), len(doc["strata"])) == (n_comps, n_strata) and \
                new and (new[0]["N"], new[0]["mu"]) == (N, mu):
            return None
        return f"{where}: blown-up model differs from the expected shape"

def _fresh(taken):
    k = 1
    while f"exc{k}" in taken:
        k += 1
    return f"exc{k}"


def _subcomplex(p, chosen):
    return f"strata={{{','.join(sorted(chosen))}}}; connected={p.tail(chosen)}\n"
