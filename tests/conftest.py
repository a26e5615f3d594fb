"""Shared fixtures: the bundled corpus and seeded random generators."""

import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import skelkit as sk
from skelkit.cli import main

BUNDLED_NAMES = [
    "cusp",
    "edge_23",
    "kodaira_I0",
    "kodaira_I0star",
    "kodaira_I1",
    "kodaira_I2",
    "kodaira_I2star",
    "kodaira_I5",
    "kodaira_II",
    "kodaira_III",
    "kodaira_IIIstar",
    "kodaira_IIstar",
    "kodaira_IV",
    "kodaira_IVstar",
    "node",
    "reduced_fiber",
]
KODAIRA_NAMES = [n for n in BUNDLED_NAMES if n.startswith("kodaira_")]
# models with expansion data, kept beside the goldens: the edge_h and tri_h cells of
# bench/reduce_chain.py, a triangle whose num keeps bending through a reduction and
# one whose den bends, so that `ks` refuses it
EXPANSION_NAMES = ["edge_h", "tri_h", "tri_num_bends", "tri_den_bends"]
GOLDEN = Path(__file__).resolve().parent / "golden"


def bundled_path(name):
    return resources.files("skelkit").joinpath(f"data/{name}.model")


def model_path(name):
    """The file of a bundled model or of one of the expansion models."""
    return GOLDEN / f"{name}.model" if name in EXPANSION_NAMES else bundled_path(name)


def load_bundled(name):
    return sk.parse_model(bundled_path(name).read_text())


@pytest.fixture(scope="session")
def bundled():
    return {name: load_bundled(name) for name in BUNDLED_NAMES}


def random_graph_model(rng, max_components=5):
    """A connected weighted graph, possibly with parallel edges."""
    n = rng.randint(2, max_components)
    comps = [
        (f"C{k}", f"component {k}", rng.randint(1, 5), rng.randint(1, 5))
        for k in range(n)
    ]
    edges = [(f"e{k}", f"C{rng.randrange(k)}", f"C{k}") for k in range(1, n)]
    for j in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        edges.append((f"p{j}", f"C{a}", f"C{b}"))
    return sk.graph_model(sk.KIND_SNCD, rng.randint(1, 3), 2, comps, edges)


def random_complex_model(rng):
    """A small simplicial complex with random 2- and 3-element maximal cells."""
    n = rng.randint(3, 5)
    comps = [
        (f"C{k}", f"component {k}", rng.randint(1, 5), rng.randint(1, 5))
        for k in range(n)
    ]
    ids = [c[0] for c in comps]
    maximal = [
        rng.sample(ids, rng.randint(2, 3)) for _ in range(rng.randint(1, 3))
    ]
    return sk.full_complex_model(
        sk.KIND_SNCD, rng.randint(1, 3), comps, maximal, ambient_dim=3
    )


def random_simplex_model(rng, expansion=False):
    """A full simplex on 2-4 components, with expansion data on its top cell half
    the time, or always if asked."""
    r, m = rng.randint(2, 4), rng.randint(1, 2)
    names = "ABCD"[:r]
    comps = [(v, v, rng.randint(1, 4), rng.randint(m, m + 3)) for v in names]
    model = sk.full_complex_model(sk.KIND_SNCD, m, comps, [list(names)])
    if not expansion and rng.random() < 0.5:
        return model
    # per-vertex minima mu - m, as validate requires, with no single minimal monomial
    top = max(model.strata, key=lambda s: s.r)
    base = [mu - m for *_, mu in comps]
    num = frozenset(tuple(b + (i == j) for j, b in enumerate(base)) for i in range(r))
    pair = sk.SeriesPair(sk.Support(top.id, top.vertices, num),
                         sk.Support(top.id, top.vertices, frozenset({(0,) * r})))
    return model.replace(strata=tuple(
        s.replace(horizontal=pair) if s is top else s for s in model.strata))


def random_point(rng, model, stratum_id, max_part=9):
    """A normalized point in the open face of a stratum."""
    s = model.stratum(stratum_id)
    parts = {v: rng.randint(1, max_part) for v in s.vertices}
    total = sum(parts[v] * model.component(v).N for v in s.vertices)
    return sk.SkeletonPoint(
        stratum_id, {v: Fraction(parts[v], total) for v in s.vertices}
    )


def random_barycentric(rng, model, stratum_id, max_part=9):
    s = model.stratum(stratum_id)
    parts = {v: rng.randint(1, max_part) for v in s.vertices}
    total = sum(parts.values())
    return sk.BarycentricPoint(
        stratum_id, {v: Fraction(parts[v], total) for v in s.vertices}
    )


def _csv(values):
    return ",".join(str(v) for v in values)


def _normalized(model, vertices, parts):
    total = sum(p * model.component(v).N for v, p in zip(vertices, parts))
    return [Fraction(p, total) for p in parts]


def cli_runs(name):
    """(label, argv) for every subcommand on one model, its top stratum and two forms.

    argv holds the placeholders {model}, {form0} and {form1}.
    """
    model = sk.parse_model(model_path(name).read_text())
    top = min(model.strata, key=lambda s: (-s.r, s.id))
    verts = top.vertices
    skewed = _normalized(model, verts, range(1, len(verts) + 1))
    first_zero = _normalized(model, verts, range(len(verts)) if len(verts) > 1 else [1])
    return [
        ("validate", ["validate", "{model}"]),
        ("info", ["info", "{model}"]),
        ("ks", ["ks", "{model}"]),
        ("ks-form", ["ks", "{model}", "--form", "{form0}"]),
        ("essential", ["essential", "{model}", "--form", "{form0}", "--form", "{form1}"]),
        ("lct", ["lct", "{model}"]),
        ("report", ["report", "{model}"]),
        ("export-graph", ["export", "{model}"]),
        ("export-structured", ["export", "{model}", "--format", "structured"]),
        ("classify", ["classify", "{model}", "--stratum", top.id]),
        ("weight", ["weight", "{model}", "--stratum", top.id, "--alpha", _csv(skewed)]),
        ("retract", ["retract", "{model}", "--stratum", top.id, "--values", _csv(first_zero)]),
        ("reduce", ["reduce", "{model}", "--stratum", top.id, "--alpha", _csv(skewed)]),
        ("blowup-stratum", ["blowup", "{model}", "--stratum", top.id]),
        ("blowup-point",
         ["blowup", "{model}", "--point", top.id, verts[0], str(model.ambient_dim)]),
    ]


def write_forms(name, workdir):
    """Write two forms over the model's components (mu cycling through 1..3 and 1..2);
    returns the placeholder substitutions {form0} and {form1}."""
    comps = [c.id for c in sk.parse_model(model_path(name).read_text()).components]
    paths = {}
    for k, period in enumerate((3, 2)):
        mu = {c: (i + k) % period + 1 for i, c in enumerate(comps)}
        path = Path(workdir) / f"{name}.form{k}.json"
        path.write_text(json.dumps({"m": 1, "mu": mu}))
        paths[f"{{form{k}}}"] = str(path)
    return paths


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI run; an escaping
    exception is recorded in stderr as its traceback, as the interpreter would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()
