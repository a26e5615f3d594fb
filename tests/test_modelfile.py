"""Model documents: strict parsing, canonical serialization."""

import ast
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import skelkit as sk
from conftest import BUNDLED_NAMES, bundled_path, load_bundled


def minimal_doc():
    return {
        "kind": "sncd-over-dvr",
        "m": 1,
        "ambient_dim": 2,
        "components": [{"id": "A", "name": "A", "N": 2, "mu": 1}],
        "strata": [{"id": "v_A", "vertices": ["A"]}],
    }


def test_roundtrip_bundled(bundled):
    for name in BUNDLED_NAMES:
        text = bundled_path(name).read_text()
        model = sk.parse_model(text)
        assert sk.serialize_model(model) == text
        assert sk.parse_model(sk.serialize_model(model)) == model


def _chains(count, length):
    ids = [[f"B{b}_{i}" for i in range(length)] for b in range(count)]
    comps = [(v, v, 1 + i % 3, 2 + i % 2) for chain in ids for i, v in enumerate(chain)]
    edges = [(f"c_{a}", a, b) for chain in ids for a, b in zip(chain, chain[1:])]
    return sk.graph_model(sk.KIND_LOG_RESOLUTION, 1, 2, comps, edges)


LARGE = {  # the shapes and sizes of the skeleton_scan benchmark models
    "cycle": lambda: sk.cycle_model(
        sk.KIND_SNCD, 1, [(f"C{i}", f"C{i}", 1, 1 + i % 2) for i in range(1200)]),
    "simplex": lambda: sk.full_complex_model(
        sk.KIND_SNCD, 1, [(f"V{i}", f"V{i}", 1, 1 + i % 3) for i in range(10)],
        [[f"V{i}" for i in range(10)]]),
    "star": lambda: sk.star_model(
        sk.KIND_SNCD, 1, ("Z", "Z", 2, 1), [(f"L{i}", f"L{i}", 1, 1 + i % 3) for i in range(400)]),
    "chains": lambda: _chains(3, 200),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_roundtrip_large_models(name):
    model = LARGE[name]()
    text = sk.serialize_model(model)
    back = sk.parse_model(text)
    assert back == model
    assert sk.serialize_model(back) == text


def test_generator_reproduces_the_bundled_corpus():
    script = Path(__file__).resolve().parents[1] / "tools" / "generate_data.py"
    spec = importlib.util.spec_from_file_location("generate_data", script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert sorted(generator.BUILDERS) == sorted(BUNDLED_NAMES)
    for name, build in generator.BUILDERS.items():
        assert sk.serialize_model(build()) == bundled_path(name).read_text(), name


def test_save_and_load(tmp_path):
    m = load_bundled("cusp")
    target = tmp_path / "copy.model"
    sk.save_model(m, target)
    assert sk.load_model(target) == m


def test_defaults_are_filled():
    m = sk.parse_model(json.dumps(minimal_doc()))
    s = m.stratum("v_A")
    assert s.face_map == {} and not s.touches_zero and not s.touches_pole
    assert s.horizontal is None


def err(doc):
    with pytest.raises(sk.ModelFormatError) as e:
        sk.parse_model(json.dumps(doc))
    return str(e.value)


def test_top_level_errors():
    assert "top level" in err([1, 2])
    d = minimal_doc()
    d["surprise"] = 1
    assert "unknown keys" in err(d)
    d = minimal_doc()
    del d["kind"]
    assert "missing key 'kind'" in err(d)
    d = minimal_doc()
    d["m"] = True
    assert "integer" in err(d)
    d = minimal_doc()
    d["m"] = "1"
    assert "expected int" in err(d)


def test_component_errors():
    d = minimal_doc()
    d["components"] = [{"id": "A", "name": "A", "N": 2, "mu": 1, "color": "red"}]
    assert "components[0]" in err(d)
    d["components"] = [{"id": "A", "name": "A", "N": "2", "mu": 1}]
    assert "components[0]" in err(d)
    d["components"] = ["A"]
    assert "must be an object" in err(d)


def test_stratum_errors():
    d = minimal_doc()
    d["strata"] = [{"id": "v_A", "vertices": [1]}]
    assert "strata[0].vertices" in err(d)
    d["strata"] = [{"id": "v_A", "vertices": ["A"], "faces": {"A": 3}}]
    assert "strata[0].faces" in err(d)
    d["strata"] = [{"id": "v_A", "vertices": ["A"], "touches_zero": "yes"}]
    assert "expected bool" in err(d)


def test_horizontal_errors():
    d = minimal_doc()
    d["strata"] = [
        {"id": "v_A", "vertices": ["A"], "horizontal": {"num": [[1]], "den": [[0]], "x": 1}}
    ]
    assert "unknown keys" in err(d)
    d["strata"] = [{"id": "v_A", "vertices": ["A"], "horizontal": {"num": [[1]]}}]
    assert "missing key 'den'" in err(d)
    d["strata"] = [
        {"id": "v_A", "vertices": ["A"], "horizontal": {"num": [[-1]], "den": [[0]]}}
    ]
    assert "strata[0].horizontal.num" in err(d)
    d["strata"] = [
        {"id": "v_A", "vertices": ["A"], "horizontal": {"num": [], "den": [[0]]}}
    ]
    assert "at least one exponent" in err(d)
    d["strata"] = [
        {"id": "v_A", "vertices": ["A"], "horizontal": {"num": [[1, 2]], "den": [[0]]}}
    ]
    assert "length 2" in err(d)
    d["strata"] = [
        {"id": "v_A", "vertices": ["A"], "horizontal": {"num": [[True]], "den": [[0]]}}
    ]
    assert "integer vectors" in err(d) and "strata[0].horizontal.num" in err(d)


def test_syntax_error_location():
    with pytest.raises(sk.ModelFormatError) as e:
        sk.parse_model('{\n  "kind": }')
    assert "line 2" in str(e.value)
    assert e.value.location is not None


def test_load_missing_file(tmp_path):
    with pytest.raises(sk.ModelFormatError):
        sk.load_model(tmp_path / "nope.model")


def test_parse_fraction():
    from fractions import Fraction

    assert sk.parse_fraction(" 3/4 ") == Fraction(3, 4)
    assert sk.parse_fraction("5") == 5
    assert sk.parse_fraction("-0.25") == Fraction(-1, 4)
    assert sk.parse_fraction(".5") == Fraction(1, 2)
    assert sk.format_fraction(Fraction(5, 10)) == "1/2"
    # exponent notation is refused: Fraction("1e9999999") takes seconds to build
    for bad in ("x", "1/0", "1.5.2", "1e5", "2.5E-3", "1e9999999"):
        with pytest.raises(sk.DomainError):
            sk.parse_fraction(bad)


def test_serialization_is_canonical():
    m = load_bundled("kodaira_I5")
    shuffled = sk.SncdModel(
        m.kind, m.m, m.ambient_dim, m.components[::-1], m.strata[::-1]
    )
    assert sk.serialize_model(shuffled) == sk.serialize_model(m)


def test_an_integer_too_long_to_print_is_a_domain_error():
    digits = sys.get_int_max_str_digits()
    big = sk.graph_model(sk.KIND_SNCD, 1, 2, [("A", "A", 10**digits, 1)], [])
    with pytest.raises(sk.DomainError, match="digit limit"):
        sk.serialize_model(big)
    with pytest.raises(sk.DomainError, match="digit limit"):
        sk.format_fraction(Fraction(1, 10**digits))


def _package_imports(path):
    """The skelkit modules a source file imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["skelkit" if node.level else None, node.module]))
            names = [f"{module}.{a.name}" for a in node.names] if module == "skelkit" else [module]
        else:
            continue
        found |= {n.split(".")[1] for n in names if n.startswith("skelkit.")}
    return found


def test_only_the_record_base_decides_how_a_record_stores_its_fields():
    package = Path(__file__).resolve().parents[1] / "src" / "skelkit"
    for path in package.glob("*.py"):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module in ("_record", "skelkit._record"):
                assert [a.name for a in node.names] == ["Record"], path.name
        if path.stem != "_record":
            assert "object.__setattr__" not in source and "object.__new__" not in source, path.name


def test_the_file_layer_imports_no_skeleton_layer():
    source = Path(__file__).resolve().parents[1] / "src" / "skelkit" / "modelfile.py"
    assert _package_imports(source) <= {"errors", "model", "series"}


_RANKS = {
    "_record": 0, "errors": 0, "series": 1, "model": 2, "skeleton": 3, "modelfile": 3,
    "complexes": 3, "modify": 4, "essential": 4, "birational": 5, "cli": 6,
}


# validate's rules that `model._check_form` applies to a form too; no other module restates them
_MODEL_ONLY = {"_degree_violations", "_flag_break", "CODE_FLAG_MONOTONICITY"}


def test_each_module_imports_only_lower_ranks():
    package = Path(__file__).resolve().parents[1] / "src" / "skelkit"
    assert {p.stem for p in package.glob("*.py")} == {*_RANKS, "__init__"}
    for name, rank in _RANKS.items():
        above = {m for m in _package_imports(package / f"{name}.py") if _RANKS[m] >= rank}
        assert not above, (name, above)
    for path in package.glob("*.py"):
        if path.stem != "model":
            tree = ast.parse(path.read_text())
            named = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     for a in node.names}
            named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not named & _MODEL_ONLY, (path.name, named & _MODEL_ONLY)


def _owned(node, owner=None):
    """Every node below node, with the name of the innermost function holding it."""
    for child in ast.iter_child_nodes(node):
        yield child, owner
        yield from _owned(child, child.name if isinstance(child, ast.FunctionDef) else owner)


def test_only_cli_main_writes_stdout():
    # every print goes to stderr, and stdout is named only where the CLI writes its output
    package = Path(__file__).resolve().parents[1] / "src" / "skelkit"
    for path in package.glob("*.py"):
        for node, owner in _owned(ast.parse(path.read_text())):
            where = (path.name, owner, getattr(node, "lineno", None))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                files = [ast.unparse(k.value) for k in node.keywords if k.arg == "file"]
                assert files == ["sys.stderr"], where
            if isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__"):
                assert (path.stem, owner) in {("cli", "main"), ("cli", "main_entry")}, where
            if isinstance(node, ast.alias):
                assert node.name not in ("stdout", "__stdout__"), where


# math functions of integers only; any other would bring a float into the arithmetic
_INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def test_the_package_computes_without_floats():
    # everything stays Fraction: no float or complex literal, no use of the name
    # float, and from math only integer functions, imported by name
    package = Path(__file__).resolve().parents[1] / "src" / "skelkit"
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            where = (path.name, getattr(node, "lineno", None))
            inexact = isinstance(node, ast.Constant) and type(node.value) in (float, complex)
            assert not inexact, where
            assert not (isinstance(node, ast.Name) and node.id == "float"), where
            if isinstance(node, ast.Import):
                assert "math" not in [a.name for a in node.names], where
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                assert {a.name for a in node.names} <= _INTEGER_MATH, where
