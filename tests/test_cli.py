"""Command line behavior: outputs, exit codes, determinism."""

import json
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import skelkit as sk
from skelkit.cli import main
from conftest import (
    BUNDLED_NAMES, EXPANSION_NAMES, bundled_path, cli_runs, load_bundled, model_path, run_cli,
    write_forms,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name):
    return str(bundled_path(name))


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", path("cusp"))
    assert code == 0 and out == "valid\n"


def test_validate_reports_violations(tmp_path, capsys):
    doc = json.loads(bundled_path("edge_23").read_text())
    doc["strata"] = [s for s in doc["strata"] if s["id"] != "v_A"]
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "missing-singleton" in out


def test_parse_error_is_exit_2(tmp_path, capsys):
    f = tmp_path / "broken.model"
    f.write_text("{nope")
    code, _, err = run(capsys, "validate", str(f))
    assert code == 2
    assert "parse error" in err and "line 1" in err
    code, _, err = run(capsys, "info", str(tmp_path / "missing.model"))
    assert code == 2


def test_info(capsys):
    code, out, _ = run(capsys, "info", path("kodaira_IIstar"))
    assert code == 0
    assert "components: 9" in out
    assert "C6: N=6 mu=1" in out


def test_weight_and_retract(capsys):
    code, out, _ = run(
        capsys, "weight", path("edge_23"), "--stratum", "e_A_B", "--alpha", "1/4,1/6"
    )
    assert code == 0 and out == "5/12\n"
    code, out, _ = run(
        capsys, "retract", path("edge_23"), "--stratum", "e_A_B", "--values", "0,1/3"
    )
    assert code == 0 and out == "stratum=v_B; alpha=B=1/3\n"


def test_weight_rejects_bad_points(capsys):
    code, _, err = run(
        capsys, "weight", path("edge_23"), "--stratum", "e_A_B", "--alpha", "1/4,1/4"
    )
    assert code == 1 and "5/4" in err
    code, _, err = run(
        capsys, "weight", path("edge_23"), "--stratum", "e_A_B", "--alpha", "1/4"
    )
    assert code == 1 and "2 vertices" in err


@pytest.mark.parametrize("command, option", [
    ("weight", "--alpha"), ("reduce", "--alpha"), ("retract", "--values"),
])
@pytest.mark.parametrize("text", ["1/4,,1/6", "1/4,1/6,", ",1/4,1/6", "1/4, ,1/6"])
def test_an_empty_tuple_entry_is_refused(command, option, text):
    code, out, err = run_cli([command, path("edge_23"), "--stratum", "e_A_B", option, text])
    assert code == 1 and out == "" and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("first", ["1/" + "3" * 5000, "x" * 3000])
def test_a_long_bad_rational_is_reported_in_one_short_line(first):
    code, out, err = run_cli(
        ["weight", path("edge_23"), "--stratum", "e_A_B", "--alpha", f"{first},1/6"]
    )
    assert code == 1 and out == "" and len(err.splitlines()) == 1, err
    assert len(err.encode()) < 200 and "set_int_max_str_digits" not in err
    assert f"({len(first)} characters)" in err


@pytest.mark.parametrize("stratum, center, codim", [
    ("e_A_B", "A", "9" * 5000),
    ("e_A_B", "A", "9" * 4000),
    ("e_A_B", ",".join(f"Z{i}" for i in range(20000)), "2"),
    ("s" * 3000, "A", "2"),
])
def test_a_long_bad_blowup_point_is_reported_in_one_short_line(stratum, center, codim):
    code, out, err = run_cli(["blowup", path("edge_23"), "--point", stratum, center, codim])
    assert code == 1 and out == "" and len(err.splitlines()) == 1, err
    assert len(err) <= 200 and "characters)" in err


def test_a_repeated_blowup_point_component_is_rejected():
    code, out, err = run_cli(["blowup", path("edge_23"), "--point", "e_A_B", "A,A", "2"])
    assert (code, out) == (1, "") and len(err.splitlines()) == 1, err
    assert "'A,A' repeat a component" in err


@pytest.mark.parametrize("center", ["A,,B", "A,B,", ",A", ""])
def test_an_empty_blowup_point_component_is_rejected(center):
    # an empty entry names no component; it is not dropped to leave {A, B}
    code, out, err = run_cli(["blowup", path("edge_23"), "--point", "e_A_B", center, "2"])
    assert (code, out) == (1, "") and len(err.splitlines()) == 1, err
    assert f"center components {center!r} are not a nonempty subset" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", path("edge_23"), "--stratum", "e_A_B")
    assert code == 0 and out == "affine\n"


def test_blowup_stratum_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "blown.model"
    code, out, _ = run(
        capsys, "blowup", path("edge_23"), "--stratum", "e_A_B", "-o", str(out_path)
    )
    assert code == 0
    assert out == "new vertex: exc1 (N=5, mu=2)\n"
    blown = sk.load_model(out_path)
    assert sk.validate(blown).ok


def test_blowup_to_stdout_is_a_model(capsys):
    code, out, _ = run(capsys, "blowup", path("edge_23"), "--stratum", "e_A_B")
    assert code == 0
    model = sk.parse_model(out)
    assert sk.validate(model).ok


def test_blowup_point(tmp_path, capsys):
    out_path = tmp_path / "blown.model"
    code, out, _ = run(
        capsys,
        "blowup",
        path("reduced_fiber"),
        "--point",
        "s_A_B_C",
        "A,B",
        "3",
        "-o",
        str(out_path),
    )
    assert code == 0
    assert out == "new vertex: exc1 (N=2, mu=3)\n"
    assert sk.validate(sk.load_model(out_path)).ok
    code, _, err = run(
        capsys, "blowup", path("reduced_fiber"), "--point", "s_A_B_C", "A", "x"
    )
    assert code == 1 and "integer" in err


def _with_expansion(model, sid, num, den):
    """The model with one stratum's expansion replaced by the given exponent lists."""
    s = model.stratum(sid)
    pair = sk.SeriesPair(sk.Support(sid, s.vertices, frozenset(num)),
                         sk.Support(sid, s.vertices, frozenset(den)))
    return model.replace(strata=tuple(
        t.replace(horizontal=pair) if t is s else t for t in model.strata))


def test_a_bending_numerator_keeps_its_stratum_off_the_skeleton(tmp_path, capsys):
    # the weight on e is min(a, b) + a + b: 1 at the vertices, 3/2 in the middle
    edge = sk.graph_model(sk.KIND_SNCD, 1, 2, [("A", "A", 1, 1), ("B", "B", 1, 1)],
                          [("e", "A", "B")])
    edge = _with_expansion(edge, "e", [(1, 0), (0, 1)], [(0, 0)])
    paths = {}
    for kind in (sk.KIND_SNCD, sk.KIND_LOG_RESOLUTION):
        paths[kind] = str(tmp_path / f"{kind}.model")
        sk.save_model(edge.replace(kind=kind), paths[kind])
    p, lr = paths[sk.KIND_SNCD], paths[sk.KIND_LOG_RESOLUTION]
    assert run(capsys, "validate", p) == (0, "valid\n", "")
    assert run(capsys, "weight", p, "--stratum", "e", "--alpha", "1/2,1/2") == (0, "3/2\n", "")
    assert run(capsys, "ks", p) == (0, "min=1; strata={v_A,v_B}; connected=false\n", "")
    assert run(capsys, "classify", p, "--stratum", "e") == (0, "concave\n", "")
    # a log resolution is read by its N and mu alone, so it may carry no expansion
    refused = (f"error: {lr} is not a valid model:\nkind: stratum 'e' has expansion data, "
               "which log-resolution models lack\n")
    for command in ("lct", "report"):
        assert run(capsys, command, lr) == (1, "", refused), command
    assert run(capsys, "export", p)[1] == (
        'graph dual_complex {\n'
        '  "e" [label="e: {A,B}"];\n'
        '  "v_A" [label="v_A: A (N=1, mu=1)", style=filled, fillcolor=lightgrey];\n'
        '  "v_B" [label="v_B: B (N=1, mu=1)", style=filled, fillcolor=lightgrey];\n'
        '  "e" -- "v_B";\n'
        '  "e" -- "v_A";\n'
        '}\n'
    )


def test_a_bending_denominator_is_a_pole(tmp_path, capsys):
    # the weight at (1/4, 1/6) is 1/4, below min(mu / N) = 1/3
    p = str(tmp_path / "pole.model")
    sk.save_model(_with_expansion(load_bundled("edge_23"), "e_A_B", [(0, 0)], [(1, 0), (0, 1)]), p)
    assert run(capsys, "validate", p) == (0, "valid\n", "")
    assert run(capsys, "weight", p, "--stratum", "e_A_B", "--alpha", "1/4,1/6") == (
        0, "1/4\n", "")
    assert run(capsys, "ks", p) == (
        1, "", "error: form has poles along strata ['e_A_B']; weights are unbounded "
        "below and no minimum exists\n")
    assert run(capsys, "classify", p, "--stratum", "e_A_B") == (0, "convex\n", "")


def test_a_long_poles_error_is_one_short_line(tmp_path):
    # every stratum of a 300-cycle is a pole: the line names three and counts the rest
    model = sk.cycle_model(sk.KIND_SNCD, 1, [(f"C{i}", f"C{i}", 1, 1) for i in range(300)])
    form = tmp_path / "poles.json"
    form.write_text(json.dumps({"m": 1, "mu": {c.id: 1 for c in model.components},
                                "touches_pole": {s.id: True for s in model.strata}}))
    plain, poles = str(tmp_path / "plain.model"), str(tmp_path / "poles.model")
    sk.save_model(model, plain)
    sk.save_model(model.replace(strata=tuple(
        s.replace(touches_pole=True) for s in model.strata)), poles)
    for argv in (["ks", plain, "--form", str(form)], ["essential", plain, "--form", str(form)],
                 ["ks", poles]):
        assert run_cli(argv) == (
            1, "", "error: form has poles along strata ['e_C0_C1', 'e_C100_C101', "
            "'e_C101_C102'] and 597 more; weights are unbounded below and no minimum exists\n"
        ), argv


def test_blowup_requires_a_center(capsys):
    code, _, err = run(capsys, "blowup", path("edge_23"))
    assert code == 1 and "needs" in err
    code, _, err = run(
        capsys, "blowup", path("edge_23"), "--stratum", "e_A_B", "--point", "e_A_B", "A,B", "2"
    )
    assert code == 1 and "choose either" in err


def test_a_result_past_the_digit_limit_exits_1(tmp_path):
    """Both N at the interpreter's digit limit: the model validates, but the
    exceptional N of a blow-up has one digit more and cannot be printed."""
    digits = sys.get_int_max_str_digits()
    big = tmp_path / "big.model"
    big.write_text(re.sub(r'"N": \d+', '"N": ' + "9" * digits, bundled_path("edge_23").read_text()))
    assert run_cli(["validate", str(big)])[:2] == (0, "valid\n")
    written = tmp_path / "out.model"
    for center in (["--stratum", "e_A_B"], ["--point", "e_A_B", "A,B", "2"]):
        for output in ([], ["-o", str(written)]):
            code, out, err = run_cli(["blowup", str(big), *center, *output])
            assert code == 1 and out == "" and "Traceback" not in err, err
            assert len(err.splitlines()) == 1 and "digit limit" in err
    assert not written.exists()


def test_reduce(capsys):
    code, out, _ = run(
        capsys, "reduce", path("edge_23"), "--stratum", "e_A_B", "--alpha", "1/5,1/5"
    )
    assert code == 0
    assert out.splitlines() == [
        "step 1: center={A,B} codim=2 -> exc1 (N=5, mu=2)",
        "final: exc1 (N=5, mu=2)",
    ]


def test_reduce_refuses_a_point_past_the_step_limit(capsys):
    # 1:100001 takes 100001 blow-ups, one past the limit; 1:10^9 would run for days
    for k in (100_001, 10**9):
        total = 2 + 3 * k  # N = 2 on A and 3 on B
        code, out, err = run(capsys, "reduce", path("edge_23"), "--stratum", "e_A_B",
                             "--alpha", f"1/{total},{k}/{total}")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: reducing this point takes {k} blow-ups, more than the limit of 100000"
        ]


def test_ks_and_essential(tmp_path, capsys):
    code, out, _ = run(capsys, "ks", path("kodaira_I0star"))
    assert code == 0 and out == "min=1/2; strata={v_C}; connected=true\n"

    form = tmp_path / "form.json"
    form.write_text(json.dumps({"m": 1, "mu": {"A": 1, "B": 5}}))
    code, out, _ = run(capsys, "ks", path("edge_23"), "--form", str(form))
    assert code == 0 and out == "min=1/2; strata={v_A}; connected=true\n"

    other = tmp_path / "other.json"
    other.write_text(json.dumps({"m": 1, "mu": {"A": 3, "B": 4}}))
    code, out, _ = run(
        capsys,
        "essential",
        path("edge_23"),
        "--form",
        str(form),
        "--form",
        str(other),
    )
    assert code == 0 and out == "strata={v_A,v_B}; connected=false\n"


def test_ks_empty_skeleton_is_flagged(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text(
        json.dumps(
            {
                "m": 1,
                "mu": {"A": 1, "B": 1},
                "touches_zero": {"v_B": True, "e_A_B": True},
            }
        )
    )
    code, out, _ = run(capsys, "ks", path("edge_23"), "--form", str(form))
    assert code == 0 and out == "min=1/3; strata={}; connected=false (empty)\n"

    empty = tmp_path / "empty.model"
    sk.save_model(sk.SncdModel(sk.KIND_SNCD, 1, 2, (), ()), empty)
    assert run(capsys, "validate", str(empty))[:2] == (0, "valid\n")
    code, out, err = run(capsys, "ks", str(empty))
    assert code == 1 and out == "" and "model has no components" in err


def test_bad_form_file(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"m": 1, "mu": {"A": 1, "B": 1}, "extra": 2}))
    code, _, err = run(capsys, "ks", path("edge_23"), "--form", str(form))
    assert code == 2 and "unknown keys" in err
    form.write_text(json.dumps({"m": "x", "mu": {}}))
    code, _, err = run(capsys, "ks", path("edge_23"), "--form", str(form))
    assert code == 2


@pytest.mark.parametrize(
    "form, unknown",
    [
        ({"m": 1, "mu": {"A": 1, "B": 1}, "touches_zero": {"v_b": True, "e_A_b": True}},
         "strata ['e_A_b', 'v_b']"),
        ({"m": 1, "mu": {"A": 1, "B": 1, "b": 2}}, "components ['b']"),
    ],
)
def test_form_naming_unknown_ids_is_rejected(tmp_path, capsys, form, unknown):
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(form))
    for command in ("ks", "essential"):
        code, out, err = run(capsys, command, path("edge_23"), "--form", str(form_path))
        assert code == 1 and out == "" and unknown in err, command


@pytest.mark.parametrize("form, shown", [
    ({"m": 1, "mu": {"A": 1, "B": 1, "c" * 5000: 2}}, "(5000 characters)"),
    ({"m": 1, "mu": {"A": 1, "B": 1}, "touches_zero": {"v" * 5000: True}}, "(5000 characters)"),
    ({"m": 1, "mu": {"A": 1, "B": 1, **{f"c{k:02}": 2 for k in range(50)}}},
     "['c00', 'c01', 'c02'] and 47 more"),
])
def test_a_long_unknown_form_id_is_reported_in_one_short_line(tmp_path, form, shown):
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(form))
    code, out, err = run_cli(["ks", path("edge_23"), "--form", str(form_path)])
    assert code == 1 and out == "" and len(err.splitlines()) == 1, err
    assert len(err) <= 200 and shown in err, err


def _edge_23_with(change):
    doc = json.loads(bundled_path("edge_23").read_text())
    change(doc)
    return doc


@pytest.mark.parametrize("command, model, form", [
    ("info", _edge_23_with(lambda doc: doc.update({"k" * 5000: 1})), None),
    ("info", _edge_23_with(lambda doc: doc["strata"][0].update({f"k{j}": j for j in range(3000)})),
     None),
    ("ks", None, {"m": 1, "mu": {"A": 1, "B": 1}, "k" * 5000: 1}),
], ids=["long-top-level-key", "many-stratum-keys", "long-form-key"])
def test_unknown_keys_are_reported_in_one_short_line(tmp_path, command, model, form):
    argv = [command, path("edge_23")]
    if model is not None:
        argv[1] = str(tmp_path / "model.json")
        Path(argv[1]).write_text(json.dumps(model))
    if form is not None:
        (tmp_path / "form.json").write_text(json.dumps(form))
        argv += ["--form", str(tmp_path / "form.json")]
    code, out, err = run_cli(argv)
    assert code == 2 and out == "" and len(err.splitlines()) == 1, err
    assert len(err) <= 200 and "unknown keys" in err, err


def test_lct_and_report(capsys):
    code, out, _ = run(capsys, "lct", path("cusp"))
    assert code == 0 and out == "lct=5/6; sk_pair={v_E3}\n"
    code, out, _ = run(capsys, "lct", path("node"))
    assert code == 0 and out == "lct=1; sk_pair={e_A_B,v_A,v_B}\n"
    code, out, _ = run(capsys, "report", path("cusp"))
    assert code == 0 and "connected=true" in out
    code, _, err = run(capsys, "lct", path("edge_23"))
    assert code == 1 and "log-resolution" in err


def test_export_graph_marks_the_minimal_locus(tmp_path, capsys):
    code, out, _ = run(capsys, "export", path("kodaira_I0star"))
    assert code == 0
    assert out.startswith("graph dual_complex {")
    assert '"v_C" [label="v_C: C (N=2, mu=1)", style=filled' in out
    assert '"e_C_T1" -- "v_C";' in out

    # a form with poles has no minimal locus, so nothing is filled
    comps = [("A", "A", 2, 1), ("B", "B", 3, 1)]
    flags = {"v_A": (False, True), "v_B": (False, True), "e_A_B": (False, True)}
    poles = tmp_path / "poles.model"
    sk.save_model(sk.graph_model(sk.KIND_SNCD, 1, 2, comps, [("e_A_B", "A", "B")], flags), poles)
    assert run(capsys, "validate", str(poles))[:2] == (0, "valid\n")
    code, out, _ = run(capsys, "export", str(poles))
    assert code == 0 and out.count("[label=") == 3 and "filled" not in out


def test_export_graph_escapes_quotes_and_backslashes(tmp_path, capsys):
    comps = [('A"x', "A", 1, 1), ("B\\y", "B", 2, 1), ('C\\"', "C", 1, 2)]
    edges = [('e"1', 'A"x', "B\\y"), ("e\\2", "B\\y", 'C\\"')]
    model = sk.graph_model(sk.KIND_SNCD, 1, 2, comps, edges)
    f = tmp_path / "odd.model"
    sk.save_model(model, f)
    code, out, _ = run(capsys, "export", str(f))
    assert code == 0
    lines = out.splitlines()[1:-1]
    read = [
        [re.sub(r"\\(.)", r"\1", t) for t in re.findall(r'"((?:[^"\\]|\\.)*)"', line)]
        for line in lines
    ]
    nodes = [r for r, line in zip(read, lines) if " -- " not in line]
    assert [r[0] for r in nodes] == [s.id for s in model.strata]
    for (sid, label), s in zip(nodes, model.strata):
        assert label.startswith(f"{sid}: ") and all(v in label for v in s.vertices)
    assert [r for r, line in zip(read, lines) if " -- " in line] == [
        [s.id, s.face_map[v]] for s in model.strata for v in s.vertices if v in s.face_map
    ]


def test_export_structured_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "copy.model"
    code, _, _ = run(
        capsys, "export", path("cusp"), "--format", "structured", "-o", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == bundled_path("cusp").read_text()


def test_outputs_are_deterministic(capsys):
    for argv in (
        ["export", path("kodaira_I2star")],
        ["ks", path("kodaira_I5")],
        ["report", path("cusp")],
        ["blowup", path("edge_23"), "--stratum", "e_A_B"],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second and first[0] == 0


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "skelkit.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # argparse usage error: no subcommand

    proc = subprocess.run(
        [sys.executable, "-c", "from skelkit.cli import main; raise SystemExit(main(['lct', r'''" + path("cusp") + "''']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "lct=5/6; sk_pair={v_E3}\n"


def _child(argv, **env):
    """`python -m skelkit.cli argv` on the skelkit under test, its stdout and stderr piped."""
    src = str(Path(sk.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "skelkit.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": pythonpath, **env})


@pytest.mark.parametrize("argv", [
    ["info"], ["validate"], ["reduce", "--stratum", "e_A_B", "--alpha", "1/5,1/5"],
])
def test_a_closed_stdout_exits_1_without_a_message(argv):
    # the read end is closed before the child has started, so its one write meets a broken pipe
    proc = _child([argv[0], path("edge_23"), *argv[1:]])
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


@pytest.mark.parametrize("argv", [["--help"], ["info", "--help"]])
def test_help_into_a_closed_stdout_exits_1_without_a_message(argv):
    proc = _child(argv)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


def test_help_is_written_to_stdout_and_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: ")


def test_output_stdout_cannot_encode_exits_1_and_writes_nothing(tmp_path):
    umlaut = tmp_path / "umlaut.model"
    umlaut.write_text(bundled_path("edge_23").read_text().replace('"A"', '"\u00c4"'),
                      encoding="utf-8")
    proc = _child(["info", str(umlaut)], PYTHONIOENCODING="ascii")
    out, err = proc.communicate()
    assert (proc.returncode, out) == (1, b"")
    assert err == b"error: stdout's encoding ascii cannot hold the output\n"
    # the structured document escapes every non-ASCII character
    proc = _child(["export", str(umlaut), "--format", "structured"], PYTHONIOENCODING="ascii")
    out, err = proc.communicate()
    assert (proc.returncode, err) == (0, b"")
    assert sk.parse_model(out.decode("ascii")).component("\u00c4").N == 2


@pytest.mark.parametrize("argv", [
    ["blowup", "--stratum", "e_A_B"], ["export"], ["export", "--format", "structured"],
])
def test_an_unwritable_output_path_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    target = str(tmp_path / "missing" / "out.model")
    assert run(capsys, argv[0], path("edge_23"), *argv[1:], "-o", target) == (
        2, "", f"error: cannot write {target}: No such file or directory\n")


def _n_zero(model):
    first, *rest = model.components
    return model.replace(components=(first.replace(N=0), *rest))


def _missing_face(model):
    top = min(model.strata, key=lambda s: (-s.r, s.id))
    gone = top.vertices[0]
    face_map = {v: t for v, t in top.face_map.items() if v != gone}
    strata = tuple(
        s.replace(face_map=face_map) if s is top else s for s in model.strata
    )
    return model.replace(strata=strata)


MUTATIONS = {
    "n-zero": (_n_zero, "component-multiplicity"),
    "missing-face": (_missing_face, "face-map-missing"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", ["cusp", "reduced_fiber"])
def test_every_subcommand_rejects_an_invalid_model(name, mutation, tmp_path):
    mutate, code_word = MUTATIONS[mutation]
    bad = tmp_path / f"{name}.{mutation}.model"
    bad.write_text(sk.serialize_model(mutate(load_bundled(name))))
    subst = {"{model}": str(bad), **write_forms(name, tmp_path)}
    for label, argv in cli_runs(name):
        code, out, err = run_cli([subst.get(a, a) for a in argv])
        assert code in (0, 1, 2) and "Traceback" not in err, f"{label}: {err}"
        # validate lists the violations on stdout, every other command on stderr
        assert code == 1 and code_word in (out if label == "validate" else err), label


# damage that defeats the JSON decoder rather than the schema, for models and forms alike
RAW_MUTATIONS = {
    "non-utf8": lambda text: b"\xff\xfe" + text.encode(),
    "deep-nesting": lambda text: b"[" * 100_000 + b"]" * 100_000,
    "long-integer": lambda text: re.sub(
        r'(": )\d+', r"\g<1>" + "9" * 5000, text, count=1
    ).encode(),
}


def _shifted(doc, h):
    # every exponent up by 10**40: the orders differ as before, so the model stays valid
    for side in ("num", "den"):
        h[side] = [[b + 10**40 for b in beta] for beta in h[side]]


def _bending_den(doc, h):
    # two incomparable minima with den's per-vertex minima: valid, but ks refuses it
    low = [min(column) for column in zip(*h["den"])]
    h["den"] = [[b + (i == k) for i, b in enumerate(low)] for k in (0, 1)]


# damage to the first expansion block of a model document (doc, h)
EXPANSION_MUTATIONS = {
    "wrong-arity": lambda doc, h: h["num"][0].append(0),
    "negative-entry": lambda doc, h: h["num"][0].__setitem__(0, -1),
    "boolean-entry": lambda doc, h: h["den"][0].__setitem__(0, True),
    "empty-num": lambda doc, h: h.update(num=[]),
    "empty-den": lambda doc, h: h.update(den=[]),
    "log-resolution": lambda doc, h: doc.update(kind=sk.KIND_LOG_RESOLUTION),
    "huge-integers": _shifted,
    "bending-den": _bending_den,
}
# the model still validates after these, so not every command fails on it
VALID_AFTER = {"huge-integers", "bending-den"}


def _mutated_model_bytes(name, mutation, rng):
    text = model_path(name).read_text()
    if mutation in RAW_MUTATIONS:
        return RAW_MUTATIONS[mutation](text)
    if mutation in EXPANSION_MUTATIONS:
        doc = json.loads(text)
        EXPANSION_MUTATIONS[mutation](
            doc, next(s["horizontal"] for s in doc["strata"] if "horizontal" in s))
        return json.dumps(doc).encode()
    if mutation == "truncated":
        text = text[: rng.randrange(len(text) - 1)]  # always cuts the closing brace
    elif mutation is not None:
        text = sk.serialize_model(MUTATIONS[mutation][0](sk.parse_model(text)))
    return text.encode()


def _rationals(*values):
    """Replace the --alpha or --values tuple by values, padded with 1/6 to its length."""

    def mutate(argv, workdir):
        for i, a in enumerate(argv[:-1]):
            if a in ("--alpha", "--values"):
                r = argv[i + 1].count(",") + 1
                return [*argv[: i + 1], ",".join([*values, *["1/6"] * r][:r]), *argv[i + 2 :]]
        return argv

    return mutate


ARGV_MUTATIONS = {
    # Fraction("1e9999999") alone takes seconds to build
    "exponent-rational": _rationals("1e9999999"),
    # their sum has more digits than str() may print
    "long-rationals": _rationals("1/" + "3" * 3000, "1/" + "7" * 2999 + "1"),
    "unwritable-output": lambda argv, workdir: (
        [*argv, "-o", str(Path(workdir) / "missing" / "out")]
        if argv[0] in ("blowup", "export") else argv
    ),
}


FORM_MUTATIONS = {
    "unknown-component": lambda doc: {**doc, "mu": {**doc["mu"], "nope": 1}},
    "unknown-stratum": lambda doc: {**doc, "touches_zero": {"nope": True}},
    "m-is-a-string": lambda doc: {**doc, "m": "1"},
    "mu-is-a-list": lambda doc: {**doc, "mu": list(doc["mu"])},
    "flag-is-an-int": lambda doc: {**doc, "touches_pole": {"nope": 1}},
}


def _on_every_expansion_model(test):
    """An explicit example per expansion model and expansion mutation."""
    for name, mutation in product(EXPANSION_NAMES, sorted(EXPANSION_MUTATIONS)):
        test = example(name, mutation, None, None, random.Random(0))(test)
    return test


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(BUNDLED_NAMES + EXPANSION_NAMES),
    st.sampled_from([None, "truncated", *sorted(MUTATIONS), *sorted(RAW_MUTATIONS)]),
    st.sampled_from([None, *sorted(FORM_MUTATIONS), *sorted(RAW_MUTATIONS)]),
    st.sampled_from([None, *sorted(ARGV_MUTATIONS)]),
    st.randoms(use_true_random=False),
)
@example("edge_23", "non-utf8", None, None, random.Random(0))
@example("edge_23", "deep-nesting", None, None, random.Random(0))
@example("edge_23", "long-integer", None, None, random.Random(0))
@example("edge_23", None, "non-utf8", None, random.Random(0))
@example("edge_23", None, "deep-nesting", None, random.Random(0))
@example("edge_23", None, "long-integer", None, random.Random(0))
@example("edge_23", None, None, "exponent-rational", random.Random(0))
@example("edge_23", None, None, "long-rationals", random.Random(0))
@example("edge_23", None, None, "unwritable-output", random.Random(0))
@_on_every_expansion_model
def test_every_subcommand_survives_mutated_input(
    name, model_mutation, form_mutation, argv_mutation, rng
):
    """Exit 0, 1 or 2 with no traceback; a broken model fails every command, a
    broken form fails every command that reads it and a broken argument list
    fails its command."""
    with tempfile.TemporaryDirectory() as workdir:
        written = Path(workdir) / f"{name}.model"
        written.write_bytes(_mutated_model_bytes(name, model_mutation, rng))
        # a model without face maps has no face to remove
        broken = (written.read_bytes() != model_path(name).read_bytes()
                  and model_mutation not in VALID_AFTER)
        subst = {"{model}": str(written), **write_forms(name, workdir)}
        for form_path in map(Path, (subst["{form0}"], subst["{form1}"]) if form_mutation else ()):
            text = form_path.read_text()
            if form_mutation in RAW_MUTATIONS:
                form_path.write_bytes(RAW_MUTATIONS[form_mutation](text))
            else:
                form_path.write_text(json.dumps(FORM_MUTATIONS[form_mutation](json.loads(text))))
        mutate = ARGV_MUTATIONS.get(argv_mutation, lambda argv, workdir: argv)
        for label, argv in cli_runs(name):
            mutated = mutate(argv, workdir)
            code, out, err = run_cli([subst.get(a, a) for a in mutated])
            assert code in (0, 1, 2) and "Traceback" not in err, f"{label}: {err}"
            if code != 0 and label != "validate":  # validate reports violations on stdout
                assert out == "", label
            if broken or mutated != argv:
                assert code != 0, label
            if form_mutation and label in ("ks-form", "essential"):
                assert code != 0, label


def _count_calls(monkeypatch, name, *modules):
    """Count the calls to one function through each module that binds it."""
    calls = []
    fn = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_ks_form_is_resolved_once(tmp_path, capsys, monkeypatch):
    checked = _count_calls(monkeypatch, "_check_form", sk.essential)
    applied = _count_calls(monkeypatch, "apply_form", sk.essential)
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"m": 1, "mu": {"A": 1, "B": 5}}))
    code, out, _ = run(capsys, "ks", path("edge_23"), "--form", str(form))
    assert code == 0 and out == "min=1/2; strata={v_A}; connected=true\n"
    assert len(checked) == 1 and len(applied) == 0


def test_lct_takes_the_minimum_once(capsys, monkeypatch):
    minima = _count_calls(monkeypatch, "min_weight", sk.essential, sk.birational)
    code, out, _ = run(capsys, "lct", path("cusp"))
    assert code == 0 and out == "lct=5/6; sk_pair={v_E3}\n"
    assert len(minima) == 1


def test_forms_are_read_without_an_overlay_or_validate(monkeypatch):
    comps = [(f"C{i}", f"C{i}", 1 + i % 3, 1 + i % 5) for i in range(200)]
    model = sk.cycle_model(sk.KIND_SNCD, 1, comps)
    zero = dict.fromkeys(sk.cofaces(model, "v_C7"), True)
    forms = [
        sk.FormData(1, {c: (i * k) % 7 + 1 for i, (c, *_) in enumerate(comps)}, zero)
        for k in (1, 2, 3)
    ]
    expected = sk.essential_skeleton(model, forms)
    built = _count_calls(monkeypatch, "__init__", sk.SncdModel)
    validated = _count_calls(monkeypatch, "validate", sk.model)
    fractions = _count_calls(monkeypatch, "Fraction", sk.essential)
    assert sk.essential_skeleton(model, forms) == expected
    assert len(fractions) == 3  # one minimum per form
    assert sk.min_weight(model, forms[0]) == Fraction(1, 3)
    assert len(fractions) == 4
    assert built == [] and validated == []
