"""Golden CLI outputs: every subcommand on every bundled model, byte for byte.

tests/golden/<model>.json maps a run label to its argument list, exit
code, stdout and stderr.  In the stored argument lists the model path is
written `{model}` and the two generated form files `{form0}`/`{form1}`.
They pin the command line's output across refactors of the library.
tests/golden/broken_strata.model is reduced_fiber broken on ten strata and
one component; broken_strata.json pins `skelkit validate`'s whole report on
it, so the order of the violations is pinned too, not only their multiset;
the script below leaves it as it is.  The expansion models (conftest's
EXPANSION_NAMES) are files here too, so that every subcommand also runs on
`horizontal` data read from a file.  Regenerate the others only for an
intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json

import pytest

from conftest import (
    BUNDLED_NAMES, EXPANSION_NAMES, GOLDEN, cli_runs, model_path, run_cli, write_forms,
)


def capture(name, workdir):
    """Run every golden command in process; label -> {argv, exit, stdout, stderr}."""
    subst = {"{model}": str(model_path(name)), **write_forms(name, workdir)}
    records = {}
    for label, argv in cli_runs(name):
        code, out, err = run_cli([subst.get(a, a) for a in argv])
        records[label] = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
    return records


@pytest.mark.parametrize("name", BUNDLED_NAMES + EXPANSION_NAMES)
def test_cli_output_matches_golden(name, tmp_path):
    stored = json.loads((GOLDEN / f"{name}.json").read_text())
    fresh = capture(name, tmp_path)
    assert list(fresh) == list(stored)
    for label in stored:
        assert fresh[label] == stored[label], f"{name}: {label}"


def test_validate_report_on_broken_strata_matches_golden():
    stored = json.loads((GOLDEN / "broken_strata.json").read_text())["validate"]
    code, out, err = run_cli(["validate", str(GOLDEN / "broken_strata.model")])
    assert {"exit": code, "stdout": out, "stderr": err} == {
        k: stored[k] for k in ("exit", "stdout", "stderr")}


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in BUNDLED_NAMES + EXPANSION_NAMES:
            (GOLDEN / f"{name}.json").write_text(json.dumps(capture(name, workdir), indent=2) + "\n")
            print(f"wrote golden/{name}.json")
