"""The examples in README.md, run as written from the repository root.

Each `$ skelkit ...` example of the "Command line" block runs through
`cli.main` and must print exactly the lines shown under it.  The "Library"
block runs statement by statement; an expression with a comment must have
a repr that the comment's text up to its last `)` matches, `...` standing
for any text.  The keys the "Model files" section lists for each kind of
record must be the keys of that record's table in `skelkit.modelfile`.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from skelkit import modelfile
from conftest import run_cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(heading):
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _block(heading, lang):
    """The first fenced `lang` block of the README section under `## heading`."""
    return _section(heading).split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _cli_examples():
    """(argv, expected stdout lines) of each `$ skelkit` example."""
    examples = []
    for chunk in _block("Command line", "sh").strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ skelkit "), command
        examples.append((shlex.split(command)[2:], output))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_the_command_line_block_has_its_seven_examples():
    assert len(CLI_EXAMPLES) == 7


@pytest.mark.parametrize(
    "argv, expected", CLI_EXAMPLES, ids=[f"{a[0]}-{Path(a[1]).stem}" for a, _ in CLI_EXAMPLES]
)
def test_cli_example(argv, expected, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == expected


def test_library_example(monkeypatch):
    monkeypatch.chdir(ROOT)
    source = _block("Library", "python")
    lines = source.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
        shown = comment[: comment.rindex(")") + 1]
        pattern = ".*".join(re.escape(part) for part in shown.split("..."))
        assert re.fullmatch(pattern, repr(value)), (code, comment, repr(value))
        checked.append(shown)
    assert checked == [
        "Fraction(5, 12)",
        "Fraction(5, 12)",
        "PrimeComponent(id='exc3', ... N=12, mu=5)",
    ]


def test_the_model_file_key_lists_are_the_tables_keys():
    text = " ".join(_section("Model files").split())  # one line, single spaces

    def braced(after):
        return set(re.search(re.escape(after) + r" `\{([^}]*)\}`", text)[1].split(", "))

    assert re.findall(r"\* `(\w+)`:", text) == list(modelfile._TOP)
    assert braced("`components`: list of") == set(modelfile._COMPONENT)
    extra = re.search(r"carry `(\w+)` data, a pair of exponent supports \(`(\w+)`, `(\w+)`\)",
                      text)
    assert braced("`strata`: list of cells") | {extra[1]} == set(modelfile._STRATUM)
    assert {extra[2], extra[3]} == set(modelfile._EXPANSION)
    form = re.search(r"A form document [^;]* has the keys ([^;]*);", text)[1]
    assert re.findall(r"`(\w+)`", form) == list(modelfile._FORM)
