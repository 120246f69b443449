"""The README's examples, run as written: each printed line must match its comment.

An example's comment is its expected output up to the first double space;
what follows a double space is a note ("# 2  (exact)").
"""

import re
import shlex
from pathlib import Path

import pytest

from quadperfect.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str) -> str:
    """The first fenced block under the README section with this heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", section, re.S).group(1)


def _expected(comment: str) -> str:
    return comment.strip().split("  ")[0]


CLI_EXAMPLES = [
    pytest.param(shlex.split(command)[1:], _expected(comment), id=command.strip())
    for command, sep, comment in (line.partition("#") for line in _block("CLI").splitlines())
    if sep
]


def test_every_cli_example_with_an_output_is_run():
    commands = [example.values[0][0] for example in CLI_EXAMPLES]
    assert commands == ["classify", "factor", "index", "index"]


@pytest.mark.parametrize("argv,expected", CLI_EXAMPLES)
def test_cli_example_prints_its_comment(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == expected


def test_library_example_prints_its_comments():
    code = _block("Library example")
    expected = [
        _expected(line.partition("#")[2])
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    printed = []
    exec(code, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert len(expected) == 4
    assert printed == expected
