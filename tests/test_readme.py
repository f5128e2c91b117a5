"""README's examples, run as written.

Every line ``$ opalg ...`` inside a fenced block of README.md is one
example; the lines after it, up to a blank line, the next ``$`` line or
the end of the block, are its expected stdout.  The command runs in
process through ``cli.main`` and its stdout is compared line by line.  A
line ``...`` stands for any run of lines, the empty run included.

Every fenced ``python`` block runs as a whole, in a fresh namespace, and
must finish without raising.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from opalg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ opalg "


def _examples():
    """(command, expected stdout lines) for each example, in README order."""
    examples, current, fenced = [], None, False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif fenced and line.startswith(PROMPT):
            current = []
            examples.append((line[len(PROMPT):], current))
        elif current is not None and line.strip() and not line.startswith("$"):
            current.append(line)
        else:
            current = None
    return examples


def _matches(expected, actual) -> bool:
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(_matches(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and _matches(expected[1:], actual[1:])


def _python_blocks():
    """The source of each fenced ``python`` block, in README order."""
    blocks, current = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if current is None and line == "```python":
            current = []
        elif current is not None and line.startswith("```"):
            blocks.append("\n".join(current) + "\n")
            current = None
        elif current is not None:
            current.append(line)
    return blocks


EXAMPLES = _examples()
PYTHON_BLOCKS = _python_blocks()


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_what_readme_shows(command, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(shlex.split(command))
    actual = out.getvalue().splitlines()
    assert _matches(expected, actual), "\n".join(["expected:", *expected, "printed:", *actual])


def test_readme_has_a_python_example():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=[f"python-{k}" for k in range(len(PYTHON_BLOCKS))])
def test_readme_python_block_runs(source):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
