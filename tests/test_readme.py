"""The examples in README.md run and print what they promise."""

import ast
import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from splinedim import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_library_snippet():
    block = re.search(r"```python\n(.*?)```", TEXT, re.S).group(1)
    *body, last = block.strip().splitlines()
    expr, _, promised = last.partition("#")
    scope: dict = {}
    exec("\n".join(body), scope)
    assert eval(expr, scope) == ast.literal_eval(promised.strip()) == (134, 1, 135)


def _transcripts():
    """(command, printed lines) for every `$ splinedim` line the README follows with output."""
    for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("$ splinedim "):
                printed = list(takewhile(lambda ln: not ln.startswith("$ "), lines[i + 1:]))
                if printed:
                    yield line.removeprefix("$ splinedim "), printed


TRANSCRIPTS = dict(_transcripts())


def test_readme_transcripts_found():
    assert {"validate figure2", "dim figure2 --r 8 --d 12", "regularity figure2 --r 6"} \
        <= TRANSCRIPTS.keys()


@pytest.mark.parametrize("command", TRANSCRIPTS)
def test_readme_transcript(command, capsys):
    code = cli.main(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.splitlines() == TRANSCRIPTS[command]
